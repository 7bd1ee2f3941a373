"""Toric backend: S^1-symmetric metrics on the interval reduction [-1, 1].

States are smooth corrections ``v`` to the canonical convex potential

    u0(x) = ((1+x) log(1+x) + (1-x) log(1-x)) / 2,      u0'' = 1 / (1-x^2),

discretized on Chebyshev-Gauss-Lobatto nodes.  The boundary singularity of
u0 is handled analytically: every curvature formula is written in terms of

    rho = 1 / (1 + (1-x^2) v''),        1/u'' = (1-x^2) * rho,

so only smooth data ever touches a differentiation matrix.  Scalar
curvature comes from differentiating 1/u'' twice,

    S = -(1/u'')'' = 2 rho + 4 x rho' - (1-x^2) rho'',

which is exactly 2 at the round state v = 0 (rho = 1, and the derivative
kernels map the zero field to zero, so the round state is stationary to
the last bit).  The symplectic measure is dx, independent of v, hence
volume is exactly conserved, and the boundary values rho(+-1) = 1 pin
the average scalar curvature at 2 (``MEAN_SCALAR``) for every state.

The grid is mirror-symmetric, so D1 maps even fields to odd ones and odd
to even, D2 keeps parity, and so does the round-state operator of the
step.  Every operator is therefore kept as two half-size blocks, one per
parity (``fold``, ``unfold``, ``diff``), which halves the flops and the
bytes of each product.
"""

import threading
from numbers import Integral

import numpy as np

from ..errors import BadParams

# The flow moves the Kahler potential phi by +(S - S_bar), as on the torus.
# The symplectic potential u(x) is its Legendre dual, u(x) + phi(xi) =
# x xi at x = phi'(xi); differentiating in t at fixed x, the xi_t terms
# cancel and u_t = -phi_t.  With u0 fixed, v_t = u_t = -(S - S_bar).  The
# energy-decrease experiment in the tests checks the sign.
FLOW_SIGN = -1.0
FIELD_DIM = 1  # holomorphic fields: multiples of the circle generator
BASE_NAME = "toric positivity"  # what the positivity check reads
# Integrating S = -(1/u'')'' once gives int S dx = 2 (rho(1) + rho(-1)) = 4
# for every admissible v, since (1-x^2) vanishes at the endpoints.  The
# mean divides by the interval's exact length 2, not by the sum of the
# quadrature weights, which rounds away from 2 at some node counts (9 and
# 33), so the round state is a fixed point bit for bit at every M.
MEAN_SCALAR = 2.0
ZERO_PRESET = "round"  # the preset whose correction v vanishes

_CACHE = {}
# Guards the first build of a node count's tables and of its modes, so
# that racing threads share one ChebOps and one set of modes.
_LOCK = threading.Lock()


def check_resolution(m):
    """Raise ValueError unless m is a node count in 8..2049."""
    if not isinstance(m, Integral) or not 8 <= m <= 2049:
        raise ValueError(f"unsupported toric resolution {m}")


def grid_shape(m):
    return (m,)


def check_gauge(v):
    """Every finite v is admissible; the affine part is removed by steps."""


class ChebOps:
    """Nodes, quadrature and parity-folded differentiation blocks for m
    Lobatto nodes, and the round-state modes of the toric step.

    ``blocks[k - 1]`` holds D^k as (on_even, on_odd), the blocks that act
    on the sums and on the differences of mirrored values (``fold``).
    Each is (P +- Q J) / 2 over the top rows of D^k, P its first
    ceil(m / 2) and Q its last m // 2 columns, J the reversal; the centre
    node x = 0 of an odd m has no mirror and sits in the even half.  D1
    maps even fields to odd ones, so its on_even block has the m // 2
    rows of the odd output and its on_odd block the ceil(m / 2) rows of
    the even output; D2 keeps parity.
    """

    def __init__(self, m):
        if m < 4:
            raise ValueError("toric grid needs at least 4 nodes")
        j = np.arange(m)
        # Ascending nodes, mirrored so the reflection x -> -x is an exact
        # grid permutation; endpoints are exactly -1.0 and 1.0 in doubles.
        x = -np.cos(np.pi * j / (m - 1))
        x[-(m // 2):] = -x[: m // 2][::-1]
        if m % 2 == 1:
            x[m // 2] = 0.0
        c = np.ones(m)
        c[0] = c[-1] = 2.0
        c = c * (-1.0) ** j
        dx = x[:, None] - x[None, :]
        dmat = np.outer(c, 1.0 / c) / (dx + np.eye(m))
        np.fill_diagonal(dmat, 0.0)
        np.fill_diagonal(dmat, -dmat.sum(axis=1))
        # The dense D1 is a set-up temporary: only its top rows are folded.
        h = m // 2
        flip = dmat[:, ::-1]
        d1_even = 0.5 * dmat[:h, :m - h]
        d1_even[:, :h] += 0.5 * flip[:h, :h]
        d1_odd = 0.5 * (dmat[:m - h, :h] - flip[:m - h, :h])
        # Negative-sum diagonal: the block that sees constants annihilates
        # them to rounding.
        i = np.arange(h)
        d1_even[i, i] = 0.0
        d1_even[i, i] = -d1_even.sum(axis=1)
        # D2 = D1 D1 folded: twice each block product, since the blocks
        # act on sums and differences, that is twice each parity part.
        d2_even = 2.0 * (d1_odd @ d1_even)
        d2_odd = 2.0 * (d1_even @ d1_odd)
        self.x = x
        self.q = 1.0 - x * x
        self.weights = _clenshaw_curtis(m)
        self.blocks = ((d1_even, d1_odd), (d2_even, d2_odd))
        for a in (self.x, self.q, self.weights, d1_even, d1_odd, d2_even,
                  d2_odd):
            a.setflags(write=False)
        self._modes = None

    @property
    def modes(self):
        """((sig, lam, Q) for the even parity, then for the odd one).

        The round-state stiffness K0 = D2' diag(w q^2) D2 is the flow's
        linearization -(q^2 (.)'')'' at v = 0 against the quadrature inner
        product W = diag(w); it is symmetric positive semidefinite and
        keeps parity.  Per parity, sig = c sqrt(w) on the first half of
        the nodes (c = sqrt(2) on mirrored pairs, 1 at the centre node)
        takes the first-half values y of a parity part to orthonormal
        coordinates of W^(1/2) y, in which K0 is Q diag(lam) Q'.  So for
        every dt, (W + dt K0)^-1 W takes y to
        (1/sig) Q diag(1 / (1 + dt lam)) Q' (sig y).  The weights are
        mirror-symmetric to rounding, and sig reads the first half's.  lam
        is clamped at 0: the constant (even) and x (odd) gauge modes come
        out a rounding error below it.  Computed on first use and kept;
        one eigh per parity block.
        """
        with _LOCK:
            if self._modes is None:
                m = self.x.shape[0]
                c = np.full(m - m // 2, np.sqrt(2.0))
                c[m // 2:] = 1.0
                modes = []
                for d2 in self.blocks[1]:
                    n = d2.shape[0]
                    sig = c[:n] * np.sqrt(self.weights[:n])
                    # K0 / (r r') on one parity is G'G: the block of D2
                    # in these coordinates, weighted by sqrt(w) q.
                    g = (2.0 * sig * self.q[:n])[:, None] * d2 / sig
                    lam, vecs = np.linalg.eigh(g.T @ g)
                    lam = np.maximum(lam, 0.0)
                    for a in (sig, lam, vecs):
                        a.setflags(write=False)
                    modes.append((sig, lam, vecs))
                self._modes = tuple(modes)
        return self._modes


def _clenshaw_curtis(m):
    """Clenshaw-Curtis weights on ascending Lobatto nodes (sum = 2)."""
    n = m - 1
    theta = np.pi * np.arange(m) / n
    w = np.zeros(m)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[-1] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[1:-1]) / (n * n - 1)
    else:
        w[0] = w[-1] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k * k - 1)
    w[1:-1] = 2.0 * v / n
    return w[::-1].copy()  # ascending-node order


def ops(m):
    o = _CACHE.get(m)
    if o is None:
        with _LOCK:
            o = _CACHE.get(m)
            if o is None:
                o = _CACHE[m] = ChebOps(m)
    return o


def fold(f):
    """(sums, differences) of mirrored values: twice the first-half values
    of the even and of the odd part of f.

    f[i] + f[m-1-i] over the first ceil(m / 2) nodes (the centre node of
    an odd m is added to itself) and f[i] - f[m-1-i] over the first
    m // 2.
    """
    m = f.shape[0]
    r = f[::-1]
    return f[:m - m // 2] + r[:m - m // 2], f[:m // 2] - r[:m // 2]


def unfold(even, odd):
    """The field whose even and odd parts have these first-half values."""
    h = odd.shape[0]
    out = np.empty(h + even.shape[0])
    out[:even.shape[0]] = even
    out[:h] += odd
    out[even.shape[0]:] = (even[:h] - odd)[::-1]
    return out


def diff(f, k):
    """D1 f (k = 1) or D2 f (k = 2): two half-size products.

    D1 swaps the parities and D2 keeps them.  The reflection is exact, so
    D1 of the mirrored field is minus the mirrored D1 f, and D2 of it the
    mirrored D2 f, bit for bit.
    """
    on_even, on_odd = ops(f.shape[0]).blocks[k - 1]
    s, d = fold(f)
    a, b = on_even @ s, on_odd @ d
    return unfold(b, a) if k == 1 else unfold(a, b)


class Form:
    """A field as the kernels below read it: its nodal values, and D1 f and
    D2 f, each derived on first use and kept (read-only).

    ``geometry`` keeps the form of v and of S per state, so the base field
    and S share one D2 v, and lap_g S and |grad S|_g one D1 S.  A fill is
    idempotent, so threads that race on it store the same bits.
    """

    __slots__ = ("values", "_d")

    def __init__(self, f):
        self.values = f
        self._d = [None, None]

    def d(self, k):
        out = self._d[k - 1]
        if out is None:
            out = diff(self.values, k)
            out.setflags(write=False)
            self._d[k - 1] = out
        return out


def spectrum(f):
    """The form the kernels below read a field in (``Form``)."""
    return Form(f)


def base_field(spec):
    """Positivity 1 + (1-x^2) v'': positive iff u'' > 0 on the interior."""
    return 1.0 + ops(spec.values.shape[0]).q * spec.d(2)


def _inverse_u2(p):
    """The smooth profile 1/u'' = (1-x^2) rho; vanishes at the endpoints."""
    return ops(p.shape[0]).q * (1.0 / p)


def scalar_curvature(spec, p):
    """Scalar curvature via the deviation psi = rho - 1; p = base_field(spec).

    Writing rho = 1 + psi with psi computed pointwise keeps the round state
    exact: v = 0 gives psi = 0 bitwise and S = 2 bitwise.
    """
    o = ops(p.shape[0])
    psi = -(o.q * spec.d(2)) / p
    return (2.0 + 2.0 * psi + 4.0 * o.x * diff(psi, 1)
            - o.q * diff(psi, 2))


def laplacian(p, spec):
    """Metric Laplacian lap_g f = (w f')' with w = 1/u''."""
    return diff(_inverse_u2(p) * spec.d(1), 1)


def grad_norm(p, spec):
    """Pointwise metric gradient norm |grad f|_g = sqrt(w) |f'|."""
    w = _inverse_u2(p)
    return np.sqrt(np.maximum(w, 0.0)) * np.abs(spec.d(1))


def volume(p):
    """Symplectic volume of the interval; independent of the state."""
    return float(np.sum(ops(p.shape[0]).weights))


def integral(p, values):
    """Integral against the symplectic measure dx (state-independent)."""
    return float(np.dot(ops(p.shape[0]).weights, values))


def scalar_evolution(p, s, laps):
    """Spatial side of the scalar evolution identity in symplectic slicing.

    Along dv/dt = -(S - 2) the profile w = 1/u'' obeys dw/dt = w^2 S'', so
    dS/dt = -(w^2 S'')'' exactly.  Expanding against lap_g = (w d/dx)' the
    same field reads lap_g^2 S + S lap_g S + w (S')^2; the compact form is
    what is evaluated here, so ``laps`` (the Laplacians of S) is not
    called.
    """
    w = _inverse_u2(p)
    # Differentiating the deviation S - 2 is exact at the round state and
    # avoids amplifying the rounding of D2 applied to a constant.
    return diff(w * w * diff(s - MEAN_SCALAR, 2), 2)


def decay_rates(m):
    """K0's eigenvalues (``ChebOps.modes``), the even block's first."""
    return np.concatenate([lam for _, lam, _ in ops(m).modes])


def velocity_modes(v_spec, s_spec, p):
    """Coordinates Q' (sig y) of the velocity -(S - S_bar) in K0's
    eigenbasis (``ChebOps.modes``), even block first; y is half of each of
    ``fold``'s parts.  Neither v nor p is read."""
    f = FLOW_SIGN * (s_spec.values - MEAN_SCALAR)
    return np.concatenate([q.T @ (0.5 * sig * y) for y, (sig, _, q)
                           in zip(fold(f), ops(f.shape[0]).modes)])


def advance(v, inc):
    """v plus the field of coordinates inc, laid out as ``velocity_modes``
    lays them, less its affine gauge part."""
    modes = ops(v.shape[0]).modes
    parts = np.split(inc, [modes[0][1].size])
    return strip_affine(v + unfold(*[(q @ g) / sig for g, (sig, _, q)
                                     in zip(parts, modes)]))


def extremality_residual(p, s):
    """L2 norm of the holomorphy defect of the raised gradient field of S.

    For invariant states the defect has modulus |w S''| / 2, so the
    residual vanishes exactly when S is affine in the moment coordinate,
    the classical characterization of invariant extremal states.
    """
    d = 0.5 * _inverse_u2(p) * diff(s, 2)
    return float(np.sqrt(integral(p, d * d)))


def strip_affine(v):
    """Remove the affine part (gauge): endpoint values pinned to zero."""
    o = ops(v.shape[0])
    a = v[0]
    b = v[-1]
    return v - (a * (1.0 - o.x) + b * (1.0 + o.x)) / 2.0


def sobolev_gap(a_spec, b_spec):
    """Order-2 Sobolev gap minimized over the backend's automorphisms.

    The symmetry group available on the interval reduction is the
    reflection x -> -x together with the identity; the Lobatto grid is
    symmetric, so the reflection is an exact permutation, and it keeps the
    gauge (zero endpoint values).
    """
    o = ops(a_spec.values.shape[0])
    best = np.inf
    a0 = strip_affine(a_spec.values)
    b0 = strip_affine(b_spec.values)
    for cand in (a0, a0[::-1]):
        d = cand - b0
        d1 = diff(d, 1)
        d2 = diff(d, 2)
        best = min(best, float(o.weights @ (d * d + d1 * d1 + d2 * d2)))
    return float(np.sqrt(best))


def futaki_pairing(p, v, dev, rows):
    """c int x (S - S_bar) dx for each multiple c of the circle generator.

    ``dev`` is S - S_bar; the state's ``v`` is not read.  The generator's
    Hamiltonian is the moment coordinate x, so the pairing is exact
    quadrature and needs no solve.
    """
    hamiltonian = integral(p, ops(p.shape[0]).x * dev)
    return tuple(c * hamiltonian for (c,) in rows)


def _seeded_potential(m, seed, amplitude, top, decay):
    """Gaussian Chebyshev coefficients of degree 2..top, scaled degree^-decay.

    The affine part is stripped, and the amplitude is the sup-norm of
    (1-x^2) v'', the quantity that decides positivity.
    """
    degrees = np.arange(2, top + 1)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degrees.size) / degrees ** decay
    o = ops(m)
    theta = np.arccos(np.clip(o.x, -1, 1))
    v = np.zeros(m)
    for d, c in zip(degrees, coeffs):
        v += c * np.cos(d * theta)
    scale = np.max(np.abs(o.q * diff(v, 2)))
    if scale == 0.0:
        raise BadParams("degenerate random draw")
    return strip_affine(v * (amplitude / scale))


def random_potential(m, seed, amplitude, kmax=None):
    """Seeded smooth correction, Chebyshev degrees up to kmax (default 6).

    Degrees above m - 1 alias on m Lobatto nodes (cos(28 theta) is
    cos(2 theta) at m = 16), so a larger kmax is refused.
    """
    top = int(kmax) if kmax else 6
    if top > m - 1:
        raise BadParams(f"kmax {kmax} exceeds {m - 1}, the highest "
                        f"Chebyshev degree {m} Lobatto nodes resolve")
    return _seeded_potential(m, seed, amplitude, top, 0)


def rough_potential(m, seed, amplitude):
    """Seeded 1/degree Chebyshev spectrum up to degree max(4, m/3) - 1."""
    return _seeded_potential(m, seed, amplitude, max(4, m // 3) - 1, 1)
