"""Toric backend: S^1-symmetric metrics on the interval reduction [-1, 1].

States are smooth corrections ``v`` to the canonical convex potential

    u0(x) = ((1+x) log(1+x) + (1-x) log(1-x)) / 2,      u0'' = 1 / (1-x^2),

discretized on Chebyshev-Gauss-Lobatto nodes.  The boundary singularity of
u0 is handled analytically: every curvature formula is written in terms of

    rho = 1 / (1 + (1-x^2) v''),        1/u'' = (1-x^2) * rho,

so only smooth data ever touches a differentiation matrix.  Scalar
curvature comes from differentiating 1/u'' twice,

    S = -(1/u'')'' = 2 rho + 4 x rho' - (1-x^2) rho'',

which is exactly 2 at the round state v = 0 (rho = 1, differentiation
matrices annihilate constants by the negative-sum construction, so the
round state is stationary to the last bit).  The symplectic measure is dx,
independent of v, hence volume is exactly conserved, and the boundary
values rho(+-1) = 1 pin the average scalar curvature at 2 for every
admissible state.
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
ZERO_PRESET = "round"  # the preset whose correction v vanishes

_CACHE = {}
# Guards the first build of a node count's tables and of its modes, so
# that racing threads share one ChebOps and one eigendecomposition.
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
    """Differentiation and quadrature tables for m Lobatto nodes, and the
    round-state modes of the toric step."""

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
        # Negative-sum diagonal: rows annihilate constants exactly.
        np.fill_diagonal(dmat, 0.0)
        np.fill_diagonal(dmat, -dmat.sum(axis=1))
        self.x = x
        self.d1 = dmat
        self.d2 = dmat @ dmat
        self.q = 1.0 - x * x
        self.weights = _clenshaw_curtis(m)
        for a in (self.x, self.d1, self.d2, self.q, self.weights):
            a.setflags(write=False)
        self._modes = None

    @property
    def modes(self):
        """(r, lam, Q): the round-state pencil in an orthonormal eigenbasis.

        The round-state stiffness K0 = D2' diag(w q^2) D2 is the flow's
        linearization -(q^2 (.)'')'' at v = 0 against the quadrature inner
        product W = diag(w); it is symmetric positive semidefinite.  With
        r = sqrt(w), K0 / (r r') = Q diag(lam) Q', so W + dt K0 =
        R Q diag(1 + dt lam) Q' R for every dt.  lam is clamped at 0: the
        two affine gauge modes come out a rounding error below it.
        Computed on first use and kept; one eigh per node count.
        """
        with _LOCK:
            if self._modes is None:
                r = np.sqrt(self.weights)
                k0 = self.d2.T @ ((self.weights * self.q * self.q)[:, None]
                                  * self.d2)
                lam, vecs = np.linalg.eigh(k0 / np.outer(r, r))
                lam = np.maximum(lam, 0.0)
                for a in (r, lam, vecs):
                    a.setflags(write=False)
                self._modes = (r, lam, vecs)
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


def base_field(v):
    """Positivity 1 + (1-x^2) v'': positive iff u'' > 0 on the interior."""
    o = ops(v.shape[0])
    return 1.0 + o.q * (o.d2 @ v)


def _inverse_u2(p):
    """The smooth profile 1/u'' = (1-x^2) rho; vanishes at the endpoints."""
    return ops(p.shape[0]).q * (1.0 / p)


def scalar_curvature(v, p):
    """Scalar curvature via the deviation psi = rho - 1; p = base_field(v).

    Writing rho = 1 + psi with psi computed pointwise keeps the round state
    exact: v = 0 gives psi = 0 bitwise and S = 2 bitwise.
    """
    o = ops(v.shape[0])
    psi = -(o.q * (o.d2 @ v)) / p
    return 2.0 + 2.0 * psi + 4.0 * o.x * (o.d1 @ psi) - o.q * (o.d2 @ psi)


def laplacian(p, f):
    """Metric Laplacian lap_g f = (w f')' with w = 1/u''."""
    o = ops(p.shape[0])
    return o.d1 @ (_inverse_u2(p) * (o.d1 @ f))


def grad_norm(p, f):
    """Pointwise metric gradient norm |grad f|_g = sqrt(w) |f'|."""
    w = _inverse_u2(p)
    return np.sqrt(np.maximum(w, 0.0)) * np.abs(ops(p.shape[0]).d1 @ f)


def volume(p):
    """Symplectic volume of the interval; independent of the state."""
    return float(np.sum(ops(p.shape[0]).weights))


def average_scalar(p):
    """Average scalar curvature from the boundary data of 1/u''.

    Integrating S = -(1/u'')'' once gives int S dx = -[(1/u'')']_{-1}^{1}
    = 2 (rho(1) + rho(-1)); the endpoint values of rho are 1 for every
    admissible v because (1-x^2) vanishes there.  The quotient by the
    volume is therefore 2, independent of the evolving state.
    """
    rho_ends = 1.0 / p[[0, -1]]
    total = 2.0 * float(rho_ends.sum())
    return total / volume(p)


def integral(p, values):
    """Integral against the symplectic measure dx (state-independent)."""
    return float(np.dot(ops(p.shape[0]).weights, values))


def scalar_evolution(p, s):
    """Spatial side of the scalar evolution identity in symplectic slicing.

    Along dv/dt = -(S - 2) the profile w = 1/u'' obeys dw/dt = w^2 S'', so
    dS/dt = -(w^2 S'')'' exactly.  Expanding against lap_g = (w d/dx)' the
    same field reads lap_g^2 S + S lap_g S + w (S')^2; the compact form is
    what is evaluated here.
    """
    o = ops(p.shape[0])
    w = _inverse_u2(p)
    # Differentiating the deviation S - 2 is exact at the round state and
    # avoids amplifying the matrix noise of D2 applied to a constant.
    return o.d2 @ (w * w * (o.d2 @ (s - average_scalar(p))))


def extremality_residual(p, s):
    """L2 norm of the holomorphy defect of the raised gradient field of S.

    For invariant states the defect has modulus |w S''| / 2, so the
    residual vanishes exactly when S is affine in the moment coordinate,
    the classical characterization of invariant extremal states.
    """
    d = 0.5 * _inverse_u2(p) * (ops(p.shape[0]).d2 @ s)
    return float(np.sqrt(integral(p, d * d)))


def strip_affine(v):
    """Remove the affine part (gauge): endpoint values pinned to zero."""
    o = ops(v.shape[0])
    a = v[0]
    b = v[-1]
    return v - (a * (1.0 - o.x) + b * (1.0 + o.x)) / 2.0


def sobolev_gap(v_a, v_b):
    """Order-2 Sobolev gap minimized over the backend's automorphisms.

    The symmetry group available on the interval reduction is the
    reflection x -> -x together with the identity; the Lobatto grid is
    symmetric, so the reflection is an exact permutation, and it keeps the
    gauge (zero endpoint values).
    """
    o = ops(v_a.shape[0])
    best = np.inf
    a0 = strip_affine(v_a)
    b0 = strip_affine(v_b)
    for cand in (a0, a0[::-1]):
        d = cand - b0
        d1 = o.d1 @ d
        d2 = o.d2 @ d
        best = min(best, float(o.weights @ (d * d + d1 * d1 + d2 * d2)))
    return float(np.sqrt(best))


def futaki_pairing(p, dev, rows):
    """c int x (S - S_bar) dx for each multiple c of the circle generator.

    ``dev`` is S - S_bar.  The generator's Hamiltonian is the moment
    coordinate x, so the pairing is exact quadrature and needs no solve.
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
    scale = np.max(np.abs(o.q * (o.d2 @ v)))
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
