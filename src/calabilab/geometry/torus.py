"""Flat-torus backend: conformal Kahler metrics on the square torus [0, 2pi)^2.

A real potential grid ``phi`` with zero mean determines the metric through
the conformal density

    h = 1 + lap0(phi),

where ``lap0`` is the flat Laplacian with negative spectrum (lap0 cos x =
-cos x).  The metric is h * (dx^2 + dy^2).  Sign and factor conventions are
pinned by two states that double as tests: the flat state phi = 0 has
scalar curvature S = 0, and S is the Riemannian scalar curvature of the
conformal metric,

    S = -lap0(log h) / h,

so the single curvature component satisfies |Rm| = |S| / 2 (Gauss
curvature).  Derivatives are spectral; pointwise products, quotients and
logarithms act on nodal values, which keeps the integral identities

    volume = (2 pi)^2,     integral of S dV = 0

exact to rounding: both reduce to the vanishing of the zero mode of a
spectral Laplacian, and the second makes the mean of S the constant
``MEAN_SCALAR`` = 0.  The state-dependent entries take h itself, the base
field that ``geometry`` derives once per state, and the differential
kernels take the rfft2 spectrum of the field they differentiate
(``spectrum``), which ``geometry`` also keeps per state for phi and S.
"""

from numbers import Integral

import numpy as np

from ..errors import BadParams

FLOW_SIGN = 1.0  # the flow moves phi by S - S_bar itself
FIELD_DIM = 2  # holomorphic fields: the constant translations
BASE_NAME = "torus conformal density"  # what the positivity check reads
MEAN_SCALAR = 0.0  # topological mean of S (Gauss-Bonnet)
ZERO_PRESET = "flat"  # the preset whose potential vanishes

_GAUGE_TOL = 1e-9

_CACHE = {}


def check_resolution(n):
    """Raise ValueError unless n is a power of two in 8..4096."""
    if not isinstance(n, Integral) or not 8 <= n <= 4096 or n & (n - 1):
        raise ValueError(f"unsupported torus resolution {n}")


def grid_shape(n):
    return (n, n)


def check_gauge(phi):
    """Raise ValueError unless phi has zero mean to rounding."""
    mean = abs(float(phi.mean()))
    if mean > _GAUGE_TOL * (1.0 + float(np.max(np.abs(phi)))):
        raise ValueError(f"potential mean {mean:.3e} violates the gauge")


def _ops(n):
    """Cached wavenumber tables for an n x n grid (rfft2 layout)."""
    ops = _CACHE.get(n)
    if ops is None:
        kx = np.fft.fftfreq(n, d=1.0 / n)          # integers, full axis
        ky = np.arange(n // 2 + 1, dtype=float)    # rfft half axis
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        cut = n // 3                               # 2/3-rule mask
        mask = (np.abs(kx)[:, None] <= cut) & (ky[None, :] <= cut)
        for a in (kx, ky, k2, mask):
            a.setflags(write=False)
        ops = (kx, ky, k2, mask)
        _CACHE[n] = ops
    return ops


def spectrum(f):
    """The rfft2 half-spectrum the derivative kernels below read."""
    return np.fft.rfft2(f)


def _nodal(spec, n):
    return np.fft.irfft2(spec, s=(n, n))


def lap0(f):
    """Flat spectral Laplacian with negative spectrum."""
    n = f.shape[0]
    _, _, k2, _ = _ops(n)
    f_hat = spectrum(f)
    f_hat *= -k2
    return _nodal(f_hat, n)


def _grad0(f_hat):
    """Flat spectral gradient (f_x, f_y) from the spectrum of f."""
    n = f_hat.shape[0]
    kx, ky, _, _ = _ops(n)
    fx = _nodal(1j * kx[:, None] * f_hat, n)
    fy = _nodal(1j * ky[None, :] * f_hat, n)
    return fx, fy


def base_field(phi_hat):
    """Conformal density h = 1 + lap0(phi) from the spectrum of phi; Kahler
    where h is positive."""
    n = phi_hat.shape[0]
    _, _, k2, _ = _ops(n)
    h = _nodal(-k2 * phi_hat, n)
    h += 1.0
    return h


def scalar_curvature(phi_hat, h):
    """Riemannian scalar curvature of the metric h * (dx^2 + dy^2).

    It depends on phi only through h, so ``phi_hat`` is not read.
    """
    s = lap0(np.log(h))
    s /= h
    return np.negative(s, out=s)


def laplacian(h, f_hat):
    """Metric Laplacian lap_g f = lap0(f) / h from the spectrum of f."""
    _, _, k2, _ = _ops(h.shape[0])
    lap = _nodal(-k2 * f_hat, h.shape[0])
    lap /= h
    return lap


def grad_norm(h, f_hat):
    """Pointwise metric gradient norm |grad f|_g = sqrt(|grad0 f|^2 / h)
    from the spectrum of f."""
    fx, fy = _grad0(f_hat)
    fx *= fx
    fy *= fy
    fx += fy
    fx /= h
    return np.sqrt(fx, out=fx)


def cell_area(n):
    return (2.0 * np.pi / n) ** 2


def integral(h, values):
    """Integral of a nodal field against the metric volume form h dx dy."""
    n = h.shape[0]
    return cell_area(n) * float(np.sum(values * h))


def volume(h):
    n = h.shape[0]
    return cell_area(n) * float(np.sum(h))


def decay_rates(n):
    """k^4, the flat bi-Laplacian the flow step keeps implicit."""
    _, _, k2, _ = _ops(n)
    return k2 * k2


def velocity_modes(phi_hat, s_hat, h):
    """The dealiased velocity: S_hat on the 2/3-rule modes, and on the rest
    -k^4 phi_hat, which cancels the implicit part.  h is not read."""
    f = -decay_rates(phi_hat.shape[0]) * phi_hat
    np.copyto(f, s_hat, where=_ops(phi_hat.shape[0])[3])
    return f


def advance(phi, inc):
    """phi plus the field of spectrum inc (overwritten) without its zero
    mode, which keeps the gauge."""
    inc[0, 0] = 0.0
    out = _nodal(inc, phi.shape[0])
    out += phi
    return out


def scalar_evolution(h, s, laps):
    """Spatial side of the scalar-curvature evolution identity.

    Along the flow dphi/dt = S (this backend's normalization) a direct
    computation from S = -lap0(log h)/h and dh/dt = lap0(S) gives the exact
    identity

        dS/dt = -lap_g(lap_g S) - S * lap_g S,

    so the returned field is lap_g^2 S + S lap_g S, the quantity whose sum
    with dS/dt vanishes on exact solutions; ``laps()`` gives lap_g S and
    lap_g^2 S.  The reduction is frozen here and validated against a
    finite-difference oracle in the tests.
    """
    lap_s, bilap_s = laps()
    out = s * lap_s
    out += bilap_s
    return out


def extremality_residual(h, s):
    """L2 norm of dbar applied to the raised gradient field of S.

    The field g^{zz} S_{,zbar} d/dz has the single component
    (S_x + i S_y) / h; the residual vanishes exactly when that field is
    holomorphic, which characterizes extremal states.
    """
    sx, sy = _grad0(spectrum(s))
    xz = (sx + 1j * sy) / h
    xh = np.fft.fft2(xz)
    n = h.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    dzbar = 0.5 * np.fft.ifft2(
        1j * (k[:, None] * xh + 1j * k[None, :] * xh)
    )
    return float(np.sqrt(integral(h, np.abs(dzbar) ** 2)))


def sobolev_gap(a_hat, b_hat):
    """Order-2 Sobolev norm of the potential gap, minimized over the grid
    translations of the first potential; both are given as spectra.

    One spectral cross-correlation gives the squared gap at all n^2 grid
    translations at once; the untranslated value is taken directly, so
    identical grids give exactly 0.  The result bounds the infimum over
    continuous translations from above and equals it whenever the second
    potential is translation-invariant (the zero state).
    """
    n = a_hat.shape[0]
    _, _, k2, _ = _ops(n)
    wgt = (1.0 + k2) ** 2
    if not b_hat.any():  # every translation gives the same gap
        return float(np.sqrt(_weighted_power(wgt, a_hat, n)))
    # Parseval normalization: the norm is (2pi)^-2 int of the weighted
    # spectrum.  irfft2 reconstructs the conjugate half of the spectrum
    # itself, so the plain inverse transform sums the full correlation.
    diag = _weighted_power(wgt, a_hat, n) + _weighted_power(wgt, b_hat, n)
    cross = _nodal(wgt * a_hat * np.conj(b_hat), n)
    cross /= n * n
    cross *= -2.0
    cross += diag
    grid = max(float(np.min(cross)), 0.0)  # rounding floor
    return float(np.sqrt(min(grid, _weighted_power(wgt, a_hat - b_hat, n))))


def _half_weights(n):
    """How often each rfft2 column stands in the full spectrum (1 or 2)."""
    dup = np.ones(n // 2 + 1)
    dup[1:] = 2.0
    if n % 2 == 0:
        dup[-1] = 1.0
    return dup


def _weighted_power(wgt, spec, n):
    dup = _half_weights(n)
    return float(np.sum(wgt * dup[None, :] * np.abs(spec) ** 2)) / (n * n) ** 2


def futaki_pairing(h, phi_hat, dev, rows):
    """int V(f) dV for each constant field V = a d/dx + b d/dy in rows,
    where lap_g f = dev, read from the spectrum D_hat of h * dev: no solve.

    The integral is a sum over modes (Parseval): V(f) has the spectrum
    i (a k_x + b k_y) f_hat and h the spectrum n^2 delta_0 - k^2 phi_hat.
    V(f) has no constant mode, so only -k^2 phi_hat pairs with it, and
    Re(i k f_hat conj(-k^2 phi_hat)) = k k^2 Im(f_hat conj(phi_hat)).
    Since lap_g f = lap0(f) / h, k^2 f_hat = -D_hat, so the pairing is

        -(cell / n^2) sum_k (a k_x + b k_y) w_k Im(D_hat conj(phi_hat))

    with w_k the half-spectrum weights.  The mean of h * dev only moves
    the k = 0 mode, whose factor a*0 + b*0 drops it.
    """
    n = h.shape[0]
    kx, ky, _, _ = _ops(n)
    d_hat = spectrum(h * dev)
    cross = d_hat.real * phi_hat.imag
    cross -= d_hat.imag * phi_hat.real
    cross *= _half_weights(n)
    scale = cell_area(n) / (n * n)
    px = scale * float(kx @ cross.sum(axis=1))
    py = scale * float(cross.sum(axis=0) @ ky)
    return tuple(float(a * px + b * py) for a, b in rows)


def _seeded_potential(n, seed, amplitude, cut, decay):
    """Gaussian modes with 0 < |k| and |k_x|, k_y <= cut, scaled |k|^-decay.

    The amplitude is the sup-norm of lap0(phi), the quantity that decides
    positivity.
    """
    kx, ky, k2, _ = _ops(n)
    band = (np.abs(kx)[:, None] <= cut) & (ky[None, :] <= cut)
    band[0, 0] = False
    count = int(band.sum())
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    spec = np.zeros(band.shape, dtype=complex)
    spec[band] = draw / np.sqrt(k2[band]) ** decay
    phi = np.fft.irfft2(spec, s=(n, n))
    phi = phi - phi.mean()
    scale = np.max(np.abs(lap0(phi)))
    if scale == 0.0:
        raise BadParams("degenerate random draw")
    return phi * (amplitude / scale)


def random_potential(n, seed, amplitude, kmax=None):
    """Seeded band-limited potential, Fourier modes up to kmax (default 4).

    An N-point grid resolves |k_x|, k_y <= N/2; a larger kmax would give
    the kmax N/2 state, so it is refused.
    """
    cut = int(kmax) if kmax else 4
    if cut > n // 2:
        raise BadParams(f"kmax {kmax} exceeds {n // 2}, the highest mode "
                        f"an N={n} grid resolves")
    return _seeded_potential(n, seed, amplitude, cut, 0)


def rough_potential(n, seed, amplitude):
    """Seeded 1/|k| spectrum up to the 2/3-rule cutoff."""
    return _seeded_potential(n, seed, amplitude, n // 3, 1)
