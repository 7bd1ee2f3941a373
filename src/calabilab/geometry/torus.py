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
spectral Laplacian.  The state-dependent entries take h itself, the base
field that ``geometry`` derives once per state.
"""

from numbers import Integral

import numpy as np

from ..errors import BadParams, SolverFailure

FLOW_SIGN = 1.0  # the flow moves phi by S - S_bar itself
FIELD_DIM = 2  # holomorphic fields: the constant translations
BASE_NAME = "torus conformal density"  # what the positivity check reads
ZERO_PRESET = "flat"  # the preset whose potential vanishes

_GAUGE_TOL = 1e-9
FUTAKI_TOL = 1e-10  # certified residual of the Futaki Poisson solve

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


def lap0(f):
    """Flat spectral Laplacian with negative spectrum."""
    n = f.shape[0]
    _, _, k2, _ = _ops(n)
    return np.fft.irfft2(-k2 * np.fft.rfft2(f), s=f.shape)


def lap0_inv(f):
    """Solve lap0(u) = f for the zero-mean u (zero mode of f is dropped)."""
    n = f.shape[0]
    _, _, k2, _ = _ops(n)
    fh = np.fft.rfft2(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        uh = fh / (-k2)
    uh[0, 0] = 0.0
    return np.fft.irfft2(uh, s=f.shape)


def grad0(f):
    """Flat spectral gradient (f_x, f_y)."""
    n = f.shape[0]
    kx, ky, _, _ = _ops(n)
    fh = np.fft.rfft2(f)
    fx = np.fft.irfft2(1j * kx[:, None] * fh, s=f.shape)
    fy = np.fft.irfft2(1j * ky[None, :] * fh, s=f.shape)
    return fx, fy


def bilap0(f):
    """Flat spectral bi-Laplacian lap0(lap0(f))."""
    n = f.shape[0]
    _, _, k2, _ = _ops(n)
    return np.fft.irfft2(k2 * k2 * np.fft.rfft2(f), s=f.shape)


def base_field(phi):
    """Conformal density h = 1 + lap0(phi); Kahler where h is positive."""
    return 1.0 + lap0(phi)


def scalar_curvature(phi, h):
    """Riemannian scalar curvature of the metric h * (dx^2 + dy^2).

    It depends on phi only through h.
    """
    return -lap0(np.log(h)) / h


def laplacian(h, f):
    """Metric Laplacian lap_g f = lap0(f) / h."""
    return lap0(f) / h


def grad_norm(h, f):
    """Pointwise metric gradient norm |grad f|_g = sqrt(|grad0 f|^2 / h)."""
    fx, fy = grad0(f)
    return np.sqrt((fx * fx + fy * fy) / h)


def cell_area(n):
    return (2.0 * np.pi / n) ** 2


def integral(h, values):
    """Integral of a nodal field against the metric volume form h dx dy."""
    n = h.shape[0]
    return cell_area(n) * float(np.sum(values * h))


def volume(h):
    n = h.shape[0]
    return cell_area(n) * float(np.sum(h))


def average_scalar(h):
    """Topological mean of S: 0 on the torus (Gauss-Bonnet)."""
    return 0.0


def scalar_evolution(h, s):
    """Spatial side of the scalar-curvature evolution identity.

    Along the flow dphi/dt = S (this backend's normalization) a direct
    computation from S = -lap0(log h)/h and dh/dt = lap0(S) gives the exact
    identity

        dS/dt = -lap_g(lap_g S) - S * lap_g S,

    so the returned field is lap_g^2 S + S lap_g S, the quantity whose sum
    with dS/dt vanishes on exact solutions.  The reduction is frozen here
    and validated against a finite-difference oracle in the tests.
    """
    lg_s = laplacian(h, s)
    return laplacian(h, lg_s) + s * lg_s


def extremality_residual(h, s):
    """L2 norm of dbar applied to the raised gradient field of S.

    The field g^{zz} S_{,zbar} d/dz has the single component
    (S_x + i S_y) / h; the residual vanishes exactly when that field is
    holomorphic, which characterizes extremal states.
    """
    sx, sy = grad0(s)
    xz = (sx + 1j * sy) / h
    xh = np.fft.fft2(xz)
    n = h.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    dzbar = 0.5 * np.fft.ifft2(
        1j * (k[:, None] * xh + 1j * k[None, :] * xh)
    )
    return float(np.sqrt(integral(h, np.abs(dzbar) ** 2)))


def poisson_solve(h, rhs):
    """Solve lap_g f = rhs (zero-mean data) for the zero-mean potential f.

    The metric Laplacian factors exactly through the flat operator in this
    reduction: lap_g f = lap0(f)/h, so a single spectral inversion of
    h * rhs is the whole solve.  Returns (f, residual_sup).
    """
    data = h * rhs
    data = data - data.mean()
    f = lap0_inv(data)
    resid = float(np.max(np.abs(laplacian(h, f) - data / h)))
    return f, resid


def sobolev_gap(phi_a, phi_b):
    """Order-2 Sobolev norm of the potential gap, minimized over the grid
    translations of phi_a.

    One spectral cross-correlation gives the squared gap at all n^2 grid
    translations at once; the untranslated value is taken directly, so
    identical grids give exactly 0.  The result bounds the infimum over
    continuous translations from above and equals it whenever phi_b is
    translation-invariant (the zero state).
    """
    n = phi_a.shape[0]
    _, _, k2, _ = _ops(n)
    wgt = (1.0 + k2) ** 2
    fa = np.fft.rfft2(phi_a)
    fb = np.fft.rfft2(phi_b)
    # Parseval normalization: the norm is (2pi)^-2 int of the weighted
    # spectrum.  irfft2 reconstructs the conjugate half of the spectrum
    # itself, so the plain inverse transform sums the full correlation.
    diag = _weighted_power(wgt, fa, n) + _weighted_power(wgt, fb, n)
    cross = np.fft.irfft2(wgt * fa * np.conj(fb), s=(n, n)) / (n * n)
    grid = max(float(np.min(diag - 2.0 * cross)), 0.0)  # rounding floor
    return float(np.sqrt(min(grid, _weighted_power(wgt, fa - fb, n))))


def _weighted_power(wgt, spec, n):
    dup = np.ones(n // 2 + 1)
    dup[1:] = 2.0
    if n % 2 == 0:
        dup[-1] = 1.0
    return float(np.sum(wgt * dup[None, :] * np.abs(spec) ** 2)) / (n * n) ** 2


def futaki_pairing(h, dev, rows):
    """int V(f) dV for each constant field V = a d/dx + b d/dy in rows,
    where lap_g f = dev = S - S_bar; SolverFailure unless the solve's
    residual is within FUTAKI_TOL * max(1, sup |dev|).
    """
    f, resid = poisson_solve(h, dev)
    if resid > FUTAKI_TOL * max(1.0, float(np.max(np.abs(dev)))):
        raise SolverFailure(
            f"scalar potential solve residual {resid:.3e} exceeds "
            f"{FUTAKI_TOL:.1e}"
        )
    fx, fy = grad0(f)
    return tuple(integral(h, a * fx + b * fy) for a, b in rows)


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
