"""Metric states on the two symmetric reductions and pointwise geometry.

Two backends share one operation surface:

``torus``
    Conformal potentials on the square torus, spectral differentiation.
``toric1d``
    Symplectic-potential corrections on [-1, 1], Chebyshev collocation.

Each backend is one module providing the same names (README, "Backends").
The functions here dispatch through ``_MODULES``, the one table that maps a
backend name to its module, and the curvature norms, the smoothing probes
and the Calabi energy are written once here, over the backend's
``laplacian``, ``grad_norm`` and ``integral``.  The class fixes the mean
S_bar, so it is the backend's constant ``MEAN_SCALAR``.

A state is a backend name, the backend's value grid (torus phi, toric v)
and the flow time.  It derives eight things on first use and keeps them:
the spectrum of its values (the form the backend's differential kernels
read: the torus rfft2 half-spectrum, the toric ``Form`` that keeps the
values and their derivatives once taken),
its base field (torus h = 1 + lap0(phi), toric 1 + (1-x^2) v''), its
scalar curvature S, the spectrum of S, lap_g S and lap_g(lap_g S) (the
curvature norms and the smoothing probes read them), the spatial side E
of the scalar evolution identity (built from both; the evolution residual
reads it at each end of a step) and its Calabi energy.  Every caller
reads these, so each is computed once per state.  A cached spectrum is
always the transform of the state's own values, so a state read back
from a checkpoint derives the same bits as the one that was written.  A
caller that keeps a state for only some of these can ``forget`` the
others.  The cached arrays are read-only and take no part in equality or
``repr``.  States are otherwise immutable value objects, and every
operation is a pure function of its inputs and safe to call concurrently:
a cache fill is idempotent, so two threads that fill the same entry store
the same bits.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import NonKahler
from . import toric, torus

TORUS = "torus"
TORIC = "toric1d"

_MODULES = {TORUS: torus, TORIC: toric}
BACKENDS = tuple(_MODULES)

POSITIVITY_FLOOR = 1e-8


def backend_module(backend):
    """The operations module of a backend name; ValueError if unknown."""
    try:
        return _MODULES[backend]
    except (KeyError, TypeError):
        raise ValueError(f"unknown backend {backend!r}") from None


def _freeze(a):
    """A read-only float array no caller can write through.

    An array that is already read-only and owns its memory (a state's
    cached S) is kept as it is; anything else is copied, so the caller's
    own array stays writable.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == float
            and a.flags.c_contiguous and a.flags.owndata
            and not a.flags.writeable):
        a = np.array(a, dtype=float, order="C")
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MetricState:
    """A point of the flow: a backend name, its value grid and the time.

    The grid is kept as the state's own read-only float copy, so the
    caller's array stays writable and later writes to it (or to the array
    it views) cannot reach the state or its cached S and energy.  The
    backend's module validates it: its shape, the resolution, finiteness
    and the gauge.  Two states are equal when backend, time and grid values
    are.  An unknown backend name is a ValueError.
    """

    backend: str
    values: np.ndarray
    t: float = 0.0
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        ops = backend_module(self.backend)
        vals = np.array(self.values, dtype=float, order="C")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        n = vals.shape[0] if vals.ndim else 0
        if vals.shape != ops.grid_shape(n):
            raise ValueError(f"{self.backend} potential has shape "
                             f"{vals.shape}, not {ops.grid_shape(n)}")
        ops.check_resolution(n)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential contains non-finite values")
        ops.check_gauge(vals)

    def __eq__(self, other):
        if not isinstance(other, MetricState):
            return NotImplemented
        return (self.backend == other.backend and self.t == other.t
                and np.array_equal(self.values, other.values))

    @property
    def resolution(self):
        return self.values.shape[0]

    def with_values(self, values, t=None):
        """New state of the same backend from raw potential values."""
        t_new = self.t if t is None else float(t)
        return MetricState(self.backend, values, t_new)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued samples on the owning backend's grid."""

    values: np.ndarray
    backend: str

    def __post_init__(self):
        vals = _freeze(self.values)
        object.__setattr__(self, "values", vals)
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("scalar field contains non-finite values")


def zero_state(backend, n, t=0.0):
    """The state whose raw values vanish: flat torus, round interval."""
    shape = backend_module(backend).grid_shape(n)
    return MetricState(backend, np.zeros(shape), t)


def torus_state(phi, t=0.0):
    return MetricState(TORUS, phi, t)


def toric_state(v, t=0.0):
    return MetricState(TORIC, v, t)


def flat_state(n, t=0.0):
    return zero_state(TORUS, n, t)


def round_state(m, t=0.0):
    return zero_state(TORIC, m, t)


def _ops(state):
    return _MODULES[state.backend]


_DERIVED = ("spectrum", "base", "scalar", "scalar_spectrum", "lap_scalar",
            "bilap_scalar", "evolution", "energy")


def _derive(state, key, compute):
    """``compute(state)``, kept in the state's cache; arrays read-only."""
    value = state._derived.get(key)
    if value is None:
        value = compute(state)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        state._derived[key] = value
    return value


def forget(state, *keys):
    """Drop derived quantities a caller will not read again from the
    state's cache, which frees their arrays.

    The keys are the cache's: ``spectrum``, ``base``, ``scalar``,
    ``scalar_spectrum``, ``lap_scalar``, ``bilap_scalar``, ``evolution``
    and ``energy``.  One that is read after all is derived again, to the
    same bits.
    """
    unknown = set(keys) - set(_DERIVED)
    if unknown:
        raise ValueError(f"no derived quantities {sorted(unknown)}")
    for key in keys:
        state._derived.pop(key, None)


def spectrum(state):
    """The backend's transform of the state's values (torus phi_hat)."""
    return _derive(state, "spectrum", lambda st: _ops(st).spectrum(st.values))


def _checked_base(state):
    ops = _ops(state)
    base = ops.base_field(spectrum(state))
    # Written so that non-finite values also fail.
    if not (base.min() > POSITIVITY_FLOOR):
        raise NonKahler(f"{ops.BASE_NAME} min {base.min():.3e} <= floor "
                        f"{POSITIVITY_FLOOR:.1e}")
    return base


def base_field(state):
    """The positive field the curvature formulas divide by.

    Torus h = 1 + lap0(phi), toric 1 + (1-x^2) v''; NonKahler when its
    minimum is not above the floor.
    """
    return _derive(state, "base", _checked_base)


def _scalar(state):
    return _derive(state, "scalar", lambda st: _ops(st).scalar_curvature(
        spectrum(st), base_field(st)))


def scalar_curvature(state):
    return ScalarField(_scalar(state), state.backend)


def scalar_spectrum(state):
    """The backend's transform of S (torus S_hat)."""
    return _derive(state, "scalar_spectrum",
                   lambda st: _ops(st).spectrum(_scalar(st)))


def average_scalar(state):
    """Topological mean of S, fixed by the class: the backend's
    ``MEAN_SCALAR`` (0 on the torus, 2 on the toric reduction)."""
    return _ops(state).MEAN_SCALAR


def volume(state):
    return _ops(state).volume(base_field(state))


def _energy(state):
    d = _scalar(state) - average_scalar(state)
    return grid_integral(state, d * d)


def calabi_energy(state):
    """int (S - S_bar)^2 dV."""
    return _derive(state, "energy", _energy)


def _lap_scalar(state):
    """lap_g S, read by both the curvature norms and the smoothing probes."""
    return _derive(state, "lap_scalar", lambda st: _ops(st).laplacian(
        base_field(st), scalar_spectrum(st)))


def _bilap_scalar(state):
    return _derive(state, "bilap_scalar", lambda st: _ops(st).laplacian(
        base_field(st), _ops(st).spectrum(_lap_scalar(st))))


def _evolution(state):
    return _ops(state).scalar_evolution(
        base_field(state), _scalar(state),
        lambda: (_lap_scalar(state), _bilap_scalar(state)))


def scalar_evolution(state):
    """The backend's spatial side E of the scalar evolution identity,
    dS/dt + E = 0 along the flow (torus lap_g^2 S + S lap_g S).  The
    backend gets lap_g S and lap_g(lap_g S) as a call that derives them,
    so a form that does not read them (the toric one) derives neither."""
    return _derive(state, "evolution", _evolution)


def curvature_norms(state):
    """(sup |S|, sup |hess S|, sup |Rm|) with the package's conventions.

    The Hessian norm is the pointwise modulus of the single mixed second
    derivative with indices raised, |lap_g S| / 2, and |Rm| = |S| / 2 in
    this dimension.  Both constants are convention choices shared by every
    operation in the package.
    """
    sup_s = float(np.max(np.abs(_scalar(state))))
    sup_lap = float(np.max(np.abs(_lap_scalar(state))))
    return sup_s, 0.5 * sup_lap, 0.5 * sup_s


def scalar_probes(state):
    """(sup |grad S|_g, sup of the iterated mixed second derivative of S).

    The second iterates the raised mixed derivative twice,
    |lap_g(lap_g S)| / 4, the fourth-order quantity paired with the
    Hessian norm in the smoothing-rate probes.
    """
    sup_grad = float(np.max(_ops(state).grad_norm(
        base_field(state), scalar_spectrum(state))))
    return sup_grad, 0.25 * float(np.max(np.abs(_bilap_scalar(state))))


def grid_integral(state, values):
    """Integral of a nodal array against the metric volume form."""
    return _ops(state).integral(base_field(state), values)
