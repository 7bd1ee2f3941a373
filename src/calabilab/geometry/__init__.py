"""Metric states on the two symmetric reductions and pointwise geometry.

Two backends share one operation surface:

``torus``
    Conformal potentials on the square torus, spectral differentiation.
``toric1d``
    Symplectic-potential corrections on [-1, 1], Chebyshev collocation.

Each backend is one module providing the same names (README, "Backends"),
whose functions take the raw value grid of a state (phi or v).  The
functions here dispatch through ``_MODULES``, the one table that maps a
backend name to its module.

States are immutable value objects; every operation is a pure function of
its inputs and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

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
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _Potential:
    """Read-only value grid, validated by its backend module."""

    values: np.ndarray
    backend = None

    def __post_init__(self):
        vals = _freeze(self.values)
        object.__setattr__(self, "values", vals)
        ops = _MODULES[self.backend]
        n = vals.shape[0] if vals.ndim else 0
        if vals.shape != ops.grid_shape(n):
            raise ValueError(f"{self.backend} potential has shape "
                             f"{vals.shape}, not {ops.grid_shape(n)}")
        ops.check_resolution(n)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential contains non-finite values")
        ops.check_gauge(vals)

    @property
    def resolution(self):
        return self.values.shape[0]


class TorusPotential(_Potential):
    """Zero-mean Kahler potential on an N x N grid, N a power of two."""

    backend = TORUS
    phi = property(lambda self: self.values)


class ToricPotential(_Potential):
    """Smooth correction to the canonical potential on M Lobatto nodes."""

    backend = TORIC
    v = property(lambda self: self.values)


_POTENTIALS = {p.backend: p for p in (TorusPotential, ToricPotential)}


@dataclass(frozen=True)
class MetricState:
    """A point of the flow: one backend potential plus the flow time."""

    potential: "TorusPotential | ToricPotential"
    t: float = 0.0

    @property
    def backend(self):
        return self.potential.backend

    @property
    def resolution(self):
        return self.potential.resolution

    def values(self):
        """The raw potential grid (read-only view)."""
        return self.potential.values

    def with_values(self, values, t=None):
        """New state of the same backend from raw potential values."""
        t_new = self.t if t is None else float(t)
        return MetricState(type(self.potential)(values), t_new)


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


def state_of(backend, values, t=0.0):
    """The state of ``backend`` with the given raw values."""
    return MetricState(_POTENTIALS[backend](values), t)


def zero_state(backend, n, t=0.0):
    """The state whose raw values vanish: flat torus, round interval."""
    shape = backend_module(backend).grid_shape(n)
    return state_of(backend, np.zeros(shape), t)


def torus_state(phi, t=0.0):
    return state_of(TORUS, phi, t)


def toric_state(v, t=0.0):
    return state_of(TORIC, v, t)


def flat_state(n, t=0.0):
    return zero_state(TORUS, n, t)


def round_state(m, t=0.0):
    return zero_state(TORIC, m, t)


def conformal_factor(p, eps_pos=POSITIVITY_FLOOR):
    """h = 1 + lap0(phi) for a torus potential; NonKahler below the floor."""
    if isinstance(p, MetricState):
        p = p.potential
    if not isinstance(p, TorusPotential):
        raise TypeError("conformal_factor is defined on the torus backend")
    return ScalarField(torus.conformal_density(p.phi, eps_pos), TORUS)


def _ops(state):
    return _MODULES[state.backend]


def scalar_curvature(state, eps_pos=POSITIVITY_FLOOR):
    vals = _ops(state).scalar_curvature(state.values(), eps_pos=eps_pos)
    return ScalarField(vals, state.backend)


def average_scalar(state):
    """Topological mean of S: 0 on the torus, 2 on the toric reduction."""
    return _ops(state).average_scalar(state.values())


def volume(state, eps_pos=POSITIVITY_FLOOR):
    return _ops(state).volume(state.values(), eps_pos=eps_pos)


def calabi_energy(state, eps_pos=POSITIVITY_FLOOR):
    return _ops(state).calabi_energy(state.values(), eps_pos=eps_pos)


def laplacian_g(state, f, eps_pos=POSITIVITY_FLOOR):
    vals = f.values if isinstance(f, ScalarField) else np.asarray(f, float)
    out = _ops(state).laplacian(state.values(), vals, eps_pos=eps_pos)
    return ScalarField(out, state.backend)


def curvature_norms(state, eps_pos=POSITIVITY_FLOOR):
    """(sup |S|, sup |hess S|, sup |Rm|) with the package's conventions."""
    return _ops(state).norms(state.values(), eps_pos=eps_pos)


def scalar_probes(state, eps_pos=POSITIVITY_FLOOR):
    """Gradient and fourth-order sup norms of S used by smoothing probes."""
    return _ops(state).scalar_probes(state.values(), eps_pos=eps_pos)


def grid_integral(state, values, eps_pos=POSITIVITY_FLOOR):
    """Integral of nodal values against the metric volume form."""
    vals = values.values if isinstance(values, ScalarField) else values
    return _ops(state).integral(state.values(), vals, eps_pos=eps_pos)
