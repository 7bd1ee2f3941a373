"""Per-state and cross-step diagnostics recorded along flow trajectories.

Each sample stores the three sup-norm curvature envelopes (sup |S|,
sup |hess S|, sup |Rm|), the energy, volume and average scalar curvature,
two higher-derivative smoothing probes, and, when the extra inputs are
available, the discrete scalar-evolution residual, the Futaki pairing over
the backend's holomorphic basis fields, and an automorphism-minimized
Sobolev gap to a reference state.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .errors import DomainError, SolverFailure


@dataclass(frozen=True)
class DiagnosticsSample:
    """One timestamped diagnostics record; field order is the file schema."""

    t: float
    sup_scalar: float
    sup_hess_scalar: float
    sup_curv: float
    calabi_energy: float
    volume: float
    mean_scalar: float
    sup_grad_scalar: float
    sup_bihess_scalar: float
    evolution_residual: "float | None" = None
    futaki: "float | None" = None
    aut_gap: "float | None" = None


SAMPLE_SCHEMA = tuple(f.name for f in fields(DiagnosticsSample))

# The fields a sample may leave blank (``None``; ``-`` in a trace file).
OPTIONAL_FIELDS = tuple(f.name for f in fields(DiagnosticsSample)
                        if f.default is None)


def basis_fields(backend):
    """The coefficient rows of the backend's fixed holomorphic field basis.

    Torus: two real constants (the translation fields).  Toric: one real
    constant scaling the circle-action generator, which acts trivially on
    invariant functions.
    """
    return np.eye(geometry.backend_module(backend).FIELD_DIM)


def futaki(state, rows):
    """Futaki pairings of the class with holomorphic fields, one per row
    of coefficients against the backend's basis (see ``basis_fields``).

    The backend's ``futaki_pairing`` pairs S - S_bar with each field by
    its own formula; only the torus one needs a potential f with
    lap_g f = S - S_bar, and it raises SolverFailure if f is uncertified.
    A row of the wrong length raises ValueError.
    """
    s = geometry.scalar_curvature(state).values
    dev = s - geometry.average_scalar(state)
    return geometry.backend_module(state.backend).futaki_pairing(
        geometry.base_field(state), dev, rows)


def evolution_residual(s_prev, s_next, dt):
    """Sup-norm defect of the scalar-curvature evolution identity.

    The time derivative is the centered quotient of the two curvatures;
    the spatial side is evaluated on the midpoint state (whose positivity
    is implied by the endpoints': the density is affine in the potential).
    The per-backend spatial reductions are frozen in the geometry modules
    and validated against finite-difference oracles in the tests.
    """
    if s_prev.backend != s_next.backend or dt <= 0:
        raise ValueError("need two same-backend states and dt > 0")
    s0 = geometry.scalar_curvature(s_prev).values
    s1 = geometry.scalar_curvature(s_next).values
    mid = s_prev.with_values(0.5 * (s_prev.values + s_next.values))
    spatial = geometry.backend_module(mid.backend).scalar_evolution(
        geometry.base_field(mid), geometry.scalar_curvature(mid).values)
    return float(np.max(np.abs((s1 - s0) / dt + spatial)))


def automorphism_gap(state, reference):
    """Order-2 Sobolev gap minimized over the backend's automorphisms.

    Torus: the exact minimum over all grid translations, from one spectral
    correlation.  Toric: the smaller of the identity and the reflection
    x -> -x.  Gauge-fixed on both sides, so the value vanishes identically
    on pairs that differ by a pure gauge transformation.
    """
    if state.backend != reference.backend:
        raise ValueError("states live on different backends")
    if state.resolution != reference.resolution:
        raise ValueError("states have different resolutions")
    return geometry.backend_module(state.backend).sobolev_gap(
        state.values, reference.values)


def sample(state, prev=None, dt=None, reference=None):
    """Assemble the full diagnostics record for one state.

    ``prev``/``dt`` fill the cross-step evolution residual; ``reference``
    fills the automorphism gap.  The futaki field stores the largest
    magnitude of the pairing over the backend's basis fields; it is left
    empty when the torus scalar-potential solve cannot certify its
    tolerance at the state's resolution (the field is optional, and a
    rough transient must not abort a recording run).
    """
    sup_s, sup_hess, sup_rm = geometry.curvature_norms(state)
    sup_grad, sup_bihess = geometry.scalar_probes(state)
    try:
        fut = max(map(abs, futaki(state, basis_fields(state.backend))),
                  default=0.0)
    except SolverFailure:
        fut = None
    evo = None
    if prev is not None:
        if dt is None:
            dt = state.t - prev.t
        evo = evolution_residual(prev, state, dt)
    gap = None if reference is None else automorphism_gap(state, reference)
    return DiagnosticsSample(
        t=float(state.t),
        sup_scalar=sup_s,
        sup_hess_scalar=sup_hess,
        sup_curv=sup_rm,
        calabi_energy=geometry.calabi_energy(state),
        volume=geometry.volume(state),
        mean_scalar=geometry.average_scalar(state),
        sup_grad_scalar=sup_grad,
        sup_bihess_scalar=sup_bihess,
        evolution_residual=evo,
        futaki=fut,
        aut_gap=gap,
    )


@dataclass(frozen=True)
class SmoothingProbe:
    """Fitted smoothing constants and the companion interpolation ratio."""

    constants: dict
    interp_ratio_sup: float


def smoothing_probe(trace, bound):
    """Empirical constants in the derivative-smoothing envelope.

    For each derivative order l the probe returns the largest sampled value
    of sup |grad^l Rm|(t) divided by (bound + (t - t_start)^(-1/2))^(1+l/2);
    finiteness and stability of these constants under refinement is the
    testable content.  Numerators use |grad Rm| = |grad S|/2 and
    |grad^2 Rm| = |hess S|/2, the dimension-one reductions.  Raises
    DomainError when sup |Rm| exceeds the assumed bound anywhere, since the
    envelope's hypothesis fails there.  The interpolation ratio
    sup |hess S| / sup |S|^(1/2) is logged alongside.
    """
    col = trace.columns
    t, q = col["t"], col["sup_curv"]
    if t.size < 2:
        raise DomainError("smoothing probe needs at least two samples")
    worst = float(np.max(q))
    if worst > bound * (1.0 + 1e-12):
        raise DomainError(
            f"curvature bound violated: sup |Rm| = {worst:.3e} > {bound:.3e}"
        )
    tau = t - t[0]
    later = tau > 0.0
    envelope = bound + tau[later] ** -0.5
    constants = {}
    for order in (1, 2):
        num = 0.5 * col["sup_grad_scalar" if order == 1
                        else "sup_hess_scalar"][later]
        constants[order] = float(np.max(
            num / envelope ** (1.0 + order / 2.0), initial=0.0))
    o, p = col["sup_scalar"], col["sup_hess_scalar"]
    curved = o > 1e-300
    ratio = float(np.max(p[curved] / o[curved] ** 0.5, initial=0.0))
    return SmoothingProbe(constants=constants, interp_ratio_sup=ratio)
