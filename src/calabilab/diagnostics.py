"""Per-state and cross-step diagnostics recorded along flow trajectories.

Each sample stores the three sup-norm curvature envelopes (sup |S|,
sup |hess S|, sup |Rm|), the energy, volume and average scalar curvature,
two higher-derivative smoothing probes, the Futaki pairing over the
backend's holomorphic basis fields, and, when the extra inputs are
available, the discrete scalar-evolution residual and an
automorphism-minimized Sobolev gap to a reference state.
"""

from typing import NamedTuple

import numpy as np

from . import geometry


class DiagnosticsSample(NamedTuple):
    """One timestamped diagnostics record: a tuple in file-schema order,
    ``None`` where an optional field is blank."""

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


SAMPLE_SCHEMA = DiagnosticsSample._fields

# The fields a sample may leave blank (``None``; a blank mask in a trace file).
OPTIONAL_FIELDS = tuple(DiagnosticsSample._field_defaults)


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
    its own closed formula; neither solves for the potential f with
    lap_g f = S - S_bar (the torus reads one transform of h (S - S_bar)).
    A row of the wrong length raises ValueError.
    """
    s = geometry.scalar_curvature(state).values
    dev = s - geometry.average_scalar(state)
    return geometry.backend_module(state.backend).futaki_pairing(
        geometry.base_field(state), geometry.spectrum(state), dev, rows)


def evolution_residual(s_prev, s_next, dt):
    """Sup-norm defect of the scalar-curvature evolution identity.

    The trapezoid rule over the step, max |(S1 - S0) / dt + (E0 + E1) / 2|,
    second order in dt: E is the backend's spatial side of dS/dt + E = 0,
    which each state keeps (``geometry.scalar_evolution``), so a sampled
    state costs nothing as the next sample's ``s_prev``.  The per-backend
    spatial reductions are frozen in the geometry modules and validated
    against finite-difference oracles in the tests.  ValueError unless the
    states share a backend and a resolution and dt is finite and > 0.
    """
    if s_prev.backend != s_next.backend:
        raise ValueError("states live on different backends")
    if s_prev.resolution != s_next.resolution:
        raise ValueError("states have different resolutions")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, not {dt!r}")
    out = geometry.scalar_curvature(s_next).values - \
        geometry.scalar_curvature(s_prev).values
    out /= dt
    out += 0.5 * (geometry.scalar_evolution(s_prev)
                  + geometry.scalar_evolution(s_next))
    return float(np.max(np.abs(out)))


def automorphism_gap(state, reference):
    """Order-2 Sobolev gap minimized over the backend's automorphisms.

    Torus: the exact minimum over all grid translations, from one spectral
    correlation of the two states' cached spectra.  Toric: the smaller of
    the identity and the reflection x -> -x.  Gauge-fixed on both sides,
    so the value vanishes identically on pairs that differ by a pure gauge
    transformation.
    """
    if state.backend != reference.backend:
        raise ValueError("states live on different backends")
    if state.resolution != reference.resolution:
        raise ValueError("states have different resolutions")
    return geometry.backend_module(state.backend).sobolev_gap(
        geometry.spectrum(state), geometry.spectrum(reference))


def sample(state, prev=None, dt=None, reference=None):
    """Assemble the full diagnostics record for one state.

    ``prev``/``dt`` fill the cross-step evolution residual; ``reference``
    fills the automorphism gap.  The futaki field stores the largest
    magnitude of the pairing over the backend's basis fields.

    The fields that read only what the step derived for ``state`` come
    first, which keeps the peak memory of a sample down.  The evolution
    residual then derives lap_g S, lap_g(lap_g S) and E for ``state`` (and
    for ``prev`` if no one did), and the norms and probes reuse the first
    two: 7 FFTs on the torus when ``prev`` has its E, one of them the
    Futaki pairing's transform of h (S - S_bar).
    """
    fut = max(map(abs, futaki(state, basis_fields(state.backend))),
              default=0.0)
    gap = None if reference is None else automorphism_gap(state, reference)
    evo = None
    if prev is not None:
        if dt is None:
            dt = state.t - prev.t
        evo = evolution_residual(prev, state, dt)
    sup_s, sup_hess, sup_rm = geometry.curvature_norms(state)
    sup_grad, sup_bihess = geometry.scalar_probes(state)
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
