"""Named initial conditions for runs and sweeps.

Random presets are seeded and normalized so that the named amplitude is
exactly the sup-norm of the quantity that controls metric positivity
(lap0 phi on the torus, (1-x^2) v'' on the interval).  Amplitude 1 is the
cone boundary, so admissible presets demand amplitude < 1; the refusal can
be overridden explicitly for left-cone experiments.
"""

import math
from numbers import Integral, Real

from . import geometry
from .errors import BadParams

SEEDED_PRESETS = ("random", "rough")
# One zero-state preset per backend, then the seeded ones.
PRESETS = tuple(geometry.backend_module(b).ZERO_PRESET
                for b in geometry.BACKENDS) + SEEDED_PRESETS

AMPLITUDE_LIMIT = 1.0


def build_initial(backend, resolution, spec):
    """Construct the initial state named by a manifest's ``initial`` block.

    ``spec`` keys: ``preset`` (flat | round | random | rough), ``seed``,
    ``amplitude``, optional ``kmax`` (``random`` only), and
    ``allow_overamplitude`` to relax the cone-margin validation.
    """
    if not isinstance(spec, dict):
        raise BadParams(f"initial must be a JSON object, not {spec!r}")
    spec = dict(spec)
    preset = spec.pop("preset", None)
    if preset not in PRESETS:
        raise BadParams(f"unknown preset {preset!r}")
    try:
        ops = geometry.backend_module(backend)
        ops.check_resolution(resolution)
    except ValueError as exc:
        raise BadParams(str(exc)) from None
    if preset not in SEEDED_PRESETS:
        _reject(spec)
        if preset != ops.ZERO_PRESET:
            raise BadParams(
                f"the {preset} preset does not live on the {backend} backend"
            )
        return geometry.zero_state(backend, resolution)
    seed = spec.pop("seed", 0)
    amplitude = spec.pop("amplitude", 0.1)
    kmax = spec.pop("kmax", None)
    override = spec.pop("allow_overamplitude", False)
    _reject(spec)
    if not _is_int(seed) or seed < 0:
        raise BadParams(f"seed must be an integer >= 0, not {seed!r}")
    if not (isinstance(amplitude, Real) and not isinstance(amplitude, bool)
            and 0 < amplitude < math.inf):
        raise BadParams(
            f"amplitude must be a finite number > 0, not {amplitude!r}")
    if kmax is not None and not (_is_int(kmax) and kmax >= 1):
        raise BadParams(f"kmax must be an integer >= 1, not {kmax!r}")
    if kmax is not None and preset == "rough":
        raise BadParams("kmax is a random-preset band limit; rough takes none")
    if not isinstance(override, bool):
        raise BadParams("allow_overamplitude must be true or false")
    if amplitude >= AMPLITUDE_LIMIT and not override:
        raise BadParams(
            f"amplitude {amplitude} reaches the cone boundary; pass "
            "allow_overamplitude to force it"
        )
    if preset == "random":
        vals = ops.random_potential(resolution, seed, amplitude, kmax)
    else:
        vals = ops.rough_potential(resolution, seed, amplitude)
    return geometry.MetricState(backend, vals)


def _is_int(value):
    return isinstance(value, Integral) and not isinstance(value, bool)


def _reject(spec):
    if spec:
        raise BadParams(f"unknown initial-condition keys {sorted(spec)}")
