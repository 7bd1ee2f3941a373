"""Numerical laboratory for the Calabi flow on symmetric Kahler reductions.

Simulate the fourth-order scalar-curvature flow on two desk-scale
backends (conformal torus potentials, toric interval potentials), record
curvature diagnostics along trajectories, and analyze the recorded traces
with the regularity-scale calculus: curvature scale, doubling
statistics, growth bounds, barrier checks and blow-up rates.
"""

from .errors import (
    BadParams,
    CalabiLabError,
    CorruptFile,
    DomainError,
    NonKahler,
    SchemaMismatch,
    VersionMismatch,
)
from .flow import FlowConfig, RunResult, StepResult, run, step
from .geometry import (
    MetricState,
    flat_state,
    round_state,
    toric_state,
    torus_state,
)
from .scale import Trace, curvature_scale, rescale_trace, synthetic_trace

__version__ = "0.1.0"

__all__ = [
    "BadParams", "CalabiLabError", "CorruptFile", "DomainError",
    "FlowConfig", "MetricState", "NonKahler", "RunResult", "SchemaMismatch",
    "StepResult", "Trace", "VersionMismatch",
    "curvature_scale", "flat_state", "rescale_trace", "round_state", "run",
    "step", "synthetic_trace", "toric_state", "torus_state",
]
