"""Semi-implicit time integration of the fourth-order scalar-curvature flow.

The potential moves by the deviation of scalar curvature from its
topological mean (``rhs``).  ``step`` writes the update once over each
backend's modes, implicit in the stiff linear part the backend freezes
(the flat bi-Laplacian on the torus, the round-state operator on the
interval) and explicit in the rest.  Steps are accepted only when the
energy does not rise beyond the configured tolerance: the gradient-flow
structure itself is the acceptance oracle, which is the one property the
continuum flow guarantees unconditionally.

The adaptive driver halves the step on rejection, doubles it after eight
consecutive acceptances, records diagnostics on a fixed flow-time cadence,
and checkpoints enough engine state (step size, streak, sampling cursors)
that resuming reproduces the uninterrupted run bit for bit.
"""

import math
import numbers
import os
import sys
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import diagnostics, geometry, traceio
from .errors import CorruptFile, NonKahler, SchemaMismatch
from .geometry import MetricState
from .scale import Trace

ACCEPT_STREAK = 8

# ``run`` advances its sample and checkpoint cursors one interval at a
# time, so a step of dt_max costs up to dt_max / interval additions.
MAX_INTERVALS_PER_STEP = 2 ** 20


@dataclass(frozen=True)
class FlowConfig:
    backend: str
    resolution: int
    dt_init: float
    dt_min: float
    dt_max: float
    t_end: float
    sample_interval: float
    energy_tol: float = 0.0
    stop_energy: float = 0.0
    checkpoint_interval: float = 0.0

    def __post_init__(self):
        ops = geometry.backend_module(self.backend)
        # Every field after backend and resolution is a time or tolerance.
        # The bound is false for nan, infinities and ints beyond a double.
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max
                   for v in astuple(self)[2:]):
            raise ValueError(
                "config times and tolerances must be finite real numbers")
        if not 0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        for name in ("sample_interval", "checkpoint_interval"):
            interval = getattr(self, name)
            if interval > 0 and (
                    self.t_end + interval == self.t_end
                    or self.dt_max / interval > MAX_INTERVALS_PER_STEP):
                raise ValueError(
                    f"{name} {interval!r} is too small: it must move a "
                    f"time of t_end {self.t_end!r}, and a step of dt_max "
                    f"{self.dt_max!r} may span at most "
                    f"{MAX_INTERVALS_PER_STEP} of it")
        ops.check_resolution(self.resolution)

    def initial_state(self):
        return geometry.zero_state(self.backend, self.resolution)


@dataclass(frozen=True)
class StepResult:
    new_state: MetricState
    dt_used: float
    accepted: bool
    energy_delta: float
    energy_before: float
    energy_after: float


@dataclass
class EngineState:
    """Adaptive-driver state; checkpointed for bit-exact resume."""

    dt: float
    streak: int
    next_sample_t: float
    next_checkpoint_t: float
    checkpoint_index: int

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(dt=float(d["dt"]), streak=int(d["streak"]),
                   next_sample_t=float(d["next_sample_t"]),
                   next_checkpoint_t=float(d["next_checkpoint_t"]),
                   checkpoint_index=int(d["checkpoint_index"]))


def rhs(state):
    """Time derivative of the evolving potential field."""
    s = geometry.scalar_curvature(state).values
    sbar = geometry.average_scalar(state)
    sign = geometry.backend_module(state.backend).FLOW_SIGN
    return geometry.ScalarField(sign * (s - sbar), state.backend)


def extremality_residual(state):
    """L2 size of the holomorphy defect of the gradient field of S."""
    return geometry.backend_module(state.backend).extremality_residual(
        geometry.base_field(state), geometry.scalar_curvature(state).values)


def lu_factor(a):
    """``scipy.linalg.lu_factor(a)``; no caller in the package.

    Kept, with ``lu_solve``, for the benchmark harness: ``bench/tracer.py``
    wraps both names at install and fails when either is gone.  ROADMAP
    item 1's harness change removes them.
    """
    from scipy.linalg import lu_factor as factor
    return factor(a)


def lu_solve(lu_and_piv, b):
    """``scipy.linalg.lu_solve(lu_and_piv, b)``; kept like ``lu_factor``."""
    from scipy.linalg import lu_solve as solve
    return solve(lu_and_piv, b)


def step(state, dt, energy_tol=0.0):
    """One semi-implicit step with energy-monotone acceptance.

    The values move by the field whose modes are dt f / (1 + dt lam): f
    the backend's modes of ``rhs``, lam the decay rates of the linear part
    it keeps implicit.  ValueError unless dt is finite and > 0.  Raises
    NonKahler when the updated state leaves the cone; the caller should
    retry with a smaller step.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, not {dt!r}")
    ca_old = geometry.calabi_energy(state)
    ops = geometry.backend_module(state.backend)
    inc = ops.velocity_modes(geometry.spectrum(state),
                             geometry.scalar_spectrum(state),
                             geometry.base_field(state))
    rate = dt * ops.decay_rates(state.resolution)
    rate += 1.0
    inc *= np.divide(dt, rate, out=rate)
    new_state = state.with_values(ops.advance(state.values, inc),
                                  t=state.t + dt)
    # Freed before the new state derives its fields (a step's peak); also
    # freeing ``rate`` measured more page faults (heap trimmed and regrown).
    del inc
    ca_new = geometry.calabi_energy(new_state)
    delta = ca_new - ca_old
    accepted = bool(delta <= energy_tol) and bool(np.isfinite(ca_new))
    return StepResult(new_state=new_state, dt_used=dt, accepted=accepted,
                      energy_delta=delta, energy_before=ca_old,
                      energy_after=ca_new)


@dataclass(frozen=True)
class RunResult:
    trace: Trace
    final_state: MetricState
    engine: EngineState
    reason: str


def run(cfg, state0, checkpoint_dir=None, on_accept=None, engine=None):
    """Adaptive flow integration producing a diagnostics trace.

    ``engine=None`` starts a fresh run (an initial sample is emitted at
    the start time); passing the engine state restored from a checkpoint
    resumes the run and reproduces the uninterrupted sample stream from
    that point on, bit for bit.  ``on_accept(state, step_result)`` fires
    after every accepted step.
    """
    _check_state(cfg, state0)
    cfg_hash = traceio.config_hash(asdict(cfg))
    reference = cfg.initial_state()
    state = state0
    t_start = state.t
    resumed = engine is not None
    if engine is None:
        first_ckpt = (state.t + cfg.checkpoint_interval
                      if cfg.checkpoint_interval > 0 else math.inf)
        engine = EngineState(dt=cfg.dt_init, streak=0, next_sample_t=state.t,
                             next_checkpoint_t=first_ckpt, checkpoint_index=0)
    samples = []
    last_sample_t = -math.inf

    def emit(cur, prev, dt_used):
        nonlocal last_sample_t
        samples.append(
            diagnostics.sample(cur, prev=prev, dt=dt_used, reference=reference)
        )
        last_sample_t = cur.t
        geometry.forget(cur, "lap_scalar", "bilap_scalar")

    if not resumed and engine.next_sample_t <= state.t:
        emit(state, None, None)
        engine.next_sample_t = state.t + cfg.sample_interval

    current_ca = geometry.calabi_energy(state)
    termination = None
    reason = ""
    while termination is None:
        if cfg.stop_energy > 0 and current_ca <= cfg.stop_energy:
            termination, reason = "stop_energy", "energy target reached"
            break
        remaining = cfg.t_end - state.t
        if remaining <= 1e-12 * max(1.0, abs(cfg.t_end)):
            termination, reason = "completed", "reached t_end"
            break
        dt_eff = min(engine.dt, remaining)
        try:
            res = step(state, dt_eff, energy_tol=cfg.energy_tol)
            rejection = None if res.accepted else (
                "error", f"energy change {res.energy_delta:.3e} exceeds "
                f"energy_tol {cfg.energy_tol:.3e} at the minimum step")
        except NonKahler as exc:
            rejection = ("left_cone",
                         f"positivity lost at minimum step: {exc}")
        if rejection is not None:
            if engine.dt <= cfg.dt_min * (1.0 + 1e-12):
                termination, reason = rejection
                break
            engine.dt = max(0.5 * engine.dt, cfg.dt_min)
            engine.streak = 0
            continue
        # From here on the step's start state is read only as the sample's
        # ``prev``, for its S and E.  When a sample is due, E is derived now
        # (unless a sample of the state did) while the state's base field
        # and S_hat are still cached; the rest of the cache is dropped.
        prev, state = state, res.new_state
        sampled = state.t >= engine.next_sample_t
        if sampled:
            geometry.scalar_evolution(prev)
        geometry.forget(prev, "spectrum", "base", "scalar_spectrum",
                        "lap_scalar", "bilap_scalar")
        current_ca = res.energy_after
        engine.streak += 1
        if on_accept is not None:
            on_accept(state, res)
        if engine.streak >= ACCEPT_STREAK and engine.dt < cfg.dt_max:
            engine.dt = min(2.0 * engine.dt, cfg.dt_max)
            engine.streak = 0
        if sampled:
            emit(state, prev, res.dt_used)
            while engine.next_sample_t <= state.t:
                engine.next_sample_t += cfg.sample_interval
        if checkpoint_dir is not None and state.t >= engine.next_checkpoint_t:
            while engine.next_checkpoint_t <= state.t:
                engine.next_checkpoint_t += cfg.checkpoint_interval
            engine.checkpoint_index += 1
            path = os.path.join(
                checkpoint_dir, f"checkpoint_{engine.checkpoint_index:04d}.ckpt"
            )
            traceio.write_checkpoint(state, engine.to_dict(), cfg_hash, path)
    if state.t > last_sample_t:
        emit(state, None, None)
    if checkpoint_dir is not None:
        traceio.write_checkpoint(
            state, engine.to_dict(), cfg_hash,
            os.path.join(checkpoint_dir, "final.ckpt"),
        )
    trace = Trace(
        samples=tuple(samples), t_start=t_start, t_end=state.t,
        termination=termination,
        metadata={
            "backend": cfg.backend,
            "resolution": cfg.resolution,
            "config": asdict(cfg),
            "config_hash": cfg_hash,
            "reason": reason,
            "resumed": resumed,
        },
    )
    return RunResult(trace=trace, final_state=state, engine=engine,
                     reason=reason)


def resume(cfg, checkpoint, checkpoint_dir=None, on_accept=None):
    """Continue a run from checkpoint data (see traceio.read_checkpoint)."""
    expected = traceio.config_hash(asdict(cfg))
    if checkpoint.config_hash != expected:
        raise SchemaMismatch(
            f"checkpoint config hash {checkpoint.config_hash} does not match "
            f"the supplied config {expected}"
        )
    engine = EngineState.from_dict(checkpoint.engine)
    _check_cursors(cfg, checkpoint.state.t, engine)
    return run(cfg, checkpoint.state, checkpoint_dir=checkpoint_dir,
               on_accept=on_accept, engine=engine)


def _check_cursors(cfg, t, engine):
    """CorruptFile unless the engine's step size is one ``run`` can hold
    and ``run`` can advance the engine's cursors past t.

    ``run`` keeps dt within [dt_min, dt_max].  A run leaves both cursors
    past its time, and a run without periodic checkpoints keeps
    ``next_checkpoint_t`` at +Infinity.  A cursor more than one interval
    behind ``t``, or a finite cursor with no interval to add, would stall
    ``run``'s catch-up loops.
    """
    if not cfg.dt_min <= engine.dt <= cfg.dt_max:
        raise CorruptFile(f"checkpoint dt {engine.dt!r} lies outside the "
                          f"config's [dt_min, dt_max] = "
                          f"[{cfg.dt_min!r}, {cfg.dt_max!r}]")
    for key, interval in (("next_sample_t", cfg.sample_interval),
                          ("next_checkpoint_t", cfg.checkpoint_interval)):
        cursor = getattr(engine, key)
        if cursor == math.inf:
            continue
        if interval <= 0:
            why = "is finite, but the config has no interval to advance it"
        elif cursor < t - interval:
            why = f"lies more than one interval ({interval!r}) before t {t!r}"
        else:
            continue
        raise CorruptFile(f"checkpoint {key} {cursor!r} {why}")


def _check_state(cfg, state):
    if state.backend != cfg.backend:
        raise ValueError(
            f"state backend {state.backend} does not match config "
            f"{cfg.backend}"
        )
    if state.resolution != cfg.resolution:
        raise ValueError(
            f"state resolution {state.resolution} does not match config "
            f"{cfg.resolution}"
        )
