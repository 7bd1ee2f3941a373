"""Semi-implicit time integration of the fourth-order scalar-curvature flow.

The potential moves by the deviation of scalar curvature from its
topological mean.  The stiff constant-coefficient part of the linearized
operator (the flat bi-Laplacian on the torus, the degenerate fourth-order
round-state operator on the interval) is solved implicitly; the remainder
is explicit with 2/3-rule dealiasing on the torus.  Steps are accepted
only when the energy does not rise beyond the configured tolerance: the
gradient-flow structure itself is the acceptance oracle, which is the one
property the continuum flow guarantees unconditionally.

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
from .geometry import TORIC, TORUS, MetricState, toric, torus
from .scale import Trace

ACCEPT_STREAK = 8


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


def _torus_step(state, dt):
    """Updated phi of the semi-implicit spectral step.

    The flat bi-Laplacian is implicit, the remainder explicit and 2/3-rule
    dealiased; the remainder reads the state's cached S.
    """
    phi = state.values
    explicit = geometry.scalar_curvature(state).values + torus.bilap0(phi)
    _, _, k2, mask = torus._ops(phi.shape[0])
    fh = np.fft.rfft2(phi)
    nh = np.fft.rfft2(explicit) * mask
    out = (fh + dt * nh) / (1.0 + dt * k2 * k2)
    out[0, 0] = 0.0
    return np.fft.irfft2(out, s=phi.shape)


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


def _toric_implicit_step(state, dt):
    """Gauge-fixed v of the step with the round-state operator implicit.

    The flow field is ``rhs``, F(v) = -(S - 2) = -(q^2 rho v'')''
    (q = 1-x^2, rho = 1/(1 + q v'')), read from the state's cached S.  Its
    Jacobian at the round state is -(q^2 (.)'')''; against the quadrature
    inner product that is the stiffness K0, symmetric positive
    semidefinite and independent of v.  As the torus step freezes the flat
    bi-Laplacian, this step keeps K0 implicit and forces with the flow's
    own velocity,

        (W + dt K0) delta = dt W F(v),      W = diag(w),

    so delta = dt F(v) + O(dt^2): the step integrates the flow that
    ``rhs`` describes, and energy acceptance guards the explicit rest of
    the Jacobian.  The system is solved in the eigenbasis of the pencil
    (``toric.ChebOps.modes``, one eigh per M, shared by every dt):

        delta = (1/r) Q diag(dt / (1 + dt lam)) Q' (r F).

    At the round state S is exactly 2, F vanishes and the update returns
    v bit for bit.
    """
    v = state.values
    r, lam, q = toric.ops(v.shape[0]).modes
    g = q.T @ (r * rhs(state).values)
    delta = (q @ (dt / (1.0 + dt * lam) * g)) / r
    return toric.strip_affine(v + delta)


# The only backend knowledge outside ``geometry``: each backend's update.
_UPDATES = {TORUS: _torus_step, TORIC: _toric_implicit_step}


def step(state, dt, energy_tol=0.0):
    """One semi-implicit step with energy-monotone acceptance.

    Raises NonKahler when the updated state leaves the cone; the caller
    should retry with a smaller step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ca_old = geometry.calabi_energy(state)
    new_vals = _UPDATES[state.backend](state, dt)
    new_state = state.with_values(new_vals, t=state.t + dt)
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
        prev = state
        state = res.new_state
        current_ca = res.energy_after
        engine.streak += 1
        if on_accept is not None:
            on_accept(state, res)
        if engine.streak >= ACCEPT_STREAK and engine.dt < cfg.dt_max:
            engine.dt = min(2.0 * engine.dt, cfg.dt_max)
            engine.streak = 0
        if state.t >= engine.next_sample_t:
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
    """CorruptFile unless ``run`` can advance the engine's cursors past t.

    A run leaves both cursors past its time, and a run without periodic
    checkpoints keeps ``next_checkpoint_t`` at +Infinity.  A cursor more
    than one interval behind ``t``, or a finite cursor with no interval to
    add, would stall ``run``'s catch-up loops.
    """
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
