"""Flow engine: stepping, acceptance, adaptivity, determinism."""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from calabilab import flow, geometry, presets, traceio
from calabilab.errors import CorruptFile
from calabilab.geometry import toric


def torus_state(seed=2, n=32, amp=0.3, kmax=4):
    return presets.build_initial(
        "torus", n, {"preset": "random", "seed": seed, "amplitude": amp,
                     "kmax": kmax}
    )


def toric_state(seed=1, m=64, amp=0.3):
    return presets.build_initial(
        "toric1d", m, {"preset": "random", "seed": seed, "amplitude": amp}
    )


def count_eigh(monkeypatch):
    """Drop the toric tables, so every M starts afresh, and return the list
    that records the matrix shape of each ``np.linalg.eigh`` call."""
    monkeypatch.setattr(toric, "_CACHE", {})
    eigh = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestRhs:
    def test_fixed_points_give_zero_field(self):
        for state in (geometry.flat_state(32), geometry.round_state(64)):
            assert np.max(np.abs(flow.rhs(state).values)) == 0.0

    def test_torus_rhs_is_scalar_curvature(self):
        state = torus_state()
        assert np.array_equal(
            flow.rhs(state).values, geometry.scalar_curvature(state).values
        )

    def test_toric_rhs_sign_frozen_by_energy_experiment(self):
        # The sign is the one for which a tiny forward-Euler step lowers
        # the energy on generic perturbations; the opposite raises it.
        for seed in (1, 5, 11):
            state = toric_state(seed=seed)
            v = state.values
            s = geometry.scalar_curvature(state).values
            ca0 = geometry.calabi_energy(state)
            dt = 1e-7
            good = geometry.calabi_energy(geometry.toric_state(
                toric.strip_affine(v + dt * toric.FLOW_SIGN * (s - 2.0))
            ))
            bad = geometry.calabi_energy(geometry.toric_state(
                toric.strip_affine(v - dt * toric.FLOW_SIGN * (s - 2.0))
            ))
            assert good < ca0 < bad


class TestStep:
    def test_fixed_points_are_exactly_stationary(self):
        for state in (geometry.flat_state(32), geometry.round_state(64)):
            res = flow.step(state, 0.1)
            assert res.accepted and res.energy_delta == 0.0
            assert np.array_equal(res.new_state.values, state.values)

    def test_round_state_is_exact_at_every_step_size(self):
        # Each dt solves with its own factorization; the zero forcing must
        # return the very bits, signed zeros included, through both.
        state = geometry.round_state(64)
        for dt in (0.1, 0.025):
            res = flow.step(state, dt)
            assert res.accepted and res.energy_delta == 0.0
            assert res.new_state.values.tobytes() == state.values.tobytes()

    def test_small_step_decreases_energy(self):
        for state in (torus_state(), toric_state()):
            res = flow.step(state, 1e-5)
            assert res.accepted and res.energy_delta < 0.0

    def test_energy_increase_detection_rejects(self):
        # The acceptance comparator recomputes the energy directly; a
        # tolerance demanding a larger decrease than the step delivers
        # must flip the flag while leaving the candidate intact.
        state = torus_state()
        res = flow.step(state, 1e-5, energy_tol=-1e30)
        assert not res.accepted
        assert res.energy_delta < 0.0
        assert res.new_state.t == state.t + 1e-5

    @pytest.mark.parametrize("backend", ["torus", "toric1d"])
    def test_richardson_step_consistency(self, backend):
        # One dt step versus two dt/2 steps: the gap is O(dt^2), so
        # halving dt shrinks it by a factor near four.
        if backend == "torus":
            state = torus_state(amp=0.2, kmax=2)
            dts = (1e-6, 5e-7)
        else:
            state = toric_state(amp=0.2)
            dts = (1e-5, 5e-6)
        gaps = []
        for dt in dts:
            one = flow.step(state, dt).new_state
            half = flow.step(state, dt / 2).new_state
            two = flow.step(half, dt / 2).new_state
            gaps.append(np.max(np.abs(one.values - two.values)))
        ratio = gaps[0] / gaps[1]
        assert 3.0 < ratio < 5.0


class TestRun:
    def test_written_cursors_lie_past_the_checkpoint_time(self, tmp_path):
        # ``resume`` refuses a cursor more than one interval behind the
        # checkpoint's time; a run writes none.
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-8,
            dt_max=0.1, t_end=0.3, sample_interval=0.07,
            checkpoint_interval=0.05,
        )
        flow.run(cfg, torus_state(n=16), checkpoint_dir=str(tmp_path))
        paths = sorted(tmp_path.iterdir())
        assert len(paths) > 2
        for path in paths:
            ckpt = traceio.read_checkpoint(path)
            assert ckpt.engine["next_sample_t"] > ckpt.state.t
            assert ckpt.engine["next_checkpoint_t"] > ckpt.state.t
            flow.resume(cfg, ckpt)

    def test_resume_refuses_a_cursor_that_would_stall(self, tmp_path):
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-8,
            dt_max=0.1, t_end=0.2, sample_interval=0.1,
        )
        flow.run(cfg, torus_state(n=16), checkpoint_dir=str(tmp_path))
        ckpt = traceio.read_checkpoint(tmp_path / "final.ckpt")
        for key, value in (("next_checkpoint_t", 0.5),
                           ("next_sample_t", ckpt.state.t - 0.11)):
            bad = traceio.CheckpointData(
                ckpt.state, {**ckpt.engine, key: value}, ckpt.config_hash)
            with pytest.raises(CorruptFile, match=key):
                flow.resume(cfg, bad)

    def test_resume_refuses_a_step_size_outside_the_bounds(self, tmp_path):
        # run keeps dt within [dt_min, dt_max], the bounds included; a
        # checkpoint with any other dt is corrupt.
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-8,
            dt_max=0.1, t_end=0.2, sample_interval=0.1,
        )
        flow.run(cfg, torus_state(n=16), checkpoint_dir=str(tmp_path))
        ckpt = traceio.read_checkpoint(tmp_path / "final.ckpt")
        for dt in (cfg.dt_min, cfg.dt_max):
            flow.resume(cfg, traceio.CheckpointData(
                ckpt.state, {**ckpt.engine, "dt": dt}, ckpt.config_hash))
        for dt in (0.5 * cfg.dt_min, 2.5):
            bad = traceio.CheckpointData(
                ckpt.state, {**ckpt.engine, "dt": dt}, ckpt.config_hash)
            with pytest.raises(CorruptFile, match="dt"):
                flow.resume(cfg, bad)

    def test_toric_resume_after_another_resolution_matches(self, tmp_path):
        # The step's modes are kept per M: a toric run at another M in
        # between must leave the resumed M=64 run reproducing the full
        # run's columns and final state bit for bit.
        cfg = flow.FlowConfig(
            backend="toric1d", resolution=64, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.05, t_end=0.4, sample_interval=0.05,
            checkpoint_interval=0.15,
        )
        full = flow.run(cfg, toric_state(seed=5), checkpoint_dir=str(tmp_path))
        other = flow.FlowConfig(
            backend="toric1d", resolution=128, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.05, t_end=0.01, sample_interval=0.01,
        )
        flow.run(other, toric_state(seed=6, m=128))
        ckpt = traceio.read_checkpoint(tmp_path / "checkpoint_0001.ckpt")
        resumed = flow.resume(cfg, ckpt)
        rows = full.trace.columns["t"] > ckpt.state.t
        assert rows.sum() == len(resumed.trace) > 0
        for name, col in resumed.trace.columns.items():
            assert np.array_equal(col.view(np.int64),
                                  full.trace.columns[name][rows].view(
                                      np.int64)), name
        for name, mask in resumed.trace.absent.items():
            assert np.array_equal(mask, full.trace.absent[name][rows])
        assert (resumed.final_state.values.tobytes()
                == full.final_state.values.tobytes())

    def test_fixed_point_runs_to_completion(self):
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-2, dt_min=1e-8,
            dt_max=0.5, t_end=1.0, sample_interval=0.2,
        )
        result = flow.run(cfg, geometry.flat_state(16))
        assert result.trace.termination == "completed"
        _, ca = result.trace.series("calabi_energy")
        assert np.array_equal(ca, np.zeros_like(ca))

    def test_energy_monotone_along_samples(self):
        cfg = flow.FlowConfig(
            backend="torus", resolution=32, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.1, t_end=1.5, sample_interval=0.1,
        )
        result = flow.run(cfg, torus_state())
        _, ca = result.trace.series("calabi_energy")
        assert np.all(np.diff(ca) <= 0.0)

    def test_stop_energy_termination(self):
        state = torus_state(amp=0.1, kmax=2)
        ca0 = geometry.calabi_energy(state)
        cfg = flow.FlowConfig(
            backend="torus", resolution=32, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.5, t_end=100.0, sample_interval=0.5,
            stop_energy=1e-4 * ca0,
        )
        result = flow.run(cfg, state)
        assert result.trace.termination == "stop_energy"
        assert result.trace.columns["calabi_energy"][-1] <= 1e-4 * ca0

    def test_left_cone_reported_not_raised(self):
        # One allowed step size, taken from far out in the cone: the
        # update overshoots positivity and the driver must report the
        # failure as a tagged partial trace.
        state = presets.build_initial(
            "torus", 32,
            {"preset": "random", "seed": 3, "amplitude": 0.995, "kmax": 6,
             "allow_overamplitude": True},
        )
        cfg = flow.FlowConfig(
            backend="torus", resolution=32, dt_init=2.0, dt_min=2.0,
            dt_max=2.0, t_end=10.0, sample_interval=1.0,
        )
        result = flow.run(cfg, state)
        assert result.trace.termination == "left_cone"
        assert result.reason.startswith("positivity lost at minimum step")
        assert len(result.trace) > 0  # partial trace retained

    def test_toric_run_decomposes_once_per_resolution(self, monkeypatch):
        # The implicit operator is diagonal in one eigenbasis per parity
        # block and M: a run whose dt doubles several times does one eigh
        # per block, and a second run at that M does none.  An odd M puts
        # the centre node in the even block.
        calls = count_eigh(monkeypatch)
        dts = []
        step = flow.step

        def recorded_step(state, dt, **kwargs):
            dts.append(dt)
            return step(state, dt, **kwargs)

        monkeypatch.setattr(flow, "step", recorded_step)
        cfg = flow.FlowConfig(
            backend="toric1d", resolution=64, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.05, t_end=0.5, sample_interval=0.25,
        )
        flow.run(cfg, toric_state())
        assert len(set(dts)) > 3
        assert calls == [(32, 32), (32, 32)]
        flow.run(cfg, toric_state(seed=2))
        assert calls == [(32, 32), (32, 32)]
        odd = flow.FlowConfig(**{**asdict(cfg), "resolution": 65})
        flow.run(odd, toric_state(m=65))
        flow.run(odd, toric_state(seed=2, m=65))
        assert calls == [(32, 32), (32, 32), (33, 33), (32, 32)]

    def test_backend_mismatch_rejected(self):
        cfg = flow.FlowConfig(
            backend="toric1d", resolution=64, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.1, t_end=1.0, sample_interval=0.5,
        )
        with pytest.raises(ValueError):
            flow.run(cfg, geometry.flat_state(64))

    def test_persistent_rejection_terminates_with_error(self):
        # Forcing the acceptance bar unreachably low drives the step size
        # to its floor and the driver must give up with the error cause.
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-4,
            dt_max=1e-2, t_end=1.0, sample_interval=0.5, energy_tol=-1e30,
        )
        result = flow.run(cfg, torus_state(n=16))
        assert result.trace.termination == "error"
        assert "minimum step" in result.reason

    def test_negative_tolerance_reason_names_the_measured_change(self):
        # energy_tol -1 demands a decrease of at least 1 per step, so a
        # falling energy is still rejected; the reason must report the
        # change it measured, not claim an increase.
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-4,
            dt_max=1e-2, t_end=1.0, sample_interval=0.5, energy_tol=-1.0,
        )
        result = flow.run(cfg, torus_state(n=16))
        delta = flow.step(result.final_state, cfg.dt_min).energy_delta
        assert -1.0 < delta < 0
        assert result.trace.termination == "error"
        assert "increase" not in result.reason
        assert f"energy change {delta:.3e}" in result.reason
        assert "energy_tol -1.000e+00" in result.reason
        assert "minimum step" in result.reason

    def test_parallel_runs_match_sequential(self):
        cfg = flow.FlowConfig(
            backend="torus", resolution=16, dt_init=1e-3, dt_min=1e-9,
            dt_max=0.1, t_end=0.3, sample_interval=0.1,
        )
        states = [torus_state(seed=s, n=16) for s in range(4)]
        seq = [flow.run(cfg, s).trace for s in states]
        with ThreadPoolExecutor(4) as pool:
            par = list(pool.map(lambda s: flow.run(cfg, s).trace, states))
        assert seq == par

    def test_concurrent_first_toric_steps_share_the_modes(self,
                                                          monkeypatch):
        # Threads that step at once at a new M race on building its tables
        # and modes; one eigh per parity block must serve them all, and
        # every update must return the bits of a sequential first step.
        m = 80  # used by no other test
        state = toric_state(m=m)
        dts = (1e-3, 2e-3, 4e-3)
        monkeypatch.setattr(toric, "_CACHE", {})
        want = {dt: flow.step(state, dt).new_state.values.tobytes()
                for dt in dts}
        calls = count_eigh(monkeypatch)
        start = threading.Barrier(8)

        def steps(k):
            order = dts[k % 3:] + dts[:k % 3]
            start.wait(timeout=60)
            return [(dt, flow.step(state, dt).new_state.values.tobytes())
                    for dt in order for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(steps, k) for k in range(8)]
                got = [r for f in futures for r in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert calls == [(m // 2, m // 2)] * 2
        assert all(bits == want[dt] for dt, bits in got)


class TestSpectrumPurity:
    # A cached spectrum is always the transform of the state's own values,
    # never the step's own spectral update: a resumed run transforms the
    # values it reads, so it must derive the same bits as the run that
    # wrote them.
    @staticmethod
    def same_bits(a, b):
        return np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_cached_spectrum_is_the_transform_of_the_values(
            self, monkeypatch):
        state = torus_state(n=32)
        new = flow.step(state, 1e-4).new_state
        moved = new.with_values(np.roll(new.values, 3, axis=0))
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "checkpoint_v2.ckpt")
        read = traceio.read_checkpoint(golden).state
        calls = []
        rfft2 = np.fft.rfft2

        def counted(*args, **kwargs):
            calls.append(args)
            return rfft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft2", counted)
        cached = geometry.spectrum(new)
        assert calls == []  # the step derived it for the new state
        monkeypatch.undo()
        assert self.same_bits(cached, np.fft.rfft2(new.values))
        for st in (moved, read):
            assert self.same_bits(geometry.spectrum(st),
                                  np.fft.rfft2(st.values))

    def test_torus_resume_matches_the_full_run(self, tmp_path):
        cfg = flow.FlowConfig(
            backend="torus", resolution=64, dt_init=1e-3, dt_min=1e-8,
            dt_max=0.1, t_end=0.6, sample_interval=0.05,
            checkpoint_interval=0.2,
        )
        full = flow.run(cfg, torus_state(seed=11, n=64),
                        checkpoint_dir=str(tmp_path))
        ckpt = traceio.read_checkpoint(tmp_path / "checkpoint_0001.ckpt")
        resumed = flow.resume(cfg, ckpt)
        rows = full.trace.columns["t"] > ckpt.state.t
        assert rows.sum() == len(resumed.trace) > 0
        for name, col in resumed.trace.columns.items():
            assert self.same_bits(col, full.trace.columns[name][rows]), name
        for name, mask in resumed.trace.absent.items():
            assert np.array_equal(mask, full.trace.absent[name][rows])
        assert (resumed.final_state.values.tobytes()
                == full.final_state.values.tobytes())


class TestConfigValidation:
    def test_dt_ordering(self):
        with pytest.raises(ValueError):
            flow.FlowConfig(backend="torus", resolution=32, dt_init=1e-3,
                            dt_min=1e-2, dt_max=0.1, t_end=1.0,
                            sample_interval=0.1)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            flow.FlowConfig(backend="plane", resolution=32, dt_init=1e-3,
                            dt_min=1e-4, dt_max=0.1, t_end=1.0,
                            sample_interval=0.1)

    @pytest.mark.parametrize("field, value", [
        ("t_end", float("nan")), ("t_end", float("inf")),
        ("dt_max", float("inf")), ("sample_interval", float("nan")),
        ("energy_tol", float("nan")), ("stop_energy", float("nan")),
        ("checkpoint_interval", float("nan")),
        ("checkpoint_interval", -1.0),
        # Not real numbers: a bool would run as 0 or 1.
        ("dt_init", True), ("t_end", True), ("energy_tol", False),
        ("checkpoint_interval", True), ("t_end", "1.0"), ("dt_max", None),
        ("sample_interval", [0.1]), ("stop_energy", 1j),
        pytest.param("t_end", 10 ** 400, id="t_end-int-beyond-float"),
    ])
    def test_times_and_tolerances_are_finite(self, field, value):
        spec = dict(backend="torus", resolution=32, dt_init=1e-3,
                    dt_min=1e-4, dt_max=0.1, t_end=1.0, sample_interval=0.1)
        spec[field] = value
        with pytest.raises(ValueError):
            flow.FlowConfig(**spec)

    @pytest.mark.parametrize("field", ["sample_interval",
                                       "checkpoint_interval"])
    def test_intervals_the_cursors_can_advance_by(self, field):
        # run advances its cursors one interval at a time: an interval
        # below the float spacing at t_end never moves them, and one far
        # below dt_max takes millions of additions per step.
        spec = dict(backend="torus", resolution=32, dt_init=1e-3,
                    dt_min=1e-4, dt_max=0.1, t_end=1.0, sample_interval=0.1)
        for value, t_end in ((1e-300, 1.0), (0.1 / 2 ** 20 / 2, 1.0),
                             (1.0, 1e20)):
            bad = dict(spec, t_end=t_end, sample_interval=1e5)
            bad[field] = value
            with pytest.raises(ValueError, match=f"{field} .* too small"):
                flow.FlowConfig(**bad)
        edge = 0.1 / flow.MAX_INTERVALS_PER_STEP
        assert getattr(flow.FlowConfig(**dict(spec, **{field: edge})),
                       field) == edge

    @pytest.mark.parametrize("spec, want", [
        (dict(backend="torus", resolution=32, dt_init=1e-3, dt_min=1e-4,
              dt_max=0.1, t_end=2, sample_interval=0.1,
              checkpoint_interval=1), "2a288c476f3ee053"),
        (dict(backend="toric1d", resolution=64, dt_init=0.25, dt_min=1e-9,
              dt_max=0.5, t_end=4.0, sample_interval=0.5, energy_tol=1e-12,
              stop_energy=1e-16), "7abcf694105321ac"),
    ])
    def test_valid_config_keeps_its_hash(self, spec, want):
        # Ints stay ints in the hashed config, so its bytes do not move.
        cfg = flow.FlowConfig(**spec)
        assert traceio.config_hash(asdict(cfg)) == want


class TestExtremality:
    def test_flat_and_round_are_extremal(self):
        assert flow.extremality_residual(geometry.flat_state(32)) == 0.0
        assert flow.extremality_residual(geometry.round_state(64)) < 1e-10

    def test_generic_state_is_not(self):
        assert flow.extremality_residual(torus_state()) > 1e-3
        assert flow.extremality_residual(toric_state()) > 1e-3
