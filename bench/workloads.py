"""Seeded inputs, timed operations and output checks of each workload.

Every operation is one ``calabilab`` command line handed to
``calabilab.cli.main`` in the benchmark process.  The inputs (run manifests,
a trace file) are generated from the workload seed during set-up; the
program sees only those files.  Outputs are checked against physical
invariants and oracles, never against golden bytes, so that changes which
legitimately move trace bits still pass.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from calabilab import (cli, diagnostics, flow, geometry, presets, traceio,
                       verify)
from calabilab.diagnostics import DiagnosticsSample
from calabilab.geometry import TORIC, TORUS
from calabilab.scale import Trace

# Criterion 4 bounds the relative volume drift; criterion 3 bounds the
# distance to the round metric after toric convergence.
VOLUME_DRIFT_MAX = 1e-8
ROUND_TOL = 1e-6

# Curvature-scale points checked against the dense-scan oracle per report.
ORACLE_POINTS = 8

TORUS_CONFIG = dict(backend=TORUS, resolution=256, dt_init=2e-3, dt_min=1e-8,
                    dt_max=0.5, t_end=80.0, sample_interval=0.05,
                    checkpoint_interval=0.5)
TORUS_AMPLITUDE = 0.3
TORUS_STOP_FACTOR = 1e-10

TORIC_CONFIG = dict(backend=TORIC, resolution=512, dt_init=1e-3, dt_min=1e-9,
                    dt_max=0.25, t_end=40.0, sample_interval=0.5,
                    stop_energy=1e-16, checkpoint_interval=1.0)
TORIC_AMPLITUDE = 0.25

TRACE_SAMPLES = 10_000
TRACE_SPACING = 0.01
TRACE_EPISODES = 8


class CheckFailed(Exception):
    """An operation's output broke an invariant or disagreed with an oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def invoke(argv):
    """Run one CLI command in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _summary(code, stdout):
    lines = stdout.strip().splitlines()
    _require(lines, "command printed nothing")
    summary = json.loads(lines[-1])
    _require(code == 0 and summary.get("status") == "ok",
             f"command failed: {lines[-1]}")
    return summary


def preset_seeds(seed, count):
    """Independent preset seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


class Operation:
    """One timed command: ``argv(outdir)`` builds it, ``check`` judges it."""

    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check


# ------------------------------------------------------------------ torus


def torus_initial(preset_seed):
    return {"preset": "random", "seed": preset_seed,
            "amplitude": TORUS_AMPLITUDE}


def warm_torus():
    """First use of the N=256 spectral tables and FFT plans, as a fresh
    process pays it: one initial state and one flow step."""
    state = presets.build_initial(TORUS, TORUS_CONFIG["resolution"],
                                  torus_initial(1))
    return flow.step(state, TORUS_CONFIG["dt_init"])


def _check_torus(outdir, code, stdout):
    summary = _summary(code, stdout)
    _require(summary["termination"] == "stop_energy",
             f"termination {summary['termination']!r}, not stop_energy")
    _require(os.path.exists(os.path.join(outdir, "final.ckpt")),
             "final.ckpt missing")
    trace = traceio.read_trace(os.path.join(outdir, "run.trace"))
    _, ca = trace.series("calabi_energy")
    _require(bool(np.all(np.diff(ca) <= 0.0)), "energy rose between samples")
    _, vol = trace.series("volume")
    drift = float(np.max(np.abs(vol - vol[0])) / vol[0])
    _require(drift <= VOLUME_DRIFT_MAX, f"volume drift {drift:.2e}")


def torus_converge(workdir, seed):
    ops = []
    for k, ps in enumerate(preset_seeds(seed, 2)):
        initial = torus_initial(ps)
        state0 = presets.build_initial(TORUS, TORUS_CONFIG["resolution"],
                                       initial)
        config = dict(TORUS_CONFIG, stop_energy=TORUS_STOP_FACTOR
                      * geometry.calabi_energy(state0))
        path = os.path.join(workdir, f"torus_{k}.json")
        _write_json(path, {"config": config, "initial": initial})
        ops.append(Operation(
            f"torus_{k}",
            lambda out, p=path: ["run", p, "--outdir", out],
            _check_torus,
        ))
    return ops


# ------------------------------------------------------------------ toric


def toric_initial(preset_seed):
    return {"preset": "random", "seed": preset_seed,
            "amplitude": TORIC_AMPLITUDE}


def warm_toric():
    """First use of the M=512 Chebyshev tables and the BLAS thread pool, as
    a fresh process pays it: one initial state and one flow step."""
    state = presets.build_initial(TORIC, TORIC_CONFIG["resolution"],
                                  toric_initial(1))
    return flow.step(state, TORIC_CONFIG["dt_init"])


def _check_toric(outdir, code, stdout):
    _summary(code, stdout)
    m = TORIC_CONFIG["resolution"]
    ckpt = traceio.read_checkpoint(os.path.join(outdir, "final.ckpt"),
                                   expect_backend=TORIC,
                                   expect_resolution=m)
    s = geometry.scalar_curvature(ckpt.state).values
    sup_dev = float(np.max(np.abs(s - 2.0)))
    _require(sup_dev <= ROUND_TOL, f"sup |S-2| {sup_dev:.2e}")
    gap = diagnostics.automorphism_gap(ckpt.state, geometry.round_state(m))
    _require(gap <= ROUND_TOL, f"automorphism gap {gap:.2e}")


def toric_manifests(workdir, seed):
    paths = []
    for k, ps in enumerate(preset_seeds(seed, 2)):
        path = os.path.join(workdir, f"toric_{k}.json")
        _write_json(path, {"config": TORIC_CONFIG,
                           "initial": toric_initial(ps)})
        paths.append(path)
    return paths


def toric_converge(workdir, seed):
    return [
        Operation(f"toric_{k}",
                  lambda out, p=path: ["run", p, "--outdir", out],
                  _check_toric)
        for k, path in enumerate(toric_manifests(workdir, seed))
    ]


# ---------------------------------------------------------------- analyze


def synthetic_toric_trace(seed, n=TRACE_SAMPLES):
    """A seeded trace shaped like a long toric run with transient growth.

    sup |Rm| stays at least 1 (the interval reduction pins the mean scalar
    curvature) and carries ``TRACE_EPISODES`` growth episodes: a rise to
    3x-7x, a plateau of 0.3-1 time units, then a collapse within a few
    samples.  The quiet first time units give the growth bound its
    anchor, each plateau doubles Q at least once, and each collapse leaves
    Q above the square-root barrier of the look-back windows that end in
    the following half time unit, which spans several of the evaluation
    points ``analyze`` strides to.  sup |S| stays at most 1, so the
    barrier's scalar-bound hypothesis always applies.
    """
    rng = np.random.default_rng(seed)
    t = TRACE_SPACING * np.arange(n)
    span = t[-1]
    q = 1.0 + 0.2 * np.exp(-t / 5.0) + 0.05 * rng.random(n)
    shape = zip(rng.uniform(0.08 * span, 0.95 * span, TRACE_EPISODES),
                rng.uniform(2.0, 6.0, TRACE_EPISODES),
                rng.uniform(0.05, 0.2, TRACE_EPISODES),
                rng.uniform(0.3, 1.0, TRACE_EPISODES),
                rng.uniform(0.01, 0.03, TRACE_EPISODES))
    for start, amp, rise, plateau, fall in shape:
        d = t - start
        decay = np.exp(-np.clip(d - plateau, 0.0, 50.0 * fall) / fall)
        q += amp * np.where(d < 0, np.exp(-(d / rise) ** 2),
                            np.where(d < plateau, 1.0, decay))
    o = 0.6 + 0.4 * rng.random(n)
    p = 0.5 * q * q * (1.0 + 0.1 * rng.random(n))
    energy = 10.0 * np.exp(-t / 20.0)
    volume = 2.0
    samples = []
    for i in range(n):
        samples.append(DiagnosticsSample(
            t=float(t[i]), sup_scalar=float(o[i]),
            sup_hess_scalar=float(p[i]), sup_curv=float(q[i]),
            calabi_energy=float(energy[i]), volume=volume, mean_scalar=2.0,
            sup_grad_scalar=float(0.3 * q[i] ** 1.5),
            sup_bihess_scalar=float(0.2 * q[i] ** 3),
            evolution_residual=None if i == 0 else float(1e-6 * q[i] ** 3),
            futaki=0.0, aut_gap=float(0.1 * math.exp(-t[i] / 20.0)),
        ))
    return Trace(tuple(samples), 0.0, float(t[-1]), "completed",
                 {"backend": TORIC, "resolution": 512,
                  "synthetic": "bench-analyze", "seed": seed})


def _line_count(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


def _check_analyze(trace, seed):
    t, _ = trace.series("sup_curv")
    cell = float(np.max(np.diff(t)))

    def check(outdir, code, stdout):
        summary = _summary(code, stdout)
        report_path = summary["report"]
        report = traceio.read_report(report_path)
        again = os.path.join(outdir, "roundtrip.report.json")
        traceio.write_report(report, again)
        with open(report_path, "rb") as a, open(again, "rb") as b:
            _require(a.read() == b.read(), "report does not round-trip")
        meta = report["meta"]
        _, ca = trace.series("calabi_energy")
        _require(meta["initial_energy"] == ca[0]
                 and meta["final_energy"] == ca[-1],
                 "report energies differ from the trace")
        _require(math.isfinite(report["growth"]["anchor"]),
                 "no growth-bound anchor found")
        _require(len(report["doubling"]) > 0, "no doubling segment found")
        _require(any(b["verdict"] == "violated" for b in report["barrier"]),
                 "no barrier violation found")
        points = report["curvature_scale"]
        rng = np.random.default_rng(seed)
        for i in rng.choice(len(points), size=min(ORACLE_POINTS, len(points)),
                            replace=False):
            t0, fast = points[i]
            n_s = max(4000, math.ceil(4.0 * (t0 - t[0]) / cell))
            slow = verify.dense_scan_curvature_scale(trace, t0, n_s=n_s)
            _require(abs(fast - slow) <= cell,
                     f"curvature scale at t={t0} is {fast}, oracle {slow}")
        for path in summary["series"]:
            want = (len(points) if path.endswith(".curvature_scale.dat")
                    else len(trace))
            _require(_line_count(path) == want,
                     f"{os.path.basename(path)} has the wrong length")

    return check


def analyze_10k(workdir, seed):
    trace = synthetic_toric_trace(seed)
    path = os.path.join(workdir, "analyze.trace")
    traceio.write_trace(trace, path)
    return [Operation(
        "analyze",
        lambda out: ["analyze", path, "--outdir", out],
        _check_analyze(trace, seed),
    )]


def warm_analyze():
    """The analyze path has no operator tables; importing is its set-up."""
    return None


WORKLOADS = {
    "torus-converge": (torus_converge, warm_torus),
    "toric-converge": (toric_converge, warm_toric),
    "analyze-10k": (analyze_10k, warm_analyze),
}
