"""Spans recorded around calls into calabilab's layers, from outside.

The tracer replaces module and class attributes of the package (and of
``numpy.fft``) with thin wrappers.  A wrapper records a span only while an
operation is open, so set-up work and output checks leave no spans.  Each
span keeps its name, start, end, parent span, operation id, the exception
class that escaped it (if any) and one number of its own: the accepted
flag of a flow step, the bytes of a file written or read, the computed
bytes of an FFT (input plus output array sizes; no cache behaviour).

Spans stay in memory and are written out once, when the run ends.
"""

import os
import statistics
import time

import numpy as np

from calabilab import diagnostics, flow, geometry, presets, scale, traceio

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end", "error", "extra")

FFT_NAMES = ("rfft2", "irfft2", "fft2", "ifft2")


def _step_extra(args, kwargs, result):
    return 1 if result.accepted else 0


def _fft_extra(args, kwargs, result):
    return int(np.asarray(args[0]).nbytes + result.nbytes)


def _size_of(index):
    def extra(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs.get("path")
        return os.path.getsize(path)

    return extra


def _targets():
    """(owner, attribute, span name, extra function) for every wrapped call."""
    out = [
        (flow, "step", "flow.step", _step_extra),
        (flow, "lu_factor", "flow.lu_factor", None),
        (flow, "lu_solve", "flow.lu_solve", None),
        (presets, "build_initial", "presets.build_initial", None),
        (geometry, "curvature_norms", "geometry.curvature_norms", None),
        (geometry, "scalar_probes", "geometry.scalar_probes", None),
        (traceio, "write_trace", "traceio.write_trace", _size_of(1)),
        (traceio, "read_trace", "traceio.read_trace", _size_of(0)),
        (traceio, "write_checkpoint", "traceio.write_checkpoint",
         _size_of(3)),
        (traceio, "read_checkpoint", "traceio.read_checkpoint", _size_of(0)),
        (traceio, "write_report", "traceio.write_report", _size_of(1)),
        (traceio, "read_report", "traceio.read_report", _size_of(0)),
        (traceio, "config_hash", "traceio.config_hash", None),
        (scale.Trace, "series", "scale.series", None),
        (scale.PiecewiseLinear, "integral", "scale.integral", None),
        (scale.PiecewiseLinear, "window_max", "scale.window_max", None),
    ]
    for name in ("sample", "futaki", "evolution_residual",
                 "automorphism_gap"):
        out.append((diagnostics, name, f"diagnostics.{name}", None))
    for name in ("analyze_trace", "curvature_scale", "doubling_stats",
                 "growth_bound_check", "barrier_check", "blowup_rates"):
        out.append((scale, name, f"scale.{name}", None))
    for name in FFT_NAMES:
        out.append((np.fft, name, f"np.fft.{name}", _fft_extra))
    return out


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._op = None
        self._saved = []

    def install(self):
        for owner, attr, name, extra in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn, extra_fn):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, start, end,
                                   type(exc).__name__, 0))
                raise
            end = time.perf_counter()
            self._stack.pop()
            extra = 0 if extra_fn is None else extra_fn(args, kwargs, result)
            self.spans.append((sid, parent, self._op, name, start, end, "",
                               extra))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, op_id, fn):
        """Run ``fn()`` as operation ``op_id`` under a top ``cli`` span."""
        self._op = op_id
        try:
            return self._wrap("cli", fn, None)()
        finally:
            self._op = None

    def write(self, path, header):
        """Write every span as tab-separated text after a '#' header line."""
        with open(path, "w") as fh:
            fh.write("# " + header + "\n")
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def round_metrics(spans):
    """Per-layer figures of one round (the spans of its operations).

    Counts are exact work counts; ``*_s`` figures are busy (inclusive) or
    self time in seconds within the round.
    """
    by_id = {s[0]: s for s in spans}
    by_name = {}
    child_time = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        if s[1] in by_id:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return sum(s[5] - s[4] - child_time.get(s[0], 0.0)
                   for s in named(name))

    def enclosing(span, names):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] in names:
                return parent[3]
            parent = by_id.get(parent[1])
        return None

    steps = named("flow.step")
    accepted = sum(1 for s in steps if not s[6] and s[7] == 1)
    rejected_energy = sum(1 for s in steps if not s[6] and s[7] == 0)
    rejected_cone = sum(1 for s in steps if s[6] == "NonKahler")
    samples = named("diagnostics.sample")
    ffts = [s for name in FFT_NAMES for s in named(f"np.fft.{name}")]
    fft_home = [enclosing(s, ("flow.step", "diagnostics.sample"))
                for s in ffts]
    blanks = sum(1 for s in named("diagnostics.futaki")
                 if s[6] == "SolverFailure")
    ops = named("cli")
    op_ids = {s[0] for s in ops}
    top = sum(s[5] - s[4] for s in spans if s[1] in op_ids)
    wall = sum(s[5] - s[4] for s in ops)

    counts = {
        "flow.step.calls": len(steps),
        "flow.step.accepted": accepted,
        "flow.step.rejected_energy": rejected_energy,
        "flow.step.rejected_cone": rejected_cone,
        "torus.fft.count": len(ffts),
        "torus.fft.bytes_computed": sum(s[7] for s in ffts),
        "toric.lu.count": len(named("flow.lu_factor")),
        "diagnostics.sample.calls": len(samples),
        "diagnostics.futaki.calls": len(named("diagnostics.futaki")),
        "diagnostics.futaki.blanked": blanks,
        "geometry.curvature_norms.calls": len(
            named("geometry.curvature_norms")),
        "geometry.scalar_probes.calls": len(named("geometry.scalar_probes")),
        "traceio.write_checkpoint.calls": len(
            named("traceio.write_checkpoint")),
        "scale.curvature_scale.calls": len(named("scale.curvature_scale")),
        "scale.barrier_check.calls": len(named("scale.barrier_check")),
        "scale.series.calls": len(named("scale.series")),
        "scale.integral.calls": len(named("scale.integral")),
        "scale.window_max.calls": len(named("scale.window_max")),
    }
    for name in ("write_checkpoint", "write_trace", "read_trace",
                 "write_report"):
        counts[f"traceio.{name}.bytes"] = sum(
            s[7] for s in named(f"traceio.{name}"))

    times = {
        "flow.step.self_s": self_time("flow.step"),
        "torus.fft.busy_s": sum(s[5] - s[4] for s in ffts),
        "toric.lu.busy_s": busy("flow.lu_factor") + busy("flow.lu_solve"),
        "diagnostics.sample.self_s": self_time("diagnostics.sample"),
        "diagnostics.futaki.busy_s": busy("diagnostics.futaki"),
        "diagnostics.evolution_residual.busy_s": busy(
            "diagnostics.evolution_residual"),
        "diagnostics.automorphism_gap.busy_s": busy(
            "diagnostics.automorphism_gap"),
        "traceio.write_checkpoint.busy_s": busy("traceio.write_checkpoint"),
        "traceio.write_trace.busy_s": busy("traceio.write_trace"),
        "traceio.read_trace.busy_s": busy("traceio.read_trace"),
        "traceio.write_report.busy_s": busy("traceio.write_report"),
        "scale.analyze_trace.busy_s": busy("scale.analyze_trace"),
        "scale.growth_bound_check.busy_s": busy("scale.growth_bound_check"),
        "scale.curvature_scale.busy_s": busy("scale.curvature_scale"),
        "scale.barrier_check.busy_s": busy("scale.barrier_check"),
        "scale.series.busy_s": busy("scale.series"),
        "presets.build_initial.busy_s": busy("presets.build_initial"),
        "cli.self_s": self_time("cli"),
        "tracing.coverage": top / wall if wall > 0 else 0.0,
    }
    durations = {
        "flow.step.p50_ms": [s[5] - s[4] for s in steps],
        "toric.lu.p50_ms": [s[5] - s[4] for s in named("flow.lu_factor")],
        "diagnostics.sample.p50_ms": [s[5] - s[4] for s in samples],
    }
    fft_split = {
        "step": sum(1 for h in fft_home if h == "flow.step"),
        "sample": sum(1 for h in fft_home if h == "diagnostics.sample"),
    }
    return counts, times, durations, fft_split


def layer_metrics(rounds):
    """Combine the traced rounds of one run into the per-layer metrics.

    ``rounds`` is a list of span lists, one per traced round.  Counts come
    from the first round; the caller checks that every round repeats them.
    Times are medians over rounds; p50 figures pool every span of a name.
    """
    per_round = [round_metrics(spans) for spans in rounds]
    counts, _, _, fft_split = per_round[0]
    out = dict(counts)
    for key in per_round[0][1]:
        out[key] = _median([r[1][key] for r in per_round])
    for key in per_round[0][2]:
        pooled = [d for r in per_round for d in r[2][key]]
        out[key] = 1e3 * _median(pooled)
    steps = counts["flow.step.calls"]
    samples = counts["diagnostics.sample.calls"]
    out["flow.step.useful_ratio"] = (
        counts["flow.step.accepted"] / steps if steps else 0.0)
    out["torus.fft.per_step"] = fft_split["step"] / steps if steps else 0.0
    out["torus.fft.per_sample"] = (
        fft_split["sample"] / samples if samples else 0.0)
    out["diagnostics.futaki.blank_ratio"] = (
        counts["diagnostics.futaki.blanked"] / samples if samples else 0.0)
    return out, [r[0] for r in per_round]
