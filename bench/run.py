"""calabilab benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload torus-converge --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload's inputs from ``--seed``, then the
workload's operations (``calabilab run`` / ``analyze`` command lines, called
in-process through ``calabilab.cli.main``) repeat in rounds for about
``--seconds`` seconds, and every output is checked.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  Metric names and units are those listed
in ``BENCHMARK.json``.  The last stdout line is the JSON result; earlier
lines give the environment and a readable summary.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPAN_DIR = os.path.join(ROOT, ".bench_spans")

WORKLOAD_NAMES = ("torus-converge", "toric-converge", "analyze-10k")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5

PROBE_TIMEOUT_S = 60

# Rounds run even when they overrun --seconds, so that a median of three
# discounts one slow round.  Traced runs alternate untraced and traced
# rounds, so this gives them two untraced rounds and one traced round.
MIN_ROUNDS = 3

SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _probe(args, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload):
    return statistics.median(
        _probe(["setup", workload])["setup_s"] for _ in range(SETUP_PROBES)
    )


def single_thread_step_ms(workdir, seed):
    import workloads

    manifest = workloads.toric_manifests(workdir, seed)[0]
    outdir = os.path.join(workdir, "one_thread")
    os.makedirs(outdir)
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    try:
        return _probe(["one-thread", manifest, outdir], env=env)["p50_ms"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}-{kind}"] = size
    return out


def _blas():
    import numpy as np

    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    info["threads"] = (f"{threads} (OPENBLAS_NUM_THREADS)" if threads
                       else f"{os.cpu_count()} (library default: one per "
                            "core; threadpoolctl is not installed)")
    return info


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def run_op(op, workdir, index, tracer, traced):
    """Time one operation and check it; return (seconds, failure or None)."""
    import workloads

    outdir = os.path.join(workdir, f"op{index}")
    os.makedirs(outdir)
    argv = op.argv(outdir)
    elapsed, failure = None, None
    start = time.perf_counter()
    try:
        if traced:
            code, out = tracer.operation(index, lambda: workloads.invoke(argv))
        else:
            code, out = workloads.invoke(argv)
        elapsed = time.perf_counter() - start
        op.check(outdir, code, out)
    except Exception as exc:  # a raising operation or failed check fails it
        failure = f"{op.label}: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if elapsed is None:
        elapsed = time.perf_counter() - start
    return elapsed, failure


def measure(ops, workdir, seconds, tracer):
    """Repeat rounds of ``ops`` for about ``seconds``, at least MIN_ROUNDS.

    A round starts only if the previous round's duration still fits in
    the budget.  With a tracer, rounds alternate untraced and traced,
    starting untraced.  Returns the per-round records: (traced,
    {label: seconds}, [failures], span index range).
    """
    rounds = []
    start = time.perf_counter()
    index = 0
    last = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + last > seconds:
            break
        round_start = time.perf_counter()
        first_span = len(tracer.spans) if tracer is not None else 0
        times, failures = {}, []
        for op in ops:
            index += 1
            times[op.label], failure = run_op(op, workdir, index, tracer,
                                              traced)
            if failure:
                failures.append(failure)
        last = time.perf_counter() - round_start
        spans = (first_span, len(tracer.spans)) if tracer else (0, 0)
        rounds.append((traced, times, failures, spans))
    return rounds


def _median_wall(rounds, traced):
    labels = rounds[0][1]
    return sum(statistics.median(r[1][label] for r in rounds
                                 if r[0] == traced) for label in labels)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calabilab", "__init__.py")):
        _fail(f"no calabilab sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import calabilab

    if not os.path.abspath(calabilab.__file__).startswith(SRC + os.sep):
        _fail(f"imported calabilab from {calabilab.__file__}, not {SRC}")
    import tracer as tracing
    import workloads

    end_to_end, per_layer = _metric_specs()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(args.workload)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT,
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = None
    try:
        build, warm = workloads.WORKLOADS[args.workload]
        ops = build(workdir, args.seed)
        warm()
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            rounds = measure(ops, workdir, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        one_thread_ms = 0.0
        if args.trace and args.workload == "toric-converge":
            one_thread_ms = single_thread_step_ms(workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r[1]) for r in rounds)
    failures = [f for r in rounds for f in r[2]]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    unrepeated = []
    values = {}
    if args.trace:
        traced = [tracer.spans[a:b] for t, _, _, (a, b) in rounds if t]
        layers, round_counts = tracing.layer_metrics(traced)
        values.update(layers)
        unrepeated = sorted({key for counts in round_counts[1:]
                             for key in counts
                             if counts[key] != round_counts[0][key]})
        values["tracing.overhead_s"] = (_median_wall(rounds, True)
                                        - _median_wall(rounds, False))
        values["toric.step_1thread.p50_ms"] = one_thread_ms
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write(
            os.path.join(SPAN_DIR, f"{args.workload}-s{args.seed}.tsv"),
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "env": env}, sort_keys=True))
        specs = per_layer
    else:
        values["wall_s"] = _median_wall(rounds, False)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        specs = end_to_end

    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        _fail(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(rounds)} rounds, {attempted} operations, "
          f"fail_ratio {len(failures) / attempted:.4g} "
          f"({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if unrepeated:
        print(f"counts differ between traced rounds: {unrepeated}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures and not unrepeated,
                      "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
