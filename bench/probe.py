"""Child-process probes of the benchmark; prints one JSON line.

``probe.py setup <workload>``
    Time a fresh process from before ``import calabilab`` to the end of
    the first use of the workload's operator tables: the set-up every CLI
    invocation pays before its first operation.
``probe.py one-thread <manifest> <outdir>``
    Run one manifest through the CLI and report the median ``flow.step``
    time.  The parent starts this probe with the BLAS thread count pinned
    to 1, for the single-threaded baseline.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup(workload):
    import workloads

    workloads.WORKLOADS[workload][1]()
    return {"setup_s": time.perf_counter() - START}


def one_thread(manifest, outdir):
    from calabilab import cli, flow

    original = flow.step
    durations = []

    def timed_step(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    flow.step = timed_step
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", manifest, "--outdir", outdir])
    if code != 0:
        raise SystemExit(f"single-thread run failed with exit code {code}")
    return {"p50_ms": 1e3 * statistics.median(durations),
            "steps": len(durations)}


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        result = setup(sys.argv[2])
    elif mode == "one-thread":
        result = one_thread(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(f"unknown probe {mode!r}")
    print(json.dumps(result))
