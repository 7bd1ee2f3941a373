"""Command-line entry point: run, analyze, verify, sweep.

``run`` executes one manifest (config + named initial condition) and
writes a trace plus checkpoints; ``analyze`` turns a trace file into a
scale report and a plot-ready curvature-scale series; ``verify`` runs
the acceptance suites and reports one line per criterion; ``sweep`` runs
many manifests in parallel worker processes and aggregates the corpus
calibration.

Failures exit nonzero after printing a single machine-readable JSON line
``{"status": "error", "error_class": ..., "message": ...}`` on stdout.
Progress goes to stderr; results and summaries go to stdout as JSON.
"""

import argparse
import concurrent.futures
import dataclasses
import glob
import json
import math
import os
import sys

from . import flow, presets, scale, traceio, verify
from .errors import BadParams, CalabiLabError

OUT_ENV = "CALABILAB_OUT"


def _load_manifest(path):
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadParams(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "config" not in manifest \
            or "initial" not in manifest:
        raise BadParams("manifest needs 'config' and 'initial' sections")
    cfg_spec = manifest["config"]
    if isinstance(cfg_spec, str):
        base = os.path.dirname(os.path.abspath(path))
        cfg_path = os.path.join(base, cfg_spec)
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                cfg_spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BadParams(f"unreadable config {cfg_path}: {exc}") from exc
    try:
        cfg = flow.FlowConfig(**cfg_spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"bad config: {exc}") from exc
    outdir = manifest.get("outdir")
    if outdir is not None and not isinstance(outdir, str):
        raise BadParams(f"outdir must be a string, not {outdir!r}")
    return cfg, manifest["initial"], outdir


def _makedirs(path):
    """Create the output directory ``path``; BadParams if it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise BadParams(f"cannot create output directory {path}: {exc}") \
            from exc
    return path


def _resolve_outdir(cli_outdir, manifest_outdir):
    return _makedirs(
        cli_outdir or manifest_outdir or os.environ.get(OUT_ENV) or ".")


def _progress(stream, every=500):
    counter = {"n": 0}

    def on_accept(state, res):
        counter["n"] += 1
        if counter["n"] % every == 0:
            stream.write(
                f"  t={state.t:10.4f}  Ca={res.energy_after:.6e}  "
                f"dt={res.dt_used:.3e}\n"
            )
            stream.flush()

    return on_accept


def cmd_run(args):
    cfg, initial, manifest_out = _load_manifest(args.manifest)
    outdir = _resolve_outdir(args.outdir, manifest_out)
    if args.resume:
        try:
            ckpt = traceio.read_checkpoint(
                args.resume, expect_backend=cfg.backend,
                expect_resolution=cfg.resolution,
            )
        except OSError as exc:
            raise BadParams(
                f"unreadable checkpoint {args.resume}: {exc}") from exc
        print(f"resuming from {args.resume} at t={ckpt.state.t:g}",
              file=sys.stderr)
        result = flow.resume(cfg, ckpt, checkpoint_dir=outdir,
                             on_accept=_progress(sys.stderr))
        # A resumed trace holds only the suffix after the checkpoint; its
        # own name keeps it from replacing the original run's trace.
        stem = os.path.splitext(os.path.basename(args.resume))[0]
        trace_name = f"run.from_{stem}.trace"
    else:
        state0 = presets.build_initial(cfg.backend, cfg.resolution, initial)
        result = flow.run(cfg, state0, checkpoint_dir=outdir,
                          on_accept=_progress(sys.stderr))
        trace_name = "run.trace"
    trace_path = os.path.join(outdir, trace_name)
    traceio.write_trace(result.trace, trace_path)
    summary = {
        "status": "ok",
        "trace": trace_path,
        "termination": result.trace.termination,
        "reason": result.reason,
        "t_final": result.final_state.t,
        "final_energy": float(result.trace.columns["calabi_energy"][-1]),
        "samples": len(result.trace),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _lines(pairs):
    """One ``t y`` line per pair of floats, each in its ``repr``."""
    return (f"{t!r} {y!r}\n" for t, y in pairs)


def _write_series(path, pairs):
    """The ``_lines`` of ``pairs``, written atomically to ``path``."""
    traceio._write_atomic(path, lambda fh: fh.writelines(_lines(pairs)))


def cmd_analyze(args):
    if args.eps0 is not None and not (math.isfinite(args.eps0)
                                      and args.eps0 > 0):
        raise BadParams(f"--eps0 must be finite and positive, not "
                        f"{args.eps0!r}")
    if args.t_sing is not None and not math.isfinite(args.t_sing):
        raise BadParams(f"--t-sing must be finite, not {args.t_sing!r}")
    if not 0.0 < args.alpha < 1.0:
        raise BadParams(f"--alpha must lie in (0, 1), not {args.alpha!r}")
    try:
        trace = traceio.read_trace(args.trace)
    except OSError as exc:
        raise BadParams(f"unreadable trace {args.trace}: {exc}") from exc
    rep = scale.analyze_trace(trace, alpha=args.alpha, eps0=args.eps0,
                              t_sing=args.t_sing)
    outdir = _resolve_outdir(args.outdir,
                             os.path.dirname(os.path.abspath(args.trace)))
    stem = os.path.splitext(os.path.basename(args.trace))[0]
    report_path = os.path.join(outdir, f"{stem}.report.json")
    traceio.write_report(dataclasses.asdict(rep), report_path)
    fpath = os.path.join(outdir, f"{stem}.curvature_scale.dat")
    _write_series(fpath, rep.curvature_scale)
    print(json.dumps({"status": "ok", "report": report_path,
                      "series": [fpath],
                      "doubling_segments": len(rep.doubling)},
                     sort_keys=True))
    return 0


def cmd_verify(args):
    results = verify.run_suite(args.suite, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"{r.number} ({r.name})" for r in failed)
        print(f"FAILED criteria: {names}")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def _sweep_worker(item):
    manifest_path, outdir = item
    try:
        cfg, initial, _ = _load_manifest(manifest_path)
        state0 = presets.build_initial(cfg.backend, cfg.resolution, initial)
        result = flow.run(cfg, state0, checkpoint_dir=outdir)
        trace_path = os.path.join(outdir, "run.trace")
        traceio.write_trace(result.trace, trace_path)
        try:
            eps0_max = scale.growth_bound_check(result.trace).eps0_max
        except CalabiLabError:
            eps0_max = None
        return {
            "manifest": manifest_path,
            "status": "ok",
            "trace": trace_path,
            "termination": result.trace.termination,
            "final_energy": float(result.trace.columns["calabi_energy"][-1]),
            "eps0_max": eps0_max,
        }
    except Exception as exc:  # worker failures must not kill the pool
        return {
            "manifest": manifest_path,
            "status": "error",
            "error_class": type(exc).__name__,
            "message": str(exc),
        }


def cmd_sweep(args):
    if args.jobs < 1:
        raise BadParams(f"--jobs must be at least 1, not {args.jobs}")
    manifests = sorted(glob.glob(args.manifests))
    if not manifests:
        raise BadParams(f"no manifests match {args.manifests!r}")
    # Each run gets the directory named by its manifest's file stem, so
    # two manifests with one stem would write the same files.
    by_stem = {}
    for path in manifests:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in by_stem:
            raise BadParams(f"manifests {by_stem[stem]} and {path} share "
                            f"the run directory name {stem!r}")
        by_stem[stem] = path
    root = _resolve_outdir(args.outdir, None)
    items = [(path, _makedirs(os.path.join(root, stem)))
             for stem, path in by_stem.items()]
    # A fork-started pool launches all its workers at the first submit.
    workers = min(args.jobs, len(items))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            summaries = list(pool.map(_sweep_worker, items))
    else:
        summaries = [_sweep_worker(it) for it in items]
    finite = [
        s["eps0_max"] for s in summaries
        if s["status"] == "ok" and s["eps0_max"] is not None
    ]
    corpus = min(finite) if finite else None
    corpus_out = None if corpus is None or math.isinf(corpus) else corpus
    payload = {
        "status": "ok" if all(s["status"] == "ok" for s in summaries)
        else "error",
        "runs": summaries,
        "corpus_eps0_max": corpus_out,
        "corpus_eps0_unbounded": corpus is not None and math.isinf(corpus),
    }
    summary_path = os.path.join(root, "sweep_summary.json")
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    traceio._write_atomic(summary_path, lambda fh: fh.write(text))
    print(json.dumps({"status": payload["status"],
                      "summary": summary_path,
                      "runs": len(summaries)}, sort_keys=True))
    return 0 if payload["status"] == "ok" else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as BadParams, so that it ends in the one-line
    JSON error like every other failure; its subparsers share the class."""

    def error(self, message):
        raise BadParams(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="calabilab",
        description="Flow runs, trace analysis and acceptance verification "
                    "for the Calabi-flow laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run manifest")
    p_run.add_argument("manifest", help="JSON manifest with config/initial")
    p_run.add_argument("--outdir", default=None,
                       help=f"output directory (default: manifest, then "
                            f"${OUT_ENV}, then cwd)")
    p_run.add_argument("--resume", default=None,
                       help="checkpoint file to resume from")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="scale analysis of a trace file")
    p_an.add_argument("trace")
    p_an.add_argument("--alpha", type=float, default=0.5)
    p_an.add_argument("--eps0", type=float, default=None)
    p_an.add_argument("--t-sing", dest="t_sing", type=float, default=None)
    p_an.add_argument("--outdir", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES))
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="run many manifests in parallel")
    p_sw.add_argument("manifests", help="glob of manifest files")
    p_sw.add_argument("--jobs", type=int, default=2,
                      help="worker processes, at most one per manifest")
    p_sw.add_argument("--outdir", default=None)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CalabiLabError as exc:
        print(json.dumps({
            "status": "error",
            "error_class": type(exc).__name__,
            "message": str(exc),
        }, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
