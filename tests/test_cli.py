"""Command-line surface: run, analyze, sweep, error reporting."""

import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from calabilab import cli, presets, scale, traceio


def write_manifest(tmp_path, name="m.json", **overrides):
    manifest = {
        "config": {
            "backend": "torus", "resolution": 16, "dt_init": 1e-3,
            "dt_min": 1e-8, "dt_max": 0.1, "t_end": 0.3,
            "sample_interval": 0.1, "checkpoint_interval": 0.1,
        },
        "initial": {"preset": "flat"},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            manifest[key] = {**manifest.get(key, {}), **val}
        else:
            manifest[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return str(path)


def violating_trace():
    """A seeded 700-sample sawtooth trace, so ``analyze`` strides it.  Three
    growth plateaus collapse within a few samples (barrier violations and
    a growth anchor); a stretch of sup |S| above Q and one of Q = 0 make
    windows inapplicable.  Built with arithmetic only, so its bits do not
    depend on a platform's exp or log."""
    rng = np.random.default_rng(20261018)
    t = 0.01 * np.arange(700)
    q = 1.0 + 0.05 * rng.random(t.size)
    for start, height in ((1.8, 4.0), (3.9, 6.0), (5.6, 3.0)):
        ramp = np.clip((t - start) / 0.1, 0.0, 1.0)
        fall = np.clip((t - start - 0.5) / 0.03, 0.0, 1.0)
        q += height * ramp * (1.0 - fall)
    o = 0.5 + 0.4 * rng.random(t.size)
    o[(t > 6.2) & (t < 6.3)] = 3.0
    q[(t > 6.75) & (t < 6.8)] = 0.0
    return scale.synthetic_trace("sawtooth", times=t, q=q, p=0.5 * q * q,
                                 o=o)


def suffix(trace, t_c, like):
    """The samples of ``trace`` after ``t_c``, with the run fields (times,
    termination, metadata) of the trace ``like``."""
    rows = trace.columns["t"] > t_c
    return scale.Trace.from_columns(
        {name: col[rows] for name, col in trace.columns.items()},
        like.t_start, like.t_end, like.termination, like.metadata,
        {name: mask[rows] for name, mask in trace.absent.items()})


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    return code, payload


class TestRun:
    def test_flat_preset_reports_zero_energy(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys
        )
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["final_energy"] == 0.0
        assert payload["termination"] == "completed"
        assert os.path.exists(payload["trace"])

    def test_seeded_rerun_is_bit_identical(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 7, "amplitude": 0.2},
        )
        traces = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code, payload = run_cli(
                ["run", manifest, "--outdir", str(out)], capsys
            )
            assert code == 0
            traces.append(open(payload["trace"], "rb").read())
        assert traces[0] == traces[1]

    def test_over_amplitude_refused(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 1, "amplitude": 1.5},
        )
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert payload["status"] == "error"
        assert payload["error_class"] == "BadParams"
        assert "amplitude" in payload["message"]

    def test_resume_from_checkpoint(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(out)], capsys
        )
        assert code == 0
        full = traceio.read_trace(payload["trace"])
        ckpt = out / "checkpoint_0001.ckpt"
        out2 = tmp_path / "resumed"
        code, payload2 = run_cli(
            ["run", manifest, "--outdir", str(out2), "--resume", str(ckpt)],
            capsys,
        )
        assert code == 0
        resumed = traceio.read_trace(payload2["trace"])
        t_c = traceio.read_checkpoint(str(ckpt)).state.t
        assert resumed == suffix(full, t_c, resumed)

    def test_resume_into_the_original_outdir_keeps_its_trace(
            self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(out)], capsys
        )
        assert code == 0
        original = (out / "run.trace").read_bytes()
        full = traceio.read_trace(payload["trace"])
        ckpt = out / "checkpoint_0001.ckpt"
        code, payload2 = run_cli(
            ["run", manifest, "--outdir", str(out), "--resume", str(ckpt)],
            capsys,
        )
        assert code == 0
        assert payload2["trace"] == str(out / "run.from_checkpoint_0001.trace")
        assert (out / "run.trace").read_bytes() == original
        t_c = traceio.read_checkpoint(str(ckpt)).state.t
        resumed = traceio.read_trace(payload2["trace"])
        assert resumed == suffix(full, t_c, resumed)

    @pytest.mark.parametrize("backend,resolution",
                             [("torus", 48), ("toric1d", 4096)])
    def test_resolution_refused_by_the_backend(self, tmp_path, capsys,
                                               backend, resolution):
        manifest = write_manifest(
            tmp_path, config={"backend": backend, "resolution": resolution},
            initial={"preset": "random", "seed": 1, "amplitude": 0.1},
        )
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert f"resolution {resolution}" in payload["message"]

    def test_config_mismatch_on_resume(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        other = write_manifest(
            tmp_path, name="m2.json",
            config={"backend": "torus", "resolution": 16, "dt_init": 2e-3,
                    "dt_min": 1e-8, "dt_max": 0.1, "t_end": 0.3,
                    "sample_interval": 0.1},
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        code, payload = run_cli(
            ["run", other, "--outdir", str(tmp_path / "o2"),
             "--resume", str(out / "checkpoint_0001.ckpt")], capsys
        )
        assert code == 1
        assert payload["error_class"] == "SchemaMismatch"

    @pytest.mark.parametrize("config_text", [None, "{not json"])
    def test_unreadable_config_file(self, tmp_path, capsys, config_text):
        if config_text is not None:
            (tmp_path / "cfg.json").write_text(config_text)
        manifest = write_manifest(tmp_path, config="cfg.json")
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert payload["status"] == "error"
        assert payload["error_class"] == "BadParams"
        assert "cfg.json" in payload["message"]

    @pytest.mark.parametrize("undecodable", ["manifest", "config"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, undecodable):
        """A manifest, or the config file it names, that is not UTF-8 is
        the one-line BadParams error."""
        manifest = write_manifest(tmp_path, config="cfg.json")
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "trace_v2.trace")
        target = {"manifest": manifest,
                  "config": tmp_path / "cfg.json"}[undecodable]
        with open(golden, "rb") as src, open(target, "wb") as dst:
            dst.write(src.read())
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert f"unreadable {undecodable}" in payload["message"]


def one_line_error(args, capsys):
    """Exit code and payload of a failing command, whose stdout is the
    single JSON error line."""
    code = cli.main(args)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["status"] == "error"
    return code, payload


class TestManifestValues:
    @pytest.mark.parametrize("initial", [
        {"seed": "abc"}, {"seed": -1}, {"seed": 1.7}, {"seed": True},
        {"amplitude": "x"}, {"amplitude": math.nan}, {"amplitude": [0.3]},
        {"kmax": "x"}, {"kmax": 0}, {"kmax": 2.5},
        {"allow_overamplitude": "yes"}, {"allow_overamplitude": 1},
        {"kmax": 2, "preset": "rough"},
        # The default grid is the N=16 torus, which resolves |k| <= 8.
        {"kmax": 9}, {"kmax": 10 ** 6},
    ])
    def test_initial_value_refused(self, tmp_path, capsys, initial):
        manifest = write_manifest(
            tmp_path, initial={"preset": "random", **initial})
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert next(iter(initial)) in payload["message"]

    @pytest.mark.parametrize("kmax", [16, 2 * 10 ** 5])
    def test_toric_kmax_above_the_top_degree_refused(self, tmp_path, capsys,
                                                     kmax):
        # M=16 Lobatto nodes resolve Chebyshev degrees up to 15; higher
        # degrees alias onto lower ones.
        manifest = write_manifest(
            tmp_path, config={"backend": "toric1d"},
            initial={"preset": "random", "kmax": kmax})
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert f"kmax {kmax} exceeds 15" in payload["message"]

    @pytest.mark.parametrize("backend, kmax", [("torus", 8), ("toric1d", 15)])
    def test_kmax_at_the_grid_limit_accepted(self, backend, kmax):
        state = presets.build_initial(
            backend, 16, {"preset": "random", "seed": 1, "kmax": kmax})
        assert np.all(np.isfinite(state.values))

    @pytest.mark.parametrize("initial",
                             ["flat", 5, None, [["preset", "flat"]]])
    def test_initial_block_that_is_not_an_object_refused(
            self, tmp_path, capsys, initial):
        manifest = write_manifest(tmp_path, initial=initial)
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert "initial" in payload["message"]

    def test_outdir_that_is_not_a_string_refused(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, outdir=5)
        code, payload = one_line_error(["run", manifest], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert "outdir" in payload["message"]

    @pytest.mark.parametrize("field, value", [
        ("t_end", math.nan), ("t_end", math.inf), ("dt_max", math.inf),
        ("sample_interval", math.nan), ("energy_tol", math.nan),
        ("stop_energy", math.nan), ("checkpoint_interval", math.nan),
        ("checkpoint_interval", -1.0),
        pytest.param("t_end", 10 ** 400, id="t_end-int-beyond-float"),
        ("t_end", True), ("dt_init", True), ("t_end", "1.0"),
    ])
    def test_config_value_refused(self, tmp_path, capsys, field, value):
        # The flat state is at any positive stop_energy, so an accepted
        # config stops at once instead of running to an infinite t_end.
        manifest = write_manifest(
            tmp_path, config={"stop_energy": 1.0, field: value})
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["run", "analyze", "sweep"])
    @pytest.mark.parametrize("below", [False, True],
                             ids=["is-a-file", "below-a-file"])
    def test_directory_that_cannot_be_made(self, tmp_path, capsys, command,
                                           below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        outdir = blocker / "x" if below else blocker
        if command == "analyze":
            target = str(tmp_path / "t.trace")
            traceio.write_trace(
                scale.synthetic_trace("constant", value=1.0, n=11), target)
        else:
            target = write_manifest(tmp_path)
        code = cli.main([command, target, "--outdir", str(outdir)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["status"] == "error"
        assert payload["error_class"] == "BadParams"
        assert str(outdir) in payload["message"]
        assert blocker.read_text() == "not a directory\n"

    def test_sweep_run_directory_that_cannot_be_made(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, name="sweep_1.json")
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "sweep_1").write_text("")
        code = cli.main(["sweep", manifest, "--outdir", str(runs)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["error_class"] == "BadParams"
        assert "sweep_1" in payload["message"]
        assert sorted(os.listdir(runs)) == ["sweep_1"]


class TestDamagedInputs:
    def test_checkpoint_time_that_is_not_a_number(self, tmp_path, capsys,
                                                  edit_header):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        ckpt = out / "checkpoint_0001.ckpt"
        edit_header(ckpt, lambda h: h.update(t="soon"))
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "o2"),
             "--resume", str(ckpt)], capsys)
        assert code == 1
        assert payload["error_class"] == "CorruptFile"

    @pytest.mark.parametrize("key, value", [
        ("dt", "x"), ("dt", float("nan")), ("dt", 0), ("dt", -1),
        ("streak", "x"), ("streak", 1.5), ("next_sample_t", float("nan")),
        ("checkpoint_index", -3),
    ])
    def test_checkpoint_engine_value_that_cannot_resume(
            self, tmp_path, capsys, key, value, edit_header):
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        ckpt = out / "checkpoint_0001.ckpt"
        edit_header(ckpt, lambda h: h["engine"].update({key: value}))
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "o2"),
             "--resume", str(ckpt)], capsys)
        assert code == 1
        assert payload["error_class"] == "CorruptFile"
        assert key in payload["message"]

    def test_checkpoint_step_size_above_dt_max(self, tmp_path, capsys,
                                               edit_header):
        # Such a checkpoint used to resume with one step of its dt.
        manifest = write_manifest(
            tmp_path,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        ckpt = out / "checkpoint_0001.ckpt"
        edit_header(ckpt, lambda h: h["engine"].update(dt=2.5))
        code, payload = one_line_error(
            ["run", manifest, "--outdir", str(tmp_path / "o2"),
             "--resume", str(ckpt)], capsys)
        assert code == 1
        assert payload["error_class"] == "CorruptFile"
        assert "dt 2.5" in payload["message"]

    def test_final_checkpoint_of_a_run_without_checkpoints_resumes(
            self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            config={"checkpoint_interval": 0.0, "t_end": 0.2},
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        final = out / "final.ckpt"
        assert traceio.read_checkpoint(final).engine["next_checkpoint_t"] \
            == math.inf
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "o2"),
             "--resume", str(final)], capsys)
        assert code == 0, payload
        assert payload["termination"] == "completed"

    @pytest.mark.parametrize("interval, key, value", [
        (0.0, "next_checkpoint_t", 0.15),
        (0.1, "next_checkpoint_t", -1e300),
        (0.0, "next_sample_t", -1e300),
    ])
    def test_checkpoint_cursor_that_would_stall_the_resume(
            self, tmp_path, capsys, edit_header, interval, key, value):
        # A written checkpoint has both cursors past its time, and a finite
        # next_checkpoint_t only with an interval to advance it by.  These
        # cursors used to spin the resumed run's catch-up loops forever,
        # so the resume runs in a child process under a timeout.
        manifest = write_manifest(
            tmp_path,
            config={"checkpoint_interval": interval, "t_end": 0.2},
            initial={"preset": "random", "seed": 5, "amplitude": 0.2},
        )
        out = tmp_path / "out"
        run_cli(["run", manifest, "--outdir", str(out)], capsys)
        ckpt = out / "final.ckpt"

        def damage(head):
            # Moved back to t 0.1, so the resume has steps to take, with
            # the cursors a run keeps there (sample_interval 0.1); then the
            # cursor under test is damaged.
            head["t"] = 0.1
            head["engine"].update(
                next_sample_t=0.1 + 0.1,
                next_checkpoint_t=0.1 + interval if interval else math.inf)
            head["engine"][key] = value

        edit_header(ckpt, damage)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "calabilab", "run", manifest, "--outdir",
             str(tmp_path / "o2"), "--resume", str(ckpt)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error_class"] == "CorruptFile"
        assert key in payload["message"]

    @pytest.mark.parametrize("field", ["sample_interval",
                                       "checkpoint_interval"])
    def test_interval_below_the_float_spacing_is_refused(self, tmp_path,
                                                         field):
        # Such an interval used to spin run's cursor catch-up loop
        # forever, so the run is a child process under a timeout.
        manifest = write_manifest(
            tmp_path, config={"t_end": 0.01, "dt_max": 0.1, field: 1e-300})
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "calabilab", "run", manifest, "--outdir",
             str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error_class"] == "BadParams"
        assert field in payload["message"]

    def test_missing_checkpoint_for_resume(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.ckpt"
        code, payload = one_line_error(
            ["run", write_manifest(tmp_path), "--outdir",
             str(tmp_path / "out"), "--resume", str(missing)], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert "nowhere.ckpt" in payload["message"]

    @pytest.mark.parametrize("command", ["analyze", "resume"])
    def test_input_that_is_not_text(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe not text\n")
        if command == "analyze":
            args = ["analyze", str(bad), "--outdir", str(tmp_path)]
        else:
            args = ["run", write_manifest(tmp_path), "--outdir",
                    str(tmp_path / "out"), "--resume", str(bad)]
        code, payload = one_line_error(args, capsys)
        assert code == 1
        assert payload["error_class"] == "CorruptFile"

    @pytest.mark.parametrize("damage", ["t_start", "t_end", "repeat", "nan",
                                        "metadata", "n_samples"])
    def test_damaged_trace_for_analyze(self, tmp_path, capsys, damage,
                                       edit_header, set_trace_value):
        path = tmp_path / "d.trace"
        traceio.write_trace(
            scale.synthetic_trace("constant", value=1.0, n=11), path)
        if damage in ("repeat", "nan"):
            times = traceio.read_trace(path).columns["t"]
            set_trace_value(path, "t", 2,
                            times[1] if damage == "repeat" else math.nan)
        else:
            # n_samples becomes the string of its own value.
            bad = {"t_start": "soon", "t_end": None, "metadata": [1]}
            edit_header(path, lambda head: head.update(
                {damage: bad.get(damage, str(head[damage]))}))
        code, payload = one_line_error(
            ["analyze", str(path), "--outdir", str(tmp_path)], capsys)
        assert code == 1
        assert payload["error_class"] == "CorruptFile"


class TestAtomicOutputs:
    def test_failed_series_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "run.ca.dat"
        cli._write_series(path, [(0.0, 1.0), (0.5, 0.25)])
        before = path.read_bytes()

        def pairs():
            yield 0.0, 2.0
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            cli._write_series(path, pairs())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_failed_analyze_series_keep_the_earlier_files(
            self, tmp_path, capsys, monkeypatch):
        # The report is written first and the curvature scale second; a
        # failure in the second leaves both earlier files and no
        # temporary file.
        trace_path = tmp_path / "c.trace"
        traceio.write_trace(
            scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=6.0),
            trace_path)
        args = ["analyze", str(trace_path), "--outdir", str(tmp_path)]
        code, payload = run_cli(args, capsys)
        assert code == 0
        outputs = [payload["report"], *payload["series"]]
        assert len(outputs) == 2
        before = {path: open(path, "rb").read() for path in outputs}
        listing = sorted(os.listdir(tmp_path))

        def failing(pairs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_lines", failing)
        with pytest.raises(OSError):
            cli.main(args)
        assert {path: open(path, "rb").read() for path in before} == before
        assert sorted(os.listdir(tmp_path)) == listing

    def test_failed_sweep_summary_keeps_the_earlier_file(
            self, tmp_path, capsys, monkeypatch):
        write_manifest(tmp_path, name="sweep_1.json")
        runs = tmp_path / "runs"
        args = ["sweep", str(tmp_path / "sweep_*.json"), "--jobs", "1",
                "--outdir", str(runs)]
        code, payload = run_cli(args, capsys)
        assert code == 0
        summary = runs / "sweep_summary.json"
        before = summary.read_bytes()
        write_atomic = traceio._write_atomic

        def failing(path, write, *mode):
            if os.path.basename(path) != summary.name:
                return write_atomic(path, write, *mode)

            def half(fh):
                fh.write("{")
                raise OSError("disk full")

            return write_atomic(path, half)

        monkeypatch.setattr(traceio, "_write_atomic", failing)
        with pytest.raises(OSError):
            cli.main(args)
        assert summary.read_bytes() == before
        assert sorted(os.listdir(runs)) == ["sweep_1", summary.name]


class TestAnalyze:
    def test_type_one_synthetic(self, tmp_path, capsys):
        tr = scale.synthetic_trace("typeI", t_sing=5.0, t0=0.0, t1=4.99,
                                   n=200)
        trace_path = tmp_path / "syn.trace"
        traceio.write_trace(tr, trace_path)
        code, payload = run_cli(
            ["analyze", str(trace_path), "--t-sing", "5.0",
             "--outdir", str(tmp_path)], capsys
        )
        assert code == 0
        report = traceio.read_report(payload["report"])
        assert report["rates"]["type1"] is True
        assert abs(report["rates"]["sup_qroot"] - 1.0) < 1e-9
        for series in payload["series"]:
            assert os.path.exists(series)

    def test_idempotent_report_bytes(self, tmp_path, capsys):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=6.0)
        trace_path = tmp_path / "c.trace"
        traceio.write_trace(tr, trace_path)
        blobs = []
        for _ in range(2):
            code, payload = run_cli(
                ["analyze", str(trace_path), "--outdir", str(tmp_path)],
                capsys,
            )
            assert code == 0
            blobs.append(open(payload["report"], "rb").read())
        assert blobs[0] == blobs[1]

    def test_flat_run_has_no_doubling(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        code, payload = run_cli(
            ["run", manifest, "--outdir", str(tmp_path / "out")], capsys
        )
        code, payload = run_cli(
            ["analyze", payload["trace"], "--outdir", str(tmp_path)], capsys
        )
        assert code == 0
        assert payload["doubling_segments"] == 0

    @pytest.mark.parametrize("config, resume", [
        ({}, True),                        # a resume from final.ckpt
        ({"stop_energy": 1e6}, False),     # stops before its first step
    ])
    def test_one_sample_trace_that_run_writes(self, tmp_path, capsys,
                                              config, resume):
        manifest = write_manifest(
            tmp_path, config=config,
            initial={"preset": "random", "seed": 5, "amplitude": 0.2})
        out = tmp_path / "out"
        code, payload = run_cli(["run", manifest, "--outdir", str(out)],
                                capsys)
        if resume:
            code, payload = run_cli(
                ["run", manifest, "--outdir", str(out),
                 "--resume", str(out / "final.ckpt")], capsys)
        assert code == 0 and payload["samples"] == 1
        code, payload = run_cli(
            ["analyze", payload["trace"], "--outdir", str(tmp_path)], capsys)
        assert code == 0, payload
        report = traceio.read_report(payload["report"])
        assert report["doubling"] == report["barrier"] == []
        assert report["curvature_scale"] == []
        assert math.isnan(report["growth"]["anchor"])

    def test_report_and_series_bytes_are_pinned(self, tmp_path, capsys):
        # sha256 of the files analyze wrote for this trace when the
        # barrier check ran one window at a time.
        pinned = {
            "v.report.json": "6e088319083f19645900f06f0c099cfe"
                             "ed872b2532f50ff973f00f120e7e24d8",
            "v.curvature_scale.dat": "b41369e73a31bbdbe6b829674086b04b"
                                     "a02767959d99799817ee6e5f537f38c9",
        }
        trace = violating_trace()
        assert len(trace) > scale.MAX_POINTS
        path = tmp_path / "v.trace"
        traceio.write_trace(trace, path)
        code, payload = run_cli(
            ["analyze", str(path), "--outdir", str(tmp_path)], capsys)
        assert code == 0
        report = traceio.read_report(payload["report"])
        assert {b["verdict"] for b in report["barrier"]} \
            == {"holds", "violated", "inapplicable"}
        digests = {}
        for out in [payload["report"], *payload["series"]]:
            with open(out, "rb") as fh:
                digests[os.path.basename(out)] = \
                    hashlib.sha256(fh.read()).hexdigest()
        assert digests == pinned

    def test_column_recipe_gives_the_bytes_analyze_once_wrote(
            self, tmp_path):
        # sha256 of the trace-column files analyze wrote for this trace
        # before it stopped copying columns out; the README's recipe
        # prints a column as the same bytes.
        pinned = {
            "calabi_energy": "ff4c662672e9d43e3808e1ede0854a3b"
                             "691fe040807afdb4e8245985243dcb1b",
            "sup_scalar": "bd99debbf04621f1f6a092eb4ac4c5fc"
                          "b24cfd3eb4328a2551a5d76b85f719c9",
            "sup_hess_scalar": "526ca2e105cfd3370cd0e1fa8f4e85d1"
                               "fed19848beba5e2ccacc3a949dee7f0d",
            "sup_curv": "d3d20d76f41be95649fe7762ad571b1f"
                        "194b05562e69f5caf6817ee33afa8df8",
        }
        path = tmp_path / "v.trace"
        traceio.write_trace(violating_trace(), path)
        trace = traceio.read_trace(path)
        digests = {}
        for column in pinned:
            t, y = trace.series(column)
            text = "".join(f"{a!r} {b!r}\n"
                           for a, b in zip(t.tolist(), y.tolist()))
            digests[column] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == pinned

    def test_outputs_are_the_report_and_the_curvature_scale(self, tmp_path,
                                                            capsys):
        path = tmp_path / "v.trace"
        traceio.write_trace(violating_trace(), path)
        out = tmp_path / "out"
        out.mkdir()
        code, payload = run_cli(
            ["analyze", str(path), "--outdir", str(out)], capsys)
        assert code == 0
        assert sorted(os.listdir(out)) == ["v.curvature_scale.dat",
                                           "v.report.json"]
        assert payload["series"] == [str(out / "v.curvature_scale.dat")]

    def test_sample_whose_curvature_squared_underflows(self, tmp_path,
                                                       capsys):
        # Q(t0)^2 = 0 makes the look-back window infinite: it leaves the
        # trace, so that time has no barrier report.
        t = np.linspace(0.0, 4.0, 41)
        q = np.ones_like(t)
        q[30] = 1e-200
        path = tmp_path / "u.trace"
        traceio.write_trace(
            scale.synthetic_trace("sawtooth", times=t, q=q), path)
        code, payload = run_cli(
            ["analyze", str(path), "--outdir", str(tmp_path)], capsys)
        assert code == 0
        report = traceio.read_report(payload["report"])
        assert 3.0 not in [b["t0"] for b in report["barrier"]]

    @pytest.mark.parametrize("option, value", [
        ("--eps0", "0"), ("--eps0", "-1"), ("--eps0", "nan"),
        ("--eps0", "inf"), ("--t-sing", "nan"), ("--t-sing", "inf"),
    ])
    def test_non_finite_or_non_positive_option_refused(
            self, tmp_path, capsys, option, value):
        path = tmp_path / "v.trace"
        traceio.write_trace(violating_trace(), path)
        out = tmp_path / "out"
        code, payload = one_line_error(
            ["analyze", str(path), option, value, "--outdir", str(out)],
            capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert option in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "nan", "0", "1"])
    def test_alpha_outside_the_unit_interval_refused(self, tmp_path, capsys,
                                                     value):
        # With --t-sing before every sample no rate uses alpha, so only a
        # check ahead of the analysis can refuse it.
        path = tmp_path / "v.trace"
        traceio.write_trace(violating_trace(), path)
        out = tmp_path / "out"
        code, payload = one_line_error(
            ["analyze", str(path), "--alpha", value, "--t-sing", "-1",
             "--outdir", str(out)], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert "--alpha" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_curvature_ends_a_doubling_run(self, tmp_path, bad):
        # A non-finite sup |Rm| ends a run of positive samples.  Taken
        # into a run, an inf lets the doubled level reach inf and one
        # crossing repeat without end while the segment list grows, so
        # analyze runs in a child process under a timeout and an
        # address-space cap.  Elsewhere such a sample is unbounded
        # curvature, nan and inf alike, and no RuntimeWarning is raised.
        import resource

        path = tmp_path / "n.trace"
        traceio.write_trace(
            scale.synthetic_trace("sawtooth", times=[0.0, 1.0, 2.0, 3.0, 4.0],
                                  q=[1.0, 3.0, bad, 1.0, 5.0]), path)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        cap = 1 << 30
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "calabilab", "analyze", str(path), "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert done.returncode == 0, done.stdout + done.stderr
        report = traceio.read_report(json.loads(done.stdout)["report"])
        assert [(d["t0"], d["t1"]) for d in report["doubling"]] \
            == [(0.0, 0.5), (3.0, 3.25), (3.25, 3.75)]
        # The scale is 0 wherever every look-back of positive length
        # meets the sample or a cell beside it.  The nan sample used to
        # leave the scale at its caps 2, 3 and 4.
        assert report["curvature_scale"] == [
            [1.0, 1 / 9], [2.0, 0.0], [3.0, 0.0],
            [4.0, pytest.approx(0.04, rel=1e-9)]]
        # t0 = 2 has no finite Q(t0); the window [2, 3] of t0 = 3 holds
        # the sample.  Both used to read ``holds``.
        assert report["barrier"] == [
            {"t0": 1.0, "verdict": "holds", "window_start": 1 - 1 / 9,
             "first_violation": None, "margin": 3.0},
            {"t0": 2.0, "verdict": "inapplicable", "window_start": 2.0,
             "first_violation": None, "margin": math.inf},
            {"t0": 3.0, "verdict": "violated", "window_start": 2.0,
             "first_violation": 2.0, "margin": -math.inf},
            {"t0": 4.0, "verdict": "holds", "window_start": 3.96,
             "first_violation": None, "margin": 5.0}]
        assert (report["growth"]["anchor"], report["growth"]["eps0_max"]) \
            == (1.0, 0.0)
        assert [report["rates"][k] for k in ("sup_oq", "sup_qroot",
                                             "sup_q2t")] == [math.inf] * 3

    def test_option_refused_before_the_trace_is_read(self, tmp_path,
                                                     capsys):
        code, payload = one_line_error(
            ["analyze", str(tmp_path / "nowhere.trace"), "--eps0", "0"],
            capsys)
        assert code == 1
        assert "--eps0" in payload["message"]

    def test_unreadable_trace_reports_error_class(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("garbage\n")
        code, payload = run_cli(
            ["analyze", str(bad), "--outdir", str(tmp_path)], capsys
        )
        assert code == 1
        assert payload["error_class"] == "CorruptFile"

    def test_missing_trace_reports_bad_params(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.trace"
        code, payload = run_cli(
            ["analyze", str(missing), "--outdir", str(tmp_path)], capsys
        )
        assert code == 1
        assert payload["status"] == "error"
        assert payload["error_class"] == "BadParams"
        assert "nowhere.trace" in payload["message"]


class TestSweep:
    def test_two_manifests_aggregate(self, tmp_path, capsys):
        for seed in (1, 2):
            write_manifest(
                tmp_path, name=f"sweep_{seed}.json",
                initial={"preset": "random", "seed": seed, "amplitude": 0.2},
            )
        code, payload = run_cli(
            ["sweep", str(tmp_path / "sweep_*.json"), "--jobs", "2",
             "--outdir", str(tmp_path / "runs")], capsys
        )
        assert code == 0
        assert payload["runs"] == 2
        summary = json.loads(open(payload["summary"]).read())
        assert summary["status"] == "ok"
        assert len(summary["runs"]) == 2
        assert {os.path.basename(r["manifest"]) for r in summary["runs"]} \
            == {"sweep_1.json", "sweep_2.json"}

    @pytest.mark.parametrize("n_manifests, jobs, want", [
        (1, 64, []), (2, 64, [2]), (3, 2, [2]), (2, 1, []),
    ])
    def test_pool_has_at_most_one_worker_per_manifest(
            self, tmp_path, capsys, monkeypatch, n_manifests, jobs, want):
        # A fork-started pool forks all its workers at the first submit,
        # so the pool is sized by the manifests, not by --jobs alone.
        sizes = []

        class SerialPool:
            """Records its size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        for i in range(n_manifests):
            write_manifest(tmp_path, name=f"sweep_{i}.json")
        code, payload = run_cli(
            ["sweep", str(tmp_path / "sweep_*.json"), "--jobs", str(jobs),
             "--outdir", str(tmp_path / "runs")], capsys)
        assert code == 0
        assert payload["runs"] == n_manifests
        assert sizes == want

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        manifest = write_manifest(tmp_path, name="sweep_1.json")
        code, payload = one_line_error(
            ["sweep", manifest, "--jobs", jobs,
             "--outdir", str(tmp_path / "runs")], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        assert "--jobs" in payload["message"]
        assert not (tmp_path / "runs").exists()

    def test_empty_glob(self, tmp_path, capsys):
        code, payload = run_cli(
            ["sweep", str(tmp_path / "none_*.json")], capsys
        )
        assert code == 1
        assert payload["error_class"] == "BadParams"

    def test_manifests_sharing_a_stem_refused(self, tmp_path, capsys):
        # Both runs would write runs/run/: refused before anything is made.
        for sub, seed in (("a", 1), ("b", 2)):
            (tmp_path / sub).mkdir()
            write_manifest(
                tmp_path / sub, name="run.json",
                initial={"preset": "random", "seed": seed, "amplitude": 0.2})
        runs = tmp_path / "runs"
        code, payload = one_line_error(
            ["sweep", str(tmp_path / "*" / "run.json"), "--jobs", "2",
             "--outdir", str(runs)], capsys)
        assert code == 1
        assert payload["error_class"] == "BadParams"
        for sub in ("a", "b"):
            assert str(tmp_path / sub / "run.json") in payload["message"]
        assert not runs.exists()


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["run"],
    ["verify", "nosuch"],
    ["sweep", "x", "--jobs", "abc"],
    ["analyze", "x", "--alpha", "zz"],
])
def test_usage_error_is_one_json_line(argv, capsys):
    code, payload = one_line_error(argv, capsys)
    assert code == 1
    assert payload["error_class"] == "BadParams"


def test_cross_process_determinism(tmp_path):
    # Two separate interpreter processes must produce byte-identical
    # trace files from the same seeded manifest.
    import subprocess
    import sys

    manifest = write_manifest(
        tmp_path, initial={"preset": "random", "seed": 9, "amplitude": 0.2}
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    blobs = []
    for tag in ("p1", "p2"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "calabilab", "run", manifest,
             "--outdir", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        blobs.append((out / "run.trace").read_bytes())
    assert blobs[0] == blobs[1]


def test_no_run_path_imports_scipy(tmp_path):
    # numpy serves every solve; importing scipy would take most of a CLI
    # process's start-up, so analyze, torus runs and toric steps never
    # load it.
    script = """
import sys
from calabilab import cli, flow, presets, scale, traceio
trace = sys.argv[1] + "/a.trace"
traceio.write_trace(scale.synthetic_trace("typeI", t_sing=6.0, t1=5.9), trace)
assert cli.main(["analyze", trace, "--outdir", sys.argv[1]]) == 0
assert cli.main(["run", sys.argv[2], "--outdir", sys.argv[1]]) == 0
state = presets.build_initial(
    "toric1d", 32, {"preset": "random", "seed": 1, "amplitude": 0.2})
assert flow.step(state, 1e-3).accepted
assert "scipy" not in sys.modules
"""
    manifest = write_manifest(
        tmp_path, initial={"preset": "random", "seed": 9, "amplitude": 0.2})
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), manifest],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_command_reports_per_criterion(capsys):
    # The oracle suite is pure trace algebra plus three short runs; the
    # command prints one line per criterion and exits zero on success.
    code = cli.main(["verify", "oracles"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


def test_outdir_environment_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
    manifest = write_manifest(tmp_path)
    code, payload = run_cli(["run", manifest], capsys)
    assert code == 0
    assert payload["trace"].startswith(str(tmp_path / "envout"))
