"""Serialization: round trips, golden files, error taxonomy, hashing."""

import json
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calabilab import flow, geometry, presets, scale, traceio
from calabilab.diagnostics import (OPTIONAL_FIELDS, SAMPLE_SCHEMA,
                                   DiagnosticsSample)
from calabilab.errors import CorruptFile, SchemaMismatch, VersionMismatch

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# A config that TestCheckpoint.ENGINE fits at t = 0, the time of the
# states its checkpoints hold: each cursor lies one interval past t.
ENGINE_CFG = flow.FlowConfig(backend="torus", resolution=8, dt_init=0.125,
                             dt_min=1e-6, dt_max=0.5, t_end=4.0,
                             sample_interval=1.5, checkpoint_interval=2.0)


def resumed_engine(path, cfg=ENGINE_CFG):
    """The engine state of the checkpoint at ``path``, read as
    ``flow.resume`` reads it."""
    ckpt = traceio.read_checkpoint(path)
    return flow.EngineState.from_dict(ckpt.engine, cfg, ckpt.state.t)


def small_trace(n=50):
    times = np.linspace(0.0, 5.0, n)
    return scale.synthetic_trace("sawtooth", times=times,
                                 q=1.0 + 0.5 * np.sin(times),
                                 p=np.abs(np.cos(times)))


class TestTraceRoundTrip:
    def test_empty_trace(self, tmp_path):
        tr = scale.Trace((), 0.0, 0.0, "completed", {"backend": "torus"})
        path = tmp_path / "empty.trace"
        traceio.write_trace(tr, path)
        back = traceio.read_trace(path)
        assert len(back) == 0
        assert back == tr

    def test_round_trip_is_bit_exact(self, tmp_path):
        tr = small_trace()
        path = tmp_path / "t.trace"
        traceio.write_trace(tr, path)
        back = traceio.read_trace(path)
        assert back == tr
        # Writing the parse again reproduces the bytes exactly.
        path2 = tmp_path / "t2.trace"
        traceio.write_trace(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_ten_thousand_samples(self, tmp_path):
        tr = small_trace(n=10_000)
        path = tmp_path / "big.trace"
        traceio.write_trace(tr, path)
        assert traceio.read_trace(path) == tr

    def test_optional_fields_round_trip(self, tmp_path):
        state = presets.build_initial(
            "torus", 16, {"preset": "random", "seed": 1, "amplitude": 0.2}
        )
        cfg = flow.FlowConfig(backend="torus", resolution=16, dt_init=1e-3,
                              dt_min=1e-8, dt_max=0.1, t_end=0.2,
                              sample_interval=0.05)
        tr = flow.run(cfg, state).trace
        blank = tr.absent["evolution_residual"]
        assert not blank.all() and blank.any()
        path = tmp_path / "run.trace"
        traceio.write_trace(tr, path)
        assert traceio.read_trace(path) == tr


# Doubles whose repr reads back to the same bits: every finite value,
# both zeros and infinities, and the one nan that "nan" parses to.
values = st.one_of(st.floats(allow_nan=False), st.just(math.nan),
                   st.sampled_from([-0.0, math.inf, -math.inf]))


@st.composite
def sample_records(draw):
    times = sorted(draw(st.lists(st.floats(allow_nan=False,
                                           allow_infinity=False),
                                 max_size=12, unique=True)))
    n_required = len(SAMPLE_SCHEMA) - len(OPTIONAL_FIELDS)
    return [
        DiagnosticsSample(
            t, *draw(st.lists(values, min_size=n_required - 1,
                              max_size=n_required - 1)),
            *draw(st.lists(st.one_of(st.none(), values),
                           min_size=len(OPTIONAL_FIELDS),
                           max_size=len(OPTIONAL_FIELDS))))
        for t in times
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sample_records())
def test_round_trip_keeps_every_bit(tmp_path_factory, records):
    t_start = records[0].t if records else 0.0
    t_end = records[-1].t if records else 0.0
    tr = scale.Trace(records, t_start, t_end, "completed", {"n": 1})
    # The same record built from columns: blanks hold arbitrary values,
    # and each nan has its sign bit set.
    rows = [tuple(r) for r in records]
    columns = {name: [0.0 if row[i] is None else -row[i]
                      if math.isnan(row[i]) else row[i] for row in rows]
               for i, name in enumerate(SAMPLE_SCHEMA)}
    absent = {name: [row[SAMPLE_SCHEMA.index(name)] is None for row in rows]
              for name in OPTIONAL_FIELDS}
    twin = scale.Trace.from_columns(columns, t_start, t_end, "completed",
                                    {"n": 1}, absent)
    assert twin == tr
    path = tmp_path_factory.mktemp("rt") / "r.trace"
    traceio.write_trace(tr, path)
    back = traceio.read_trace(path)
    for name in SAMPLE_SCHEMA:
        assert np.array_equal(back.columns[name].view(np.int64),
                              tr.columns[name].view(np.int64))
    for name in OPTIONAL_FIELDS:
        assert np.array_equal(back.absent[name], tr.absent[name])
    assert back == tr
    again = path.with_name("again.trace")
    traceio.write_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


class TestTraceErrors:
    """Damage to the text of a version 1 trace (the v1 golden)."""

    def write(self, tmp_path, mutate):
        with open(os.path.join(GOLDEN, "trace_v1.trace")) as fh:
            lines = fh.read().splitlines()
        mutate(lines)
        path = tmp_path / "x.trace"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_body(self, tmp_path):
        path = self.write(tmp_path, lambda ls: ls.__delitem__(-1))
        with pytest.raises(CorruptFile):
            traceio.read_trace(path)

    def test_bad_token(self, tmp_path):
        def mutate(ls):
            ls[3] = ls[3].replace(".", "!", 1)

        with pytest.raises(CorruptFile):
            traceio.read_trace(self.write(tmp_path, mutate))

    def test_wrong_arity(self, tmp_path):
        def mutate(ls):
            ls[2] = ls[2] + " 1.0"

        with pytest.raises(CorruptFile):
            traceio.read_trace(self.write(tmp_path, mutate))

    def test_version_mismatch(self, tmp_path):
        def mutate(ls):
            head = json.loads(ls[0])
            head["format_version"] = 99
            ls[0] = json.dumps(head)

        with pytest.raises(VersionMismatch):
            traceio.read_trace(self.write(tmp_path, mutate))

    def test_schema_mismatch(self, tmp_path):
        def mutate(ls):
            head = json.loads(ls[0])
            head["schema"] = head["schema"][:-1]
            ls[0] = json.dumps(head)

        with pytest.raises(SchemaMismatch):
            traceio.read_trace(self.write(tmp_path, mutate))

    @pytest.mark.parametrize("schema", [None, 5])
    def test_schema_that_is_not_a_list(self, tmp_path, schema):
        def mutate(ls):
            head = json.loads(ls[0])
            head["schema"] = schema
            ls[0] = json.dumps(head)

        with pytest.raises(SchemaMismatch):
            traceio.read_trace(self.write(tmp_path, mutate))

    def test_kind_mismatch(self, tmp_path):
        # A binary payload that does not decode as text is never read.
        state = presets.build_initial(
            "torus", 8, {"preset": "random", "seed": 4, "amplitude": 0.3})
        path = tmp_path / "c.ckpt"
        traceio.write_checkpoint(state, {"dt": 1.0}, "ff", path)
        with pytest.raises(SchemaMismatch):
            traceio.read_trace(path)

    def test_not_a_header(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("not json at all\n")
        with pytest.raises(CorruptFile):
            traceio.read_trace(path)

    @pytest.mark.parametrize("key,value", [
        ("t_start", "soon"), ("t_end", None), ("t_start", True),
        ("t_end", float("nan")), ("t_start", float("-inf")), ("t_end", [5]),
    ])
    def test_header_times_must_be_finite_numbers(self, tmp_path, key, value):
        def set_time(new):
            def mutate(ls):
                head = json.loads(ls[0])
                head[key] = new
                ls[0] = json.dumps(head)

            return self.write(tmp_path, mutate)

        with pytest.raises(CorruptFile):
            traceio.read_trace(set_time(value))
        # An int time still reads (the golden's samples span [0, 0.3]).
        whole = 0 if key == "t_start" else 1
        assert getattr(traceio.read_trace(set_time(whole)), key) == whole

    @pytest.mark.parametrize("time", ["repeat", "nan", "inf", "past_end"])
    def test_sample_times_must_be_finite_increasing_and_inside(
            self, tmp_path, time):
        def mutate(ls):
            # The golden's last sample, ls[3], follows ls[2].
            row = ls[3].split()
            row[0] = {"repeat": ls[2].split()[0], "nan": "nan", "inf": "inf",
                      "past_end": "1e6"}[time]
            ls[3] = " ".join(row)

        with pytest.raises(CorruptFile):
            traceio.read_trace(self.write(tmp_path, mutate))


def v2_copy(tmp_path):
    """A copy of the version 2 golden trace (3 samples, t in [0, 0.3])."""
    path = tmp_path / "v2.trace"
    with open(os.path.join(GOLDEN, "trace_v2.trace"), "rb") as fh:
        path.write_bytes(fh.read())
    return path


def reencode(path, columns, optional):
    """Rewrite the version 2 trace at ``path`` with only ``columns``, in
    that order, and the masks of ``optional``, all from its own body."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    head = json.loads(data[:start])
    n, names, masked = head["n_samples"], head["columns"], head["optional"]
    values = np.frombuffer(data, "<f8", n * len(names), start)
    masks = np.frombuffer(data, np.uint8, offset=start + values.nbytes)
    values, masks = values.reshape(-1, n), masks.reshape(-1, n)
    head.update(columns=columns, optional=optional)
    path.write_bytes(
        json.dumps(head, sort_keys=True).encode() + b"\n"
        + b"".join(values[names.index(c)].tobytes() for c in columns)
        + b"".join(masks[masked.index(c)].tobytes() for c in optional))


@pytest.fixture
def grow_schema(monkeypatch):
    """``grow(name, optional=True)``: give this build's schema one more
    column, after the optional columns or after the required ones."""
    def grow(name, optional=True):
        at = len(SAMPLE_SCHEMA) if optional else scale._N_REQUIRED
        schema = SAMPLE_SCHEMA[:at] + (name,) + SAMPLE_SCHEMA[at:]
        masked = OPTIONAL_FIELDS + (name,) if optional else OPTIONAL_FIELDS
        for module in (scale, traceio):
            monkeypatch.setattr(module, "SAMPLE_SCHEMA", schema)
            monkeypatch.setattr(module, "OPTIONAL_FIELDS", masked)
        monkeypatch.setattr(scale, "_N_REQUIRED", len(schema) - len(masked))

    return grow


class TestTraceFormat:
    """Version 2: raw columns mapped by name, masks, and their damage."""

    def test_round_trip_keeps_signed_zeros_subnormals_and_extremes(
            self, tmp_path):
        big = np.finfo(float).max
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        special = [-0.0, tiny, -tiny, 2.5 * tiny, np.finfo(float).tiny / 3,
                   math.inf, -math.inf, math.nan, big, -big]
        n = len(special)
        columns = {name: np.zeros(n) for name in SAMPLE_SCHEMA}
        columns["t"] = np.arange(n, dtype=float)
        columns["sup_scalar"] = np.array(special)
        columns["futaki"] = np.array(special[::-1])
        tr = scale.Trace.from_columns(columns, 0.0, n, "completed", {},
                                      {"futaki": np.arange(n) % 3 == 0})
        path = tmp_path / "s.trace"
        traceio.write_trace(tr, path)
        back = traceio.read_trace(path)
        for name in ("sup_scalar", "futaki"):
            assert np.array_equal(back.columns[name].view(np.int64),
                                  tr.columns[name].view(np.int64))
        assert np.signbit(back.columns["sup_scalar"][0])
        assert np.array_equal(back.absent["futaki"], np.arange(n) % 3 == 0)
        assert back == tr

    @pytest.mark.parametrize("damage", [
        "one byte short", "one byte long", "mask byte 2", "no body",
    ])
    def test_damaged_body_is_corrupt(self, tmp_path, damage):
        path = v2_copy(tmp_path)
        data = path.read_bytes()
        path.write_bytes({
            "one byte short": data[:-1],
            "one byte long": data + b"\0",
            "mask byte 2": data[:-1] + b"\2",
            "no body": data[:data.index(b"\n") + 1],
        }[damage])
        with pytest.raises(CorruptFile):
            traceio.read_trace(path)

    def test_sample_count_too_large_to_hold_is_corrupt(self, tmp_path,
                                                       edit_header):
        path = v2_copy(tmp_path)
        edit_header(path, lambda head: head.update(n_samples=10**12))
        with pytest.raises(CorruptFile):
            traceio.read_trace(path)

    def test_read_holds_one_copy_of_the_samples(self, tmp_path):
        """The body goes straight into the trace's store: no bytes object
        of the whole body and no second copy of the columns."""
        n = 100_000
        rng = np.random.default_rng(5)
        columns = {name: rng.random(n) for name in SAMPLE_SCHEMA}
        columns["t"] = np.arange(n, dtype=float)
        tr = scale.Trace.from_columns(columns, 0.0, n, "completed", {},
                                      {"futaki": rng.random(n) < 0.5})
        path = tmp_path / "long.trace"
        traceio.write_trace(tr, path)
        store = n * (8 * len(SAMPLE_SCHEMA) + len(OPTIONAL_FIELDS))
        tracemalloc.start()
        try:
            back = traceio.read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == tr
        assert peak <= 1.3 * store, peak / store

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_read_through_a_pipe(self, tmp_path):
        # Larger than a pipe's buffer, so a column arrives in several reads.
        path = tmp_path / "file.trace"
        traceio.write_trace(small_trace(10_000), path)
        pipe = tmp_path / "pipe.trace"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes,
                                  args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            back = traceio.read_trace(pipe)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert back == traceio.read_trace(path)

    @pytest.mark.parametrize("key,value", [
        ("columns", 5), ("columns", None), ("columns", ["t", 1]),
        ("columns", list(SAMPLE_SCHEMA) + ["t"]), ("optional", "futaki"),
        ("optional", ["futaki", "futaki"]), ("optional", ["no_such"]),
        ("metadata", [1]), ("n_samples", "3"), ("n_samples", 3.0),
        ("t_start", "soon"), ("t_end", None), ("t_end", math.inf),
        ("columns", "missing"), ("optional", "missing"),
    ])
    def test_damaged_header_is_corrupt(self, tmp_path, edit_header, key,
                                       value):
        path = v2_copy(tmp_path)
        edit_header(path, lambda h: h.pop(key) if value == "missing"
                    else h.update({key: value}))
        with pytest.raises(CorruptFile, match=key):
            traceio.read_trace(path)

    @pytest.mark.parametrize("time", ["repeat", "nan", "inf", "past_end"])
    def test_sample_times_must_be_finite_increasing_and_inside(
            self, tmp_path, set_trace_value, time):
        path = v2_copy(tmp_path)
        set_trace_value(path, "t", 2, {"repeat": 0.1, "nan": math.nan,
                                       "inf": math.inf, "past_end": 1e6}[time])
        with pytest.raises(CorruptFile):
            traceio.read_trace(path)

    def test_columns_are_mapped_by_name(self, tmp_path):
        path = v2_copy(tmp_path)
        reencode(path, list(SAMPLE_SCHEMA[::-1]), list(OPTIONAL_FIELDS[::-1]))
        assert traceio.read_trace(path) == traceio.read_trace(
            os.path.join(GOLDEN, "trace_v2.trace"))

    def test_missing_optional_column_reads_blank(self, tmp_path):
        path = v2_copy(tmp_path)
        full = traceio.read_trace(path)
        reencode(path, [c for c in SAMPLE_SCHEMA if c != "evolution_residual"],
                 [c for c in OPTIONAL_FIELDS if c != "evolution_residual"])
        back = traceio.read_trace(path)
        assert back.absent["evolution_residual"].all()
        assert np.isnan(back.columns["evolution_residual"]).all()
        assert not full.absent["evolution_residual"].all()
        for name in SAMPLE_SCHEMA:
            if name != "evolution_residual":
                assert np.array_equal(back.columns[name], full.columns[name],
                                      equal_nan=True)

    def test_missing_required_column_is_refused(self, tmp_path):
        path = v2_copy(tmp_path)
        reencode(path, [c for c in SAMPLE_SCHEMA if c != "sup_curv"],
                 list(OPTIONAL_FIELDS))
        with pytest.raises(SchemaMismatch, match="sup_curv"):
            traceio.read_trace(path)

    def test_a_required_column_may_carry_a_mask_but_no_blank(self, tmp_path):
        # A mask byte 0 changes nothing; a 1 blanks a required value.
        path = v2_copy(tmp_path)
        line, _, body = path.read_bytes().partition(b"\n")
        head = json.loads(line)
        head["optional"].append("sup_curv")
        line = json.dumps(head, sort_keys=True).encode() + b"\n"
        path.write_bytes(line + body + b"\0\0\0")
        assert traceio.read_trace(path) == traceio.read_trace(
            os.path.join(GOLDEN, "trace_v2.trace"))
        path.write_bytes(line + body + b"\0\1\0")
        with pytest.raises(CorruptFile, match="sup_curv"):
            traceio.read_trace(path)

    def test_trace_from_before_an_optional_column_reads_it_blank(
            self, tmp_path, grow_schema):
        path = tmp_path / "old.trace"
        old = small_trace(10)
        traceio.write_trace(old, path)
        grow_schema("new_flag")
        back = traceio.read_trace(path)
        assert back.absent["new_flag"].all()
        assert np.isnan(back.columns["new_flag"]).all()
        for name in SAMPLE_SCHEMA:
            assert np.array_equal(back.columns[name].view(np.int64),
                                  old.columns[name].view(np.int64))
        for name in OPTIONAL_FIELDS:
            assert np.array_equal(back.absent[name], old.absent[name])
        # Written again it carries the new column, and reads back equal.
        again = tmp_path / "new.trace"
        traceio.write_trace(back, again)
        assert traceio.read_trace(again) == back

    def test_trace_from_before_a_required_column_is_refused(
            self, tmp_path, grow_schema):
        path = tmp_path / "old.trace"
        traceio.write_trace(small_trace(10), path)
        grow_schema("new_level", optional=False)
        with pytest.raises(SchemaMismatch, match="new_level"):
            traceio.read_trace(path)

    def test_column_this_build_does_not_know_is_refused(
            self, tmp_path, monkeypatch, grow_schema):
        path = tmp_path / "new.trace"
        grow_schema("new_flag")
        columns = {name: np.zeros(3) for name in scale.SAMPLE_SCHEMA}
        columns["t"] = np.arange(3.0)
        traceio.write_trace(scale.Trace.from_columns(
            columns, 0.0, 2.0, "completed"), path)
        monkeypatch.undo()
        with pytest.raises(SchemaMismatch, match="new_flag"):
            traceio.read_trace(path)


def golden_copy(tmp_path, name, **changes):
    """A copy of a golden file whose header has ``changes`` applied."""
    with open(os.path.join(GOLDEN, name)) as fh:
        lines = fh.read().splitlines()
    head = json.loads(lines[0])
    head.update(changes)
    lines[0] = json.dumps(head, sort_keys=True)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHeaderTypes:
    @pytest.mark.parametrize("metadata", [[1], 5, "run", None])
    def test_trace_metadata_must_be_an_object(self, tmp_path, metadata):
        path = golden_copy(tmp_path, "trace_v1.trace", metadata=metadata)
        with pytest.raises(CorruptFile, match="metadata"):
            traceio.read_trace(path)

    @pytest.mark.parametrize("n", ["3", 3.0, True, None])
    def test_trace_n_samples_must_be_an_int(self, tmp_path, n):
        path = golden_copy(tmp_path, "trace_v1.trace", n_samples=n)
        with pytest.raises(CorruptFile, match=f"n_samples {n!r} "):
            traceio.read_trace(path)

    @pytest.mark.parametrize("n", ["64", 64.0, True, None])
    def test_checkpoint_n_values_must_be_an_int(self, tmp_path, n):
        path = golden_copy(tmp_path, "checkpoint_v1.ckpt", n_values=n)
        with pytest.raises(CorruptFile, match=f"n_values {n!r} "):
            traceio.read_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["trace", "checkpoint", "report"])
    def test_format_version_must_be_an_int(self, tmp_path, kind, version):
        # true and 1.0 equal 1, and 2.0 equals 2, but none is a version.
        if kind == "report":
            path = tmp_path / "r.report.json"
            path.write_text(json.dumps({"format_version": version,
                                        "kind": "report", "report": {}}))
            read = traceio.read_report
        else:
            name = {"trace": "trace_v1.trace",
                    "checkpoint": "checkpoint_v1.ckpt"}[kind]
            path = golden_copy(tmp_path, name, format_version=version)
            read = getattr(traceio, f"read_{kind}")
        with pytest.raises(VersionMismatch, match=f"version {version!r} "):
            read(path)

    @pytest.mark.parametrize("report", [5, [1], "x", None, "missing"])
    def test_report_must_be_an_object(self, tmp_path, report):
        head = {"format_version": 1, "kind": "report"}
        if report != "missing":
            head["report"] = report
        path = tmp_path / "r.report.json"
        path.write_text(json.dumps(head) + "\n")
        with pytest.raises(CorruptFile, match="report"):
            traceio.read_report(path)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = presets.build_initial(
            "toric1d", 32, {"preset": "random", "seed": 3, "amplitude": 0.3}
        )
        engine = {"dt": 0.125, "streak": 5, "next_sample_t": 1.5,
                  "next_checkpoint_t": 2.0, "checkpoint_index": 1}
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(state, engine, "abcd", path)
        back = traceio.read_checkpoint(path)
        assert np.array_equal(back.state.values, state.values)
        assert back.state.t == state.t
        assert back.engine == engine
        assert back.config_hash == "abcd"

    def test_backend_mismatch(self, tmp_path):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(16), {}, "00", path)
        with pytest.raises(SchemaMismatch):
            traceio.read_checkpoint(path, expect_backend="toric1d")

    def test_resolution_mismatch(self, tmp_path):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(16), {}, "00", path)
        with pytest.raises(SchemaMismatch):
            traceio.read_checkpoint(path, expect_resolution=32)

    @pytest.mark.parametrize("engine", [None, {}, {"dt": 0.125},
                                        "not a dict"])
    def test_incomplete_engine_state(self, tmp_path, engine, edit_header):
        path = tmp_path / "s.ckpt"
        full = {"dt": 0.125, "streak": 5, "next_sample_t": 1.5,
                "next_checkpoint_t": 2.0, "checkpoint_index": 1}
        traceio.write_checkpoint(geometry.flat_state(8), full, "00", path)

        def change(head):
            if engine is None:
                del head["engine"]
            else:
                head["engine"] = engine

        edit_header(path, change)
        # read_checkpoint refuses an engine state that is missing or not an
        # object; EngineState.from_dict one that lacks a field.
        with pytest.raises(CorruptFile):
            resumed_engine(path)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), {}, "00", path)
        path.write_bytes(path.read_bytes()[:-3 * 8])
        with pytest.raises(CorruptFile):
            traceio.read_checkpoint(path)


    ENGINE = {"dt": 0.125, "streak": 5, "next_sample_t": 1.5,
              "next_checkpoint_t": 2.0, "checkpoint_index": 1}

    @pytest.mark.parametrize("key, value", [
        ("dt", "x"), ("dt", math.nan), ("dt", 0), ("dt", -1.0),
        ("dt", math.inf), ("streak", "x"), ("streak", 1.5), ("streak", -1),
        ("streak", True), ("checkpoint_index", -3),
        ("checkpoint_index", 2.0), ("next_sample_t", math.nan),
        ("next_sample_t", math.inf), ("next_sample_t", None),
        ("next_checkpoint_t", math.nan), ("next_checkpoint_t", -math.inf),
        ("next_checkpoint_t", "x"),
    ])
    def test_engine_values_that_cannot_drive_a_run(self, tmp_path, key,
                                                   value, edit_header):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), self.ENGINE, "00",
                                 path)
        assert resumed_engine(path) == flow.EngineState(**self.ENGINE)
        edit_header(path, lambda h: h.update(
            engine={**self.ENGINE, key: value}))
        with pytest.raises(CorruptFile, match=key):
            resumed_engine(path)

    def test_value_count_must_fill_the_grid(self, tmp_path, edit_header):
        # 63 values agree with n_values but fill no 8 x 8 grid.
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), self.ENGINE, "00",
                                 path)
        edit_header(path, lambda h: h.update(n_values=63))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptFile):
            traceio.read_checkpoint(path)

    @pytest.mark.parametrize("res", [48, 4, None, "8"])
    def test_resolution_the_backend_refuses(self, tmp_path, res,
                                            edit_header):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), self.ENGINE, "00",
                                 path)
        edit_header(path, lambda h: h.update(resolution=res))
        with pytest.raises(SchemaMismatch):
            traceio.read_checkpoint(path)

    @pytest.mark.parametrize("t", ["soon", None, True, float("nan"),
                                   float("inf"), [0.5]])
    def test_time_must_be_a_finite_number(self, tmp_path, t, edit_header):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), self.ENGINE, "00",
                                 path)
        edit_header(path, lambda h: h.update(t=t))
        with pytest.raises(CorruptFile):
            traceio.read_checkpoint(path)
        edit_header(path, lambda h: h.update(t=2))
        assert traceio.read_checkpoint(path).state.t == 2

    def test_values_the_backend_refuses(self, tmp_path):
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(geometry.flat_state(8), self.ENGINE, "00",
                                 path)
        set_first_value(path, 1.0)  # breaks the zero-mean gauge
        with pytest.raises(CorruptFile):
            traceio.read_checkpoint(path)


def set_first_value(path, value):
    """Overwrite the first payload value of a version 2 checkpoint."""
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n" + struct.pack("<d", value) + payload[8:])


class TestCheckpointFormat:
    ENGINE = TestCheckpoint.ENGINE

    def write(self, tmp_path):
        path = tmp_path / "s.ckpt"
        state = presets.build_initial(
            "torus", 8, {"preset": "random", "seed": 4, "amplitude": 0.3})
        traceio.write_checkpoint(state, self.ENGINE, "00", path)
        return path

    def test_round_trip_keeps_signed_zeros_subnormals_and_extremes(
            self, tmp_path):
        big = np.finfo(float).max
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        phi = np.zeros((8, 8))
        phi.flat[:8] = [-0.0, big, -big, tiny, -tiny, 2.5 * tiny,
                        np.finfo(float).tiny / 3, -np.finfo(float).tiny / 3]
        state = geometry.torus_state(phi)
        path = tmp_path / "s.ckpt"
        traceio.write_checkpoint(state, self.ENGINE, "00", path)
        back = traceio.read_checkpoint(path).state
        assert np.array_equal(back.values.view(np.int64),
                              state.values.view(np.int64))
        assert np.signbit(back.values.flat[0])

    @pytest.mark.parametrize("damage", [
        "truncated", "trailing byte", "nan", "inf", "no payload",
        "no newline",
    ])
    def test_damaged_payload_is_corrupt(self, tmp_path, damage):
        path = self.write(tmp_path)
        data = path.read_bytes()
        line = data[:data.index(b"\n")]
        if damage == "truncated":
            path.write_bytes(data[:-1])
        elif damage == "trailing byte":
            path.write_bytes(data + b"\0")
        elif damage == "nan":
            set_first_value(path, math.nan)
        elif damage == "inf":
            set_first_value(path, math.inf)
        elif damage == "no payload":
            path.write_bytes(line + b"\n")
        else:
            path.write_bytes(line)
        with pytest.raises(CorruptFile):
            traceio.read_checkpoint(path)

    def test_versions_are_per_kind(self, tmp_path, edit_header):
        path = self.write(tmp_path)
        edit_header(path, lambda h: h.update(format_version=3))
        with pytest.raises(VersionMismatch):
            traceio.read_checkpoint(path)
        trace = tmp_path / "x.trace"
        traceio.write_trace(small_trace(5), trace)
        edit_header(trace, lambda h: h.update(format_version=3))
        with pytest.raises(VersionMismatch):
            traceio.read_trace(trace)
        report = tmp_path / "r.report.json"
        report.write_text(json.dumps(
            {"format_version": 2, "kind": "report", "report": {}}))
        with pytest.raises(VersionMismatch):
            traceio.read_report(report)


@pytest.mark.parametrize("read", [traceio.read_trace, traceio.read_checkpoint,
                                  traceio.read_report])
def test_file_that_is_not_text_is_corrupt(tmp_path, read):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe" + json.dumps({"format_version": 1}).encode())
    with pytest.raises(CorruptFile):
        read(path)


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", ["trace", "checkpoint"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch,
                                                 kind):
        def write(path):
            if kind == "trace":
                traceio.write_trace(small_trace(), path)
            else:
                state = presets.build_initial(
                    "torus", 16, {"preset": "random", "seed": 2})
                traceio.write_checkpoint(state, {}, "00", path)

        path = tmp_path / f"out.{kind}"
        write(path)
        before = path.read_bytes()
        calls = []

        class DiskFull:
            """A file whose second write fails, after the header."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                calls.append(len(data))
                if len(calls) > 1:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(traceio, "open",
                            lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(path)
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]


class TestGolden:
    def test_trace_v1(self, tmp_path):
        # The writer writes v2, so the v1 golden rewritten is the v2 golden.
        path = os.path.join(GOLDEN, "trace_v1.trace")
        tr = traceio.read_trace(path)
        assert len(tr) == 3
        assert tr.columns["volume"][0] == 2.0
        assert tr.columns["futaki"][1] == 1e-12
        assert not tr.absent["futaki"][1]
        assert tr.columns["sup_scalar"][2] == 1 / 3
        assert tr.absent["futaki"][2]
        out = tmp_path / "copy.trace"
        traceio.write_trace(tr, out)
        with open(os.path.join(GOLDEN, "trace_v2.trace"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_trace_v2(self, tmp_path):
        # The v2 golden holds the v1 golden's trace: the two read to the
        # same trace, and the writer reproduces the v2 golden from either.
        path = os.path.join(GOLDEN, "trace_v2.trace")
        tr = traceio.read_trace(path)
        assert tr == traceio.read_trace(os.path.join(GOLDEN,
                                                     "trace_v1.trace"))
        # A recorded 1e-12 and a blank stay distinct.
        assert tr.columns["futaki"][1] == 1e-12
        assert not tr.absent["futaki"][1]
        assert tr.absent["futaki"][2]
        assert math.isnan(tr.columns["futaki"][2])
        out = tmp_path / "copy.trace"
        traceio.write_trace(tr, out)
        with open(path, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_checkpoint_v1(self, tmp_path):
        path = os.path.join(GOLDEN, "checkpoint_v1.ckpt")
        back = traceio.read_checkpoint(path, expect_backend="torus",
                                       expect_resolution=8)
        assert back.state.t == 0.75
        assert back.engine["dt"] == 0.001953125
        assert back.engine["checkpoint_index"] == 2
        assert abs(float(back.state.values.mean())) < 1e-12
        # The engine dictionary is one a run can resume from, under a
        # config whose intervals take t 0.75 to its cursors 0.875 and 1.125.
        cfg = flow.FlowConfig(backend="torus", resolution=8, dt_init=1e-3,
                              dt_min=1e-8, dt_max=0.1, t_end=2.0,
                              sample_interval=0.125,
                              checkpoint_interval=0.375)
        assert flow.EngineState.from_dict(back.engine, cfg, back.state.t) \
            == flow.EngineState(**back.engine)

    def test_checkpoint_v2(self, tmp_path):
        # The v2 golden holds the v1 golden's checkpoint: the two read to
        # the same state, and the writer, which writes v2, reproduces it.
        path = os.path.join(GOLDEN, "checkpoint_v2.ckpt")
        back = traceio.read_checkpoint(path, expect_backend="torus",
                                       expect_resolution=8)
        v1 = traceio.read_checkpoint(os.path.join(GOLDEN,
                                                  "checkpoint_v1.ckpt"))
        assert back.state == v1.state
        assert back.engine == v1.engine
        assert back.config_hash == v1.config_hash
        out = tmp_path / "copy.ckpt"
        traceio.write_checkpoint(back.state, back.engine, back.config_hash,
                                 out)
        with open(path, "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestConfigHash:
    def test_key_order_independent(self):
        a = {"backend": "torus", "resolution": 64, "dt_init": 1e-3}
        b = {"dt_init": 1e-3, "resolution": 64, "backend": "torus"}
        assert traceio.config_hash(a) == traceio.config_hash(b)
        assert len(traceio.config_hash(a)) == 16

    def test_value_sensitive(self):
        a = {"backend": "torus", "resolution": 64}
        b = {"backend": "torus", "resolution": 128}
        assert traceio.config_hash(a) != traceio.config_hash(b)


class TestReport:
    def test_round_trip_and_idempotence(self, tmp_path):
        rep = {"eps0_max": float("inf"), "f": [[0.5, 1.25]], "n": 3}
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        traceio.write_report(rep, p1)
        traceio.write_report(traceio.read_report(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
