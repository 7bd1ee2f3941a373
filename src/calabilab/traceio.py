"""Deterministic, versioned serialization of traces, checkpoints, reports.

Every artifact starts with a single-line JSON header carrying
``format_version``, ``kind`` and the kind-specific fields listed below.
The version is per kind (``FORMAT_VERSIONS``): traces and reports are
version 1, checkpoints version 2, and a reader refuses any version above
its kind's.

* trace (v1): after the header, one sample per line, space-separated
  columns.  The header declares the sample schema (column order) and the
  sample count.  Every float is written with ``repr``, whose shortest
  round-trip representation restores the exact double, so
  read(write(x)) is bit-identical; missing optional values are the single
  character ``-``.
* checkpoint (v2): the header declares the value count ``n_values`` and
  carries the adaptive-engine state needed for bit-exact resume.  After
  the header's newline come the raw grid values, ``n_values``
  little-endian float64 (``<f8``), row-major, with no separators.  A
  version 1 checkpoint, one ``repr`` value per line, is still read.
* report (v1): the header itself, indented, holds the report object.

JSON numbers use the IEEE extensions (``Infinity``/``NaN``) accepted by
the standard library parser.

Error taxonomy: damaged bodies (truncation, arity, unparsable tokens, a
blank required column, sample times that are not finite, strictly
increasing and inside [t_start, t_end], a value count or payload length
that does not fill the declared grid, a missing value, values the backend
refuses), headers and text files that do not decode, traces without a
finite ``t_start`` and ``t_end``, checkpoints without a finite time or a
complete engine state, counts (``n_samples``, ``n_values``) that are not
integers, and a trace ``metadata`` or a ``report`` that is not a JSON
object are ``CorruptFile``; header-level disagreements (kind, backend,
schema, a resolution the backend does not support) are
``SchemaMismatch``; an unsupported ``format_version`` is
``VersionMismatch``.

Writers never leave a partial file at the final path: each writes a
temporary file in the same directory and renames it over the target.
"""

import hashlib
import json
import math
import os
import threading

import numpy as np

from . import geometry
from .diagnostics import SAMPLE_SCHEMA
from .errors import CorruptFile, SchemaMismatch, VersionMismatch
from .scale import TERMINATIONS, Trace, record_columns

# The version each kind is written in; a reader takes 1 up to it.
FORMAT_VERSIONS = {"trace": 1, "checkpoint": 2, "report": 1}

# The adaptive-engine fields a checkpoint must carry to resume a run
# (``flow.EngineState``).
ENGINE_KEYS = ("dt", "streak", "next_sample_t", "next_checkpoint_t",
               "checkpoint_index")


def config_hash(cfg_dict):
    """64-bit hash of a logical config, independent of key order."""
    canon = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_atomic(path, write, mode="w"):
    """Call ``write(fh)`` on a temporary sibling of ``path``, then rename it.

    The sibling is opened with ``mode`` (``"wb"`` for a binary file).  A
    failure inside ``write`` leaves any earlier file at ``path`` untouched
    and removes the temporary file.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _decode(raw, what):
    """UTF-8 bytes as text; CorruptFile when they do not decode."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"undecodable {what}: {exc}") from exc


def _first_line(fh, want_kind):
    """The checked header on the first line of the binary file ``fh``.

    Read on its own, so a file of another kind, a binary checkpoint
    included, is a SchemaMismatch whatever follows its header.
    """
    line = fh.readline()
    if not line:
        raise CorruptFile("empty file")
    return _header(_decode(line, "header"), want_kind)


def _header(text, want_kind):
    """The format header in ``text`` (JSON), checked for version and kind."""
    try:
        head = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"unreadable header: {exc}") from exc
    if not isinstance(head, dict) or "format_version" not in head:
        raise CorruptFile("header is not a format header")
    # The version is checked against the file's own kind when it has one,
    # so a file of another kind is a SchemaMismatch whatever its version.
    kind = head.get("kind")
    if not (isinstance(kind, str) and kind in FORMAT_VERSIONS):
        kind = want_kind
    latest = FORMAT_VERSIONS[kind]
    if head["format_version"] not in range(1, latest + 1):
        raise VersionMismatch(
            f"{kind} format version {head['format_version']} not "
            f"supported (this build reads 1 to {latest})"
        )
    if head.get("kind") != want_kind:
        raise SchemaMismatch(
            f"expected a {want_kind} file, found {head.get('kind')!r}"
        )
    return head


def write_trace(trace, path):
    """Write ``trace`` from its columns: each value as its ``repr``, ``-``
    where an optional field is blank."""
    head = {
        "format_version": FORMAT_VERSIONS["trace"],
        "kind": "trace",
        "backend": trace.metadata.get("backend"),
        "resolution": trace.metadata.get("resolution"),
        "config_hash": trace.metadata.get("config_hash"),
        "schema": list(SAMPLE_SCHEMA),
        "n_samples": len(trace),
        "t_start": trace.t_start,
        "t_end": trace.t_end,
        "termination": trace.termination,
        "metadata": trace.metadata,
    }

    cells = {name: list(map(repr, col.tolist()))
             for name, col in trace.columns.items()}
    for name, blank in trace.absent.items():
        for i in np.flatnonzero(blank).tolist():
            cells[name][i] = "-"

    def write(fh):
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for row in zip(*cells.values()):
            fh.write(" ".join(row) + "\n")

    _write_atomic(path, write)


def _finite_number(value, what):
    """``value`` if it is a finite int or float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise CorruptFile(f"{what} {value!r} is not a finite number")
    return value


def _count(value, what):
    """``value`` if it is an int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CorruptFile(f"{what} {value!r} is not an integer")
    return value


def _object(value, what):
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise CorruptFile(f"{what} {value!r} is not a JSON object")
    return value


def read_trace(path):
    with open(path, "rb") as fh:
        head = _first_line(fh, "trace")
        body = _decode(fh.read(), "file").splitlines()
    for key in ("schema", "n_samples", "t_start", "t_end", "termination"):
        if key not in head:
            raise CorruptFile(f"trace header is missing {key!r}")
    if head["schema"] != list(SAMPLE_SCHEMA):
        raise SchemaMismatch("trace schema differs from this build's schema")
    if head["termination"] not in TERMINATIONS:
        raise SchemaMismatch(
            f"unknown termination {head['termination']!r}"
        )
    t_start = _finite_number(head["t_start"], "trace t_start")
    t_end = _finite_number(head["t_end"], "trace t_end")
    n_samples = _count(head["n_samples"], "trace n_samples")
    metadata = _object(head.get("metadata", {}), "trace metadata")
    if len(body) != n_samples:
        raise CorruptFile(
            f"expected {n_samples} samples, found {len(body)} lines"
        )
    # A ValueError here (arity, a token, a blank, the times) is damage.
    try:
        columns, absent = record_columns(
            (line.split() for line in body), "-")
        return Trace.from_columns(columns, t_start, t_end,
                                  head["termination"], metadata, absent)
    except ValueError as exc:
        raise CorruptFile(f"trace body: {exc}") from None


class CheckpointData:
    """Parsed checkpoint: the state plus the adaptive-engine dictionary."""

    def __init__(self, state, engine, config_hash):
        self.state = state
        self.engine = engine
        self.config_hash = config_hash


def write_checkpoint(state, engine_dict, cfg_hash, path):
    # On a little-endian host this is the state's own array, not a copy.
    vals = np.ascontiguousarray(state.values, dtype="<f8")
    head = {
        "format_version": FORMAT_VERSIONS["checkpoint"],
        "kind": "checkpoint",
        "backend": state.backend,
        "resolution": state.resolution,
        "config_hash": cfg_hash,
        "t": state.t,
        "engine": engine_dict,
        "n_values": int(vals.size),
    }
    line = (json.dumps(head, sort_keys=True) + "\n").encode()

    def write(fh):
        fh.write(line)
        fh.write(vals)

    _write_atomic(path, write, "wb")


def _check_engine(engine):
    """CorruptFile unless every engine value can drive a resumed run.

    ``next_checkpoint_t`` may be +Infinity: a run without periodic
    checkpoints stores that in its final checkpoint.
    """
    if _finite_number(engine["dt"], "checkpoint dt") <= 0:
        raise CorruptFile(f"checkpoint dt {engine['dt']!r} is not positive")
    for key in ("streak", "checkpoint_index"):
        if _count(engine[key], f"checkpoint {key}") < 0:
            raise CorruptFile(f"checkpoint {key} {engine[key]!r} is negative")
    _finite_number(engine["next_sample_t"], "checkpoint next_sample_t")
    if engine["next_checkpoint_t"] != math.inf:
        _finite_number(engine["next_checkpoint_t"],
                       "checkpoint next_checkpoint_t")


def _text_values(body, n_values):
    """The values of a version 1 checkpoint body: one ``repr`` per line."""
    lines = _decode(body, "file").splitlines()
    if len(lines) != n_values:
        raise CorruptFile(f"expected {n_values} values, found {len(lines)}")
    try:
        return np.array(lines, dtype=object).astype(float)
    except ValueError as exc:
        raise CorruptFile(f"checkpoint values: {exc}") from None


def read_checkpoint(path, expect_backend=None, expect_resolution=None):
    with open(path, "rb") as fh:
        head = _first_line(fh, "checkpoint")
        body = fh.read()
    backend = head.get("backend")
    if backend not in geometry.BACKENDS:
        raise SchemaMismatch(f"unknown backend {backend!r}")
    if expect_backend is not None and backend != expect_backend:
        raise SchemaMismatch(
            f"checkpoint backend {backend} != expected {expect_backend}"
        )
    res = head.get("resolution")
    if expect_resolution is not None and res != expect_resolution:
        raise SchemaMismatch(
            f"checkpoint resolution {res} != expected {expect_resolution}"
        )
    ops = geometry.backend_module(backend)
    try:
        ops.check_resolution(res)
    except ValueError as exc:
        raise SchemaMismatch(f"checkpoint header: {exc}") from None
    shape = ops.grid_shape(res)
    n_values = _count(head.get("n_values"), "checkpoint n_values")
    if head["format_version"] == 1:
        vals = _text_values(body, n_values)
    elif len(body) != 8 * n_values:
        raise CorruptFile(f"expected {8 * n_values} payload bytes for "
                          f"{n_values} values, found {len(body)}")
    else:
        vals = np.frombuffer(body, dtype="<f8")
    if vals.size != math.prod(shape):
        raise CorruptFile(
            f"{vals.size} values do not fill a {backend} grid of "
            f"resolution {res}"
        )
    if np.any(np.isnan(vals)):
        raise CorruptFile("checkpoint contains missing values")
    t = _finite_number(head.get("t"), "checkpoint time")
    engine = head.get("engine")
    if not isinstance(engine, dict) or any(k not in engine
                                           for k in ENGINE_KEYS):
        raise CorruptFile(
            f"checkpoint engine state must carry {', '.join(ENGINE_KEYS)}"
        )
    _check_engine(engine)
    try:
        state = geometry.MetricState(backend, vals.reshape(shape), t)
    except ValueError as exc:
        raise CorruptFile(f"checkpoint values: {exc}") from None
    return CheckpointData(state, engine, head.get("config_hash"))


def write_report(report_dict, path):
    """Canonical JSON report; identical inputs give identical bytes."""
    head = {
        "format_version": FORMAT_VERSIONS["report"],
        "kind": "report",
        "report": report_dict,
    }
    text = json.dumps(head, sort_keys=True, indent=1) + "\n"
    _write_atomic(path, lambda fh: fh.write(text))


def read_report(path):
    with open(path, "rb") as fh:
        head = _header(_decode(fh.read(), "file"), "report")
    return _object(head.get("report"), "report")
