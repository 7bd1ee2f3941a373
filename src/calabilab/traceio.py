"""Deterministic, versioned serialization of traces, checkpoints, reports.

Every artifact starts with a single-line JSON header carrying
``format_version``, ``kind`` and the kind-specific fields listed below.
The version is per kind (``FORMAT_VERSIONS``): traces and checkpoints
are version 2, reports version 1, and a reader refuses any version above
its kind's.

* trace (v2): the header declares the sample count ``n_samples``, the
  column names ``columns`` in body order and the names ``optional`` of
  the columns that carry a blank mask.  After the header's newline come
  ``n_samples`` little-endian float64 (``<f8``) values per column, one
  column after another, then one ``uint8`` mask per optional column, in
  ``optional`` order: 1 where the sample leaves the field blank, else 0.
  The body length follows from the header alone.  The reader maps
  columns by name, so their order is free; a column of this build's
  schema that the file lacks reads blank when it is optional and is
  refused when it is required.  A blank entry and a recorded nan stay
  distinct, and every bit of every value survives.
* trace (v1, read only): after the header, which declares the sample
  schema (column order) and the sample count, one sample per line,
  space-separated ``repr`` values, ``-`` where an optional field is
  blank.  The schema must be this build's.
* checkpoint (v2): the header declares the value count ``n_values`` and
  carries the adaptive-engine state needed for bit-exact resume, a JSON
  object whose fields ``flow.EngineState.from_dict`` reads.  After
  the header's newline come the raw grid values, ``n_values``
  little-endian float64 (``<f8``), row-major, with no separators.  A
  version 1 checkpoint, one ``repr`` value per line, is still read.
* report (v1): the header itself, indented, holds the report object.

JSON numbers use the IEEE extensions (``Infinity``/``NaN``) accepted by
the standard library parser.

Error taxonomy: damaged bodies (truncation, arity, unparsable tokens, a
blank required column, sample times that are not finite, strictly
increasing and inside [t_start, t_end], a body length other than the
header declares, a mask byte other than 0 or 1, a value count that does
not fill the declared grid, a missing value, values the backend
refuses), headers and text files that do not decode, traces without a
finite ``t_start`` and ``t_end``, checkpoints without a finite time,
counts (``n_samples``, ``n_values``) that are not integers, trace
``columns`` or ``optional`` that are not lists of distinct names
(``optional`` a subset of ``columns``), and a trace ``metadata``, a
checkpoint ``engine`` or a ``report`` that is not a JSON object are
``CorruptFile``; header-level disagreements (kind, backend, a v1 schema
other than this build's, a trace column this build does not know or a
required one the trace lacks, a resolution the backend does not
support) are ``SchemaMismatch``; an unsupported ``format_version`` is
``VersionMismatch``.  The engine state's fields are checked where they
are read, against the run's config, by ``flow.EngineState.from_dict``.

Writers never leave a partial file at the final path: each writes a
temporary file in the same directory and renames it over the target.
"""

import hashlib
import json
import math
import os
import sys
import threading

import numpy as np

from . import geometry
from .diagnostics import OPTIONAL_FIELDS, SAMPLE_SCHEMA
from .errors import CorruptFile, SchemaMismatch, VersionMismatch
from .scale import TERMINATIONS, Trace, record_columns

# The version each kind is written in; a reader takes 1 up to it.
FORMAT_VERSIONS = {"trace": 2, "checkpoint": 2, "report": 1}


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
    version = head["format_version"]
    # JSON true and 1.0 compare equal to 1 but are not versions.
    if type(version) is not int or not 1 <= version <= latest:
        raise VersionMismatch(
            f"{kind} format version {version!r} not supported (this build "
            f"reads 1 to {latest})"
        )
    if head.get("kind") != want_kind:
        raise SchemaMismatch(
            f"expected a {want_kind} file, found {head.get('kind')!r}"
        )
    return head


def write_trace(trace, path):
    """Write ``trace`` in format v2: each column's raw ``<f8`` values, then
    each optional column's blank mask as ``uint8``."""
    head = {
        "format_version": FORMAT_VERSIONS["trace"],
        "kind": "trace",
        "backend": trace.metadata.get("backend"),
        "resolution": trace.metadata.get("resolution"),
        "config_hash": trace.metadata.get("config_hash"),
        "columns": list(SAMPLE_SCHEMA),
        "optional": list(OPTIONAL_FIELDS),
        "n_samples": len(trace),
        "t_start": trace.t_start,
        "t_end": trace.t_end,
        "termination": trace.termination,
        "metadata": trace.metadata,
    }
    line = (json.dumps(head, sort_keys=True) + "\n").encode()

    def write(fh):
        fh.write(line)
        # On a little-endian host this is the trace's own store.
        fh.write(np.ascontiguousarray(trace._values, "<f8"))
        fh.write(trace._blank.view(np.uint8))

    _write_atomic(path, write, "wb")


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


def _names(head, key):
    """The header's ``key`` entry if it is a list of distinct names."""
    names = head[key]
    if not (isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise CorruptFile(f"trace {key} {names!r} is not a list of names")
    if len(set(names)) != len(names):
        raise CorruptFile(f"trace {key} names a column twice: {names!r}")
    return names


def _layout(head):
    """(columns, optional) of a v2 trace header, checked against this
    build's schema: every name known, every required column present."""
    names, optional = _names(head, "columns"), _names(head, "optional")
    if not set(optional) <= set(names):
        raise CorruptFile("trace optional names a column not in columns")
    unknown = [name for name in names if name not in SAMPLE_SCHEMA]
    if unknown:
        raise SchemaMismatch(
            f"trace columns unknown to this build: {', '.join(unknown)}")
    missing = [name for name in SAMPLE_SCHEMA
               if name not in names and name not in OPTIONAL_FIELDS]
    if missing:
        raise SchemaMismatch(
            f"trace lacks required columns: {', '.join(missing)}")
    return names, optional


def _binary_store(fh, n_samples, names, optional):
    """(values, blank) store of a v2 trace body: each column read from
    ``fh`` straight into its schema row, then the masks; an optional
    column the trace lacks is all blank."""
    try:
        values = np.empty((len(SAMPLE_SCHEMA), n_samples))
        masks = np.empty((len(optional), n_samples), np.uint8)
    except (MemoryError, ValueError) as exc:
        raise CorruptFile(f"trace n_samples {n_samples}: {exc}") from None
    rows = [values[SAMPLE_SCHEMA.index(name)] for name in names]
    for row in rows + list(masks):
        if fh.readinto(row) != row.nbytes:
            raise CorruptFile(f"trace body is short of {n_samples} samples")
    if fh.read(1):
        raise CorruptFile(f"trace body runs past {n_samples} samples")
    if np.any(masks > 1):
        raise CorruptFile("a blank mask byte is neither 0 nor 1")
    absent = dict(zip(optional, masks.view(bool)))
    for name, mask in absent.items():
        if name not in OPTIONAL_FIELDS and mask.any():
            raise CorruptFile(f"required column {name} is blank")
    # Only now, with the body read, are the blank rows' pages touched.
    blank = np.empty((len(OPTIONAL_FIELDS), n_samples), bool)
    for i, name in enumerate(OPTIONAL_FIELDS):
        blank[i] = absent.get(name, name not in names)
    if sys.byteorder != "little":
        values.byteswap(inplace=True)
    return values, blank


def read_trace(path):
    with open(path, "rb") as fh:
        head = _first_line(fh, "trace")
        text = head["format_version"] == 1
        for key in (("schema",) if text else ("columns", "optional")) + (
                "n_samples", "t_start", "t_end", "termination"):
            if key not in head:
                raise CorruptFile(f"trace header is missing {key!r}")
        if text and head["schema"] != list(SAMPLE_SCHEMA):
            raise SchemaMismatch(
                "trace schema differs from this build's schema")
        layout = None if text else _layout(head)
        if head["termination"] not in TERMINATIONS:
            raise SchemaMismatch(
                f"unknown termination {head['termination']!r}"
            )
        t_start = _finite_number(head["t_start"], "trace t_start")
        t_end = _finite_number(head["t_end"], "trace t_end")
        n_samples = _count(head["n_samples"], "trace n_samples")
        metadata = _object(head.get("metadata", {}), "trace metadata")
        # A ValueError here (arity, a token, a blank, the times) is damage.
        try:
            if text:  # one line of tokens a sample
                lines = _decode(fh.read(), "file").splitlines()
                if len(lines) != n_samples:
                    raise CorruptFile(f"expected {n_samples} samples, found "
                                      f"{len(lines)} lines")
                store = record_columns((ln.split() for ln in lines), "-")
            else:
                store = _binary_store(fh, n_samples, *layout)
            return Trace.__new__(Trace)._store(
                *store, t_start, t_end, head["termination"], metadata)
        except ValueError as exc:
            raise CorruptFile(f"trace body: {exc}") from None


class CheckpointData:
    """Parsed checkpoint: the state plus the adaptive-engine dictionary,
    which ``flow.EngineState.from_dict`` checks when it reads it."""

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
    engine = _object(head.get("engine"), "checkpoint engine state")
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
