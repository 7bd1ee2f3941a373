"""Regularity-scale calculus on recorded or synthetic traces.

Every trace curve is treated as its piecewise-linear interpolant, and all
window suprema, integrals and crossings are computed exactly on that
interpolant (knot values plus window endpoints).  This makes each
definition below computable and lets independent brute-force oracles agree
with the fast paths to within one interpolation cell:

curvature scale
    F(t0) = sup { s > 0 : sup over [t0-s, t0] of (sup |Rm|)^2 <= 1/s },
    with the supremum treated as infinite once the window leaves the
    recorded domain, so F is capped at t0 - t_start.
doubling statistics
    first-crossing segmentation of Q through successive doublings of its
    reference value, with the exact integral of P over each segment.
growth bound
    after normalizing at the earliest admissible anchor, checks
    log2(Q/Q0) - 1 < (1/eps0) * int P and reports the largest eps0 for
    which the bound holds trace-wide.
barrier check
    compares Q against 2 / sqrt(Q(t0)^-2 + (t - t0)) on the look-back
    window, exactly (the barrier is convex, so per-segment maxima of the
    linear interpolant against it are closed-form), for all evaluation
    times at once.
blowup rates
    running suprema of P*(T-t), O^a Q^(2-a) (T-t), Q sqrt(T-t) over the
    tail, a type-I boundedness flag for Q^2 (T-t), and the smallest grid
    exponent lam with Q*(T-t)^lam non-increasing.

The window algebra is table-backed.  A ``Trace`` stores its samples as
one array and builds each curve from the rows of it once.  A
``PiecewiseLinear`` answers a window maximum from the interpolated
endpoints plus a range-maximum query over its knot values, and a window
integral from a cumulative-trapezoid prefix sum plus the two partial end
cells.  The range maxima read a block table in the line of Fischer & Heun
(CPM 2006): running maxima forward and backward inside blocks of 32 knots,
a sparse table (Bender & Farach-Colton, LATIN 2000) over the block maxima,
and a gather of at most one block for a run of knots inside one block.
After an O(n) set-up every query is O(1), and queries take whole arrays
of windows, so the curvature scale bisects all its evaluation points at
once.  The growth bound walks its anchor candidates and its refined time
grid a block of cells at a time, and the blow-up rates their tail a block
of samples at a time, so no pass holds more than the tables, O(n) with a
small constant.  The barrier check likewise lays the segments of its
look-back windows end to end, a block of windows at a time, and checks
them in array passes.  Maxima and interpolated values are the same
doubles a direct scan gives; integrals agree with a direct trapezoid sum
to rounding.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import OPTIONAL_FIELDS, SAMPLE_SCHEMA
from .errors import BadParams, DomainError

TERMINATIONS = ("completed", "stop_energy", "left_cone", "error")

# Relative bracket width at which the curvature-scale bisection stops.
BISECT_RTOL = 1e-10

# Blow-up rates: sup Q^2 (T - t) up to this is type I; the exponents tried
# for the monotone tail fit.
TYPE1_THRESHOLD = 10.0
LAM_GRID = np.linspace(0.0, 4.0, 81)
LAM_GRID.setflags(write=False)

# ``analyze`` evaluates pointwise quantities at most at this many times.
MAX_POINTS = 512


# The schema lists the required fields first, then the optional ones.
_N_REQUIRED = len(SAMPLE_SCHEMA) - len(OPTIONAL_FIELDS)

# Samples handled per block by the long passes (record parsing, the
# growth bound, the blow-up rates, the series files), which bounds the
# memory each takes at once.
_BLOCK = 1024

# Knots per block of a ``PiecewiseLinear`` window-maximum table.
_KNOT_BLOCK = 32


def record_columns(rows, blank):
    """(values, blank) store of records that list their fields in schema
    order: a (len(SAMPLE_SCHEMA), n) float64 array and the
    (len(OPTIONAL_FIELDS), n) blank masks of its optional rows.

    Values go through ``float``, so numeric strings parse.  An entry equal
    to ``blank`` is absent; in a required field it raises ValueError.
    ``rows`` may be an iterator; it is converted a block at a time.
    """
    rows = iter(rows)
    width = len(SAMPLE_SCHEMA)
    values, blanks = [np.empty((width, 0))], [np.empty((width, 0), bool)]
    while block := list(itertools.islice(rows, _BLOCK)):
        if any(len(row) != width for row in block):
            raise ValueError("a sample's arity differs from the schema's")
        grid = np.array(block, dtype=object).T.copy()
        blanks.append(grid == blank)
        grid[blanks[-1]] = math.nan
        values.append(grid.astype(float))
    values, blanks = (np.concatenate(x, axis=1) for x in (values, blanks))
    missing = np.flatnonzero(blanks[:_N_REQUIRED].any(axis=1))
    if missing.size:
        raise ValueError(
            f"required column {SAMPLE_SCHEMA[missing[0]]} is missing")
    return values, blanks[_N_REQUIRED:]


class Trace:
    """Time-ordered diagnostics samples plus run metadata, stored as a
    (len(SAMPLE_SCHEMA), n) float64 array and the blank masks of its
    optional rows.

    ``columns`` maps each field to a read-only view of its row, ``absent``
    each optional field to a read-only view of its mask; blank entries
    read nan, so a blank and a recorded nan stay distinct.  ``Trace(samples,
    t_start, t_end, termination, metadata)`` builds one from records that
    list their fields in schema order (``DiagnosticsSample`` named tuples),
    ``None`` where blank; ``Trace.from_columns`` builds one from arrays.

    A trace is immutable.  Equality compares ``t_start``, ``t_end``,
    ``termination``, ``metadata``, the masks and every value bit for bit;
    every nan is stored as the one quiet nan, so nans at the same position
    match.  The cached curves take no part in equality.
    """

    def __init__(self, samples, t_start, t_end, termination, metadata=None):
        self._store(*record_columns(samples, None), t_start, t_end,
                    termination, metadata)

    @classmethod
    def from_columns(cls, columns, t_start, t_end, termination,
                     metadata=None, absent=None):
        """A trace of one 1-D array per schema field, all of one length;
        ``absent`` maps optional fields to blank masks (default: none)."""
        values = np.array([columns[name] for name in SAMPLE_SCHEMA],
                          dtype=float)
        if values.ndim != 2:
            raise ValueError("columns must be 1-D arrays of one length")
        blank = np.zeros((len(OPTIONAL_FIELDS), values.shape[1]), dtype=bool)
        for i, name in enumerate(OPTIONAL_FIELDS):
            blank[i] = (absent or {}).get(name, False)
        return cls.__new__(cls)._store(values, blank, t_start, t_end,
                                       termination, metadata)

    def _store(self, values, blank, t_start, t_end, termination, metadata):
        """This trace, with ``values`` and the (len(OPTIONAL_FIELDS), n)
        ``blank`` as its store, not copied; every blank entry and nan
        becomes the one quiet nan in place."""
        if termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {termination!r}")
        values[_N_REQUIRED:][blank] = math.nan
        values[np.isnan(values)] = math.nan
        times = values[SAMPLE_SCHEMA.index("t")]
        if not np.all(np.isfinite(times)):
            raise ValueError("sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if times.size and (times[0] < t_start - 1e-12
                           or times[-1] > t_end + 1e-12):
            raise ValueError("samples outside [t_start, t_end]")
        # ``_values`` stays writable for the curves, because np.interp
        # copies a read-only array whole on every call; nothing writes it.
        readonly = values.view()
        readonly.setflags(write=False)
        blank.setflags(write=False)
        vars(self).update(
            _values=values, _blank=blank,
            columns=dict(zip(SAMPLE_SCHEMA, readonly)),
            absent=dict(zip(OPTIONAL_FIELDS, blank)),
            t_start=t_start, t_end=t_end, termination=termination,
            metadata={} if metadata is None else metadata, _curves={})
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Trace is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            (self.t_start, self.t_end, self.termination, self.metadata)
            == (other.t_start, other.t_end, other.termination, other.metadata)
            and np.array_equal(self._blank, other._blank)
            and np.array_equal(self._values.view(np.int64),
                               other._values.view(np.int64))
        )

    def series(self, name):
        """(times, values) read-only columns of one field; blanks are nan."""
        return self.columns["t"], self.columns[name]

    def __len__(self):
        return self.columns["t"].size


class PiecewiseLinear:
    """Exact window algebra on a piecewise-linear curve.

    Window maxima are endpoint values plus a range-maximum query over the
    knots inside the window.  That query reads a block table: the knots
    fall into blocks of ``_KNOT_BLOCK``, each with its running maxima
    forward and backward, and a sparse table over the block maxima
    answers the whole blocks in between, so the table holds about 2n
    doubles.  A run of knots inside one block is a masked gather of at
    most ``_KNOT_BLOCK`` values.  Window integrals and the antiderivative
    read a cumulative-trapezoid prefix sum.  Both tables are built on
    first use, after which every query costs O(1).  Queries take scalars
    (and return floats) or arrays of window ends.
    """

    def __init__(self, t, y):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.t.size < 2:
            raise DomainError("need at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise DomainError("knot times must be strictly increasing")
        self._blocks = None
        self._prefix = None

    def __call__(self, s):
        return np.interp(s, self.t, self.y)

    def _block_table(self):
        """(fwd, bwd, levels): fwd[i] and bwd[i] are the maxima of y from
        the start of i's block to i and from i to the end of its block;
        levels[k, j] is the maximum of blocks j to j + 2**k - 1, -inf where
        that runs out.  Every maximum propagates nan as np.maximum does."""
        if self._blocks is None:
            n = self.y.size
            width = -(-n // _KNOT_BLOCK)
            rows = np.full((width, _KNOT_BLOCK), -math.inf)
            rows.flat[:n] = self.y
            fwd = np.maximum.accumulate(rows, axis=1)
            bwd = np.maximum.accumulate(rows[:, ::-1], axis=1)[:, ::-1]
            levels = np.full((width.bit_length(), width), -math.inf)
            levels[0] = fwd[:, -1]
            for k in range(1, levels.shape[0]):
                half = 1 << (k - 1)
                m = width - 2 * half + 1
                np.maximum(levels[k - 1, :m], levels[k - 1, half:half + m],
                           out=levels[k, :m])
            self._blocks = fwd.ravel()[:n], bwd.ravel()[:n], levels
        return self._blocks

    def _knot_max(self, lo, hi):
        """max(y[lo:hi]) for 1-D index arrays; arbitrary where hi <= lo."""
        fwd, bwd, levels = self._block_table()
        n, top = self.y.size, levels.shape[1] - 1
        first, last = np.minimum(lo, n - 1), np.maximum(hi - 1, 0)
        left, right = first // _KNOT_BLOCK, last // _KNOT_BLOCK
        # Across blocks: the tail of the first, the head of the last and
        # two overlapping power-of-two runs of whole blocks between them.
        out = np.maximum(bwd[first], fwd[last])
        between = right - left - 1
        k = np.frexp(np.maximum(between, 1))[1] - 1
        whole = np.maximum(levels[k, np.minimum(left + 1, top)],
                           levels[k, np.maximum(right - (1 << k), 0)])
        out = np.where(between > 0, np.maximum(out, whole), out)
        # Inside one block: a gather as wide as the longest such run.
        one = np.flatnonzero((left == right) & (hi > lo))
        if one.size:
            idx = lo[one, None] + np.arange(np.max(hi[one] - lo[one]))
            out[one] = np.where(idx < hi[one, None],
                                self.y[np.minimum(idx, n - 1)],
                                -math.inf).max(axis=1)
        return out

    def window_max(self, a, b):
        """Exact maximum of the interpolant over [a, b] within the domain."""
        a = np.maximum(a, self.t[0])
        b = np.minimum(b, self.t[-1])
        if np.any(b < a):
            raise DomainError("empty window")
        lo, hi = np.broadcast_arrays(np.searchsorted(self.t, a, side="right"),
                                     np.searchsorted(self.t, b, side="left"))
        best = np.maximum(self(a), self(b))
        # Knots strictly inside the window are y[lo:hi].
        inner = self._knot_max(lo.ravel(), hi.ravel()).reshape(best.shape)
        best = np.where(hi > lo, np.maximum(best, inner), best)
        return best if best.ndim else float(best)

    def _prefix_table(self):
        """prefix[k] = integral of the interpolant from t[0] to t[k]."""
        if self._prefix is None:
            cells = 0.5 * (self.y[1:] + self.y[:-1]) * np.diff(self.t)
            self._prefix = np.concatenate(([0.0], np.cumsum(cells)))
        return self._prefix

    def antiderivative(self, x):
        """Integral of the interpolant from t[0] to x (x clipped into the
        domain)."""
        x = np.clip(x, self.t[0], self.t[-1])
        j = np.clip(np.searchsorted(self.t, x, side="right") - 1,
                    0, self.t.size - 2)
        return (self._prefix_table()[j]
                + 0.5 * (self.y[j] + self(x)) * (x - self.t[j]))

    def integral(self, a, b):
        """Exact trapezoid integral of the interpolant over [a, b].

        The cells between the first and last knot inside the window come
        from the prefix table; the two partial cells at the ends are
        trapezoids of their own, so a window inside one cell is exact to
        rounding.  The prefix difference carries an absolute error of a
        few ulps of the integral from t[0] to b.
        """
        if np.any(np.less(b, a)):
            raise DomainError("reversed integration window")
        a = np.clip(a, self.t[0], self.t[-1])
        b = np.clip(b, self.t[0], self.t[-1])
        lo = np.searchsorted(self.t, a, side="right")
        hi = np.searchsorted(self.t, b, side="left")
        ya, yb = self(a), self(b)
        # First (i) and last (k) knot inside the window; with none inside,
        # the whole window is one partial cell.
        inner = hi > lo
        i = np.minimum(lo, self.t.size - 1)
        k = np.maximum(hi - 1, 0)
        first = np.where(inner, self.t[i], b)
        last = np.where(inner, self.t[k], b)
        y_first = np.where(inner, self.y[i], yb)
        y_last = np.where(inner, self.y[k], yb)
        prefix = self._prefix_table()
        out = (0.5 * (ya + y_first) * (first - a)
               + np.where(inner, prefix[k] - prefix[i], 0.0)
               + 0.5 * (y_last + yb) * (b - last))
        return out if out.ndim else float(out)


def _unbounded(q):
    """sup |Rm| samples with each non-finite one read as unbounded
    curvature, +inf; ``q`` itself when every sample is finite."""
    finite = np.isfinite(q)
    return q if finite.all() else np.where(finite, q, math.inf)


def _curve(trace, name):
    """The trace's curve of one sample field, built once per trace.  The
    sup |Rm| curve reads through ``_unbounded``, so it is +inf at a
    non-finite sample and on the open cells beside it."""
    curve = trace._curves.get(name)
    if curve is None:
        t, y = (trace._values[SAMPLE_SCHEMA.index(k)] for k in ("t", name))
        curve = PiecewiseLinear(t, _unbounded(y) if name == "sup_curv" else y)
        trace._curves[name] = curve
    return curve


def curvature_scales(trace, times):
    """Largest look-back s with sup of (sup |Rm|)^2 over [t0-s, t0] <= 1/s,
    for every t0 in ``times``.

    The predicate is monotone in s (window maxima grow, 1/s falls), so
    bisection finds the threshold; all points are bisected together, each
    stopping once its bracket is within the relative tolerance.  The result
    is exact up to interpolation and that tolerance.  The recorded domain
    caps the value at t0 - t_start.
    """
    q = _curve(trace, "sup_curv")
    start, end = float(q.t[0]), float(q.t[-1])
    t0 = np.asarray(times, dtype=float)
    inside = (t0 >= start - 1e-12) & (t0 <= end + 1e-12)  # False for nan
    if not np.all(inside):
        raise DomainError(f"time {t0[~inside][0]} outside the trace")
    t0 = np.minimum(np.maximum(t0, start), end)
    s_max = t0 - start
    out = s_max.copy()  # the cap, unless bisection finds a smaller scale
    # Squares and reciprocals may overflow to inf (or underflow to 0);
    # the comparisons below still decide the predicate correctly.
    with np.errstate(over="ignore", divide="ignore"):
        idx = np.flatnonzero(s_max > 0.0)
        # Shorter look-backs have maxima <= m: where the cap fails, 1/m^2
        # brackets the scale below.
        m = q.window_max(t0[idx] - s_max[idx], t0[idx])
        bounded = (m > 0.0) & ~(m * m <= 1.0 / s_max[idx])
        idx, m = idx[bounded], m[bounded]
        lo = np.minimum(s_max[idx], 1.0 / (m * m))
        below = lo < s_max[idx]
        idx, lo = idx[below], lo[below]
        hi = s_max[idx]
        for _ in range(200):
            live = np.flatnonzero(hi - lo > BISECT_RTOL * hi)
            if not live.size:
                break
            mid = 0.5 * (lo[live] + hi[live])
            ends = t0[idx[live]]
            m = q.window_max(ends - mid, ends)
            # A look-back that rounds away is the point t0, whose value
            # says nothing of the curvature before it.
            ok = (m * m <= 1.0 / mid) & (ends - mid < ends)
            lo[live] = np.where(ok, mid, lo[live])
            hi[live] = np.where(ok, hi[live], mid)
        out[idx] = lo
    return out


def curvature_scale(trace, t0):
    """The curvature scale at one time (see ``curvature_scales``)."""
    return float(curvature_scales(trace, [t0])[0])


@dataclass(frozen=True)
class DoublingSegment:
    t0: float
    t1: float
    p_integral: float


def doubling_stats(trace):
    """Doubling segments of sup |Rm| and the exact integral of the Hessian
    envelope over each.

    Q splits into maximal runs of positive, finite samples; a zero,
    negative or non-finite sample ends a run.  In each run of two or more
    samples, consecutive first crossings of the levels 2^i * Q(run start)
    bound one doubling each.  Level L is first reached in the cell ending
    at the first knot where the running maximum of Q reaches L; the
    crossing is linear in that cell, from the previous crossing if that
    lies in the same cell.  Convergent traces produce the empty list.
    """
    t, q = trace.series("sup_curv")
    if t.size < 2:
        return []
    good = np.concatenate(([False], np.isfinite(q) & (q > 0.0), [False]))
    starts, ends = [], []
    # Each run is q[lo:hi].
    for lo, hi in np.flatnonzero(np.diff(good)).reshape(-1, 2).tolist():
        if hi - lo < 2:
            continue
        tr, qr = t[lo:hi], q[lo:hi]
        peak = np.maximum.accumulate(qr)
        # 2^i Q(run start) <= max Q needs i <= their exponent gap.
        top = np.frexp(peak[-1])[1] - np.frexp(qr[0])[1]
        levels = np.ldexp(qr[0], np.arange(1, top + 1))
        cells = np.searchsorted(peak, levels)
        found = cells < qr.size
        hit, prev = float(tr[0]), 0
        for level, k in zip(levels[found].tolist(), cells[found].tolist()):
            if k == prev:
                t0, y0 = hit, float(np.interp(hit, tr, qr))
            else:
                t0, y0 = float(tr[k - 1]), float(qr[k - 1])
            starts.append(hit)
            # Rounding can leave the previous crossing at or above L.
            if y0 < level:
                hit = t0 + (level - y0) / (float(qr[k]) - y0) * (
                    float(tr[k]) - t0)
            ends.append(hit)
            prev = k
    p = _curve(trace, "sup_hess_scalar").integral(np.array(starts),
                                                   np.array(ends))
    return [DoublingSegment(*seg) for seg in zip(starts, ends, p.tolist())]


@dataclass(frozen=True)
class GrowthBound:
    anchor: float
    eps0_max: float
    eps0: "float | None"
    holds: "bool | None"


def growth_bound_check(trace, eps0=None, refine=8):
    """Doubling-exponent growth bound after internal normalization.

    The anchor is the earliest sample time t0 whose look-back window of
    length Q(t0)^-2 lies inside the trace with sup Q <= 2 Q(t0) over it
    (this is the unit-normalized hypothesis, transported back through the
    scaling covariance of Q and t, under which int P dt is invariant).
    For eval times after the anchor the bound requires

        log2(Q(t)/Q(t0)) - 1 < (1/eps0) int_{t0}^{t} P ds,

    strictly; eps0_max is the closed-form largest eps0 satisfying it at
    every eval point (``refine`` >= 1 subdivisions of each cell after the
    anchor, the cell ends included).  The anchor search and the eval
    points go a block of cells at a time; neither result depends on the
    order of the points or on repeated ones.
    """
    if eps0 is not None and eps0 <= 0:
        raise ValueError("eps0 must be positive")
    q_curve = _curve(trace, "sup_curv")
    p_curve = _curve(trace, "sup_hess_scalar")
    tq = q_curve.t
    for i in range(0, tq.size, _BLOCK):
        t, q = tq[i:i + _BLOCK], q_curve.y[i:i + _BLOCK]
        with np.errstate(divide="ignore"):
            back = 1.0 / (q * q)
        cand = np.flatnonzero((q > 0.0) & (q < math.inf)
                              & ~(t - back < tq[0] - 1e-12))
        admissible = (q_curve.window_max(t[cand] - back[cand], t[cand])
                      <= 2.0 * q[cand] * (1.0 + 1e-12))
        if np.any(admissible):
            break
    else:
        raise DomainError("no admissible normalization anchor in the trace")
    k = i + cand[np.argmax(admissible)]
    anchor = float(tq[k])
    q0 = float(q_curve(anchor))
    base = p_curve.antiderivative(anchor)
    eps0_max, holds = np.inf, True
    for i in range(k, tq.size - 1, _BLOCK):
        cells = tq[i:i + _BLOCK + 1]
        ts = np.linspace(cells[:-1], cells[1:], refine + 1, axis=1)[:, 1:]
        qt = q_curve(ts)
        ts, qt = ts[qt > 0.0], qt[qt > 0.0]
        lhs = np.log2(qt / q0) - 1.0
        rhs = p_curve.antiderivative(ts) - base
        grows = lhs > 0.0
        lhs, rhs = lhs[grows], rhs[grows]
        if lhs.size:
            eps0_max = np.minimum(eps0_max, np.min(rhs / lhs))
            if eps0 is not None:
                holds = holds and bool(np.all(lhs < rhs / eps0))
    return GrowthBound(anchor=anchor, eps0_max=float(eps0_max), eps0=eps0,
                       holds=None if eps0 is None else holds)


@dataclass(frozen=True)
class BarrierReport:
    verdict: str
    t0: float
    window_start: float
    first_violation: "float | None"
    margin: float


# Look-back windows whose segments ``barrier_checks`` lays out together;
# this bounds the memory a long trace's check takes at once.
_WINDOW_BLOCK = 64


def _barrier(c, t0, t):
    """2 / sqrt(c + (t - t0)).  The window edge t0 - c is the barrier's
    pole; at and before it (and for a nan argument) the barrier is inf,
    since anything finite is below it there."""
    arg = c + (t - t0)
    above = arg > 0.0
    return np.where(above, 2.0 / np.sqrt(np.where(above, arg, 1.0)),
                    math.inf)


def barrier_checks(trace, times):
    """Check Q against the square-root barrier on the look-back window of
    every t0 in ``times``.

    The window is [t0 - Q(t0)^-2, t0] and the barrier is
    B(t) = 2 / sqrt(Q(t0)^-2 + (t - t0)).  The scalar-bound hypothesis is
    checked after the internal normalization (Q(t0) -> 1), which turns it
    into sup O <= Q(t0) over the window; when it fails, or Q(t0) is not
    positive and finite, the verdict is ``inapplicable``.  Q - B is
    concave on each linear segment, so maxima and first roots are exact.
    A window that meets a segment with an infinite end (``_curve``) is
    violated, with margin -inf, from that segment's start at the latest.

    Returns one ``BarrierReport`` per time, or None where the look-back
    window leaves the trace.  All windows are checked together: their
    points (w0, the knots inside, t0) are laid end to end, a block of
    windows at a time, every segment's critical point, barrier gap and
    margin is computed at once, and one array bisection locates the first
    violation in every window that reaches the barrier.  Each report has
    the bits a check of its window alone gives.
    """
    t0 = np.asarray(times, dtype=float)
    if not t0.size:
        return []
    q_curve = _curve(trace, "sup_curv")
    o_curve = _curve(trace, "sup_scalar")
    start, end = float(q_curve.t[0]), float(q_curve.t[-1])
    inside = (t0 >= start - 1e-12) & (t0 <= end + 1e-12)  # False for nan
    if not np.all(inside):
        raise DomainError(f"time {t0[~inside][0]} outside the trace")
    q0 = q_curve(t0)
    no_curv = ~((q0 > 0.0) & (q0 < math.inf))
    with np.errstate(divide="ignore", over="ignore"):
        c = 1.0 / (q0 * q0)
    w0 = np.maximum(t0 - c, start)
    # A time inside the 1e-12 tolerance before the trace has an empty
    # window once w0 is clamped to the start.
    leaves = ~no_curv & ((t0 - c < start - 1e-12)
                         | (np.minimum(t0, end) < w0))
    live = np.flatnonzero(~no_curv & ~leaves)
    applies = np.zeros(t0.size, dtype=bool)
    applies[live] = ~(o_curve.window_max(w0[live], t0[live])
                      > q0[live] * (1.0 + 1e-12))
    checked = np.flatnonzero(applies)

    margin = np.full(t0.size, math.inf)
    violated = np.zeros(t0.size, dtype=bool)
    # Per window, the start of its first segment with an infinite end.
    unbounded = np.full(t0.size, math.inf)
    first = np.zeros(t0.size)
    # Per window to bisect: its first hit segment's start, start value,
    # slope and the end of the bracket.
    bisect = np.zeros(t0.size, dtype=bool)
    hit_seg = np.zeros((4, t0.size))
    knots = q_curve.t
    lo = np.searchsorted(knots, w0, side="right")
    hi = np.searchsorted(knots, t0, side="left")
    for offset in range(0, checked.size, _WINDOW_BLOCK):
        win = checked[offset:offset + _WINDOW_BLOCK]
        size = np.maximum(hi[win] - lo[win], 0) + 2
        stop = np.cumsum(size)
        owner = np.repeat(np.arange(win.size), size)
        pos = np.arange(stop[-1]) - (stop - size)[owner]
        # Knot lo + pos - 1 is the window's pos-th point; its two ends
        # are overwritten with w0 and t0.
        pts = knots[np.minimum(lo[win][owner] + pos - 1, knots.size - 1)]
        pts[stop - size] = w0[win]
        pts[stop - 1] = t0[win]
        vals = q_curve(pts)
        j = np.flatnonzero(owner[:-1] == owner[1:])
        k = win[owner[j]]
        wild = ~(np.isfinite(vals[j]) & np.isfinite(vals[j + 1]))
        wins, at = np.unique(k[wild], return_index=True)
        unbounded[wins] = pts[j[wild][at]]
        keep = ~wild & (pts[j + 1] - pts[j]
                        > 1e-14 * np.maximum(1.0, np.abs(t0[k])))
        j, k = j[keep], k[keep]
        a, b, ya = pts[j], pts[j + 1], vals[j]
        slope = (vals[j + 1] - ya) / (b - a)
        ck, tk = c[k], t0[k]
        # Interior critical point of (linear - barrier) on falling
        # segments, the barrier being convex.  Python's pow is the C
        # library's; numpy's vectorized power can differ from it in the
        # last bit.
        t_star = np.full(a.shape, math.nan)
        down = np.flatnonzero(slope < 0.0)
        t_star[down] = tk[down] + (np.array(
            [(-1.0 / sl) ** (2.0 / 3.0) for sl in slope[down].tolist()])
            - ck[down])
        t_star[~((a < t_star) & (t_star < b))] = math.nan
        # One row per candidate, one column per segment.
        cand = np.stack((a, b, t_star))
        arg = ck + (cand - tk)
        # A nan candidate, or the pole at the window edge, dominates
        # nothing.
        finite = arg > 0.0
        wall = 2.0 / np.sqrt(np.where(finite, arg, 1.0))
        gap = (ya + slope * (cand - a)) - wall
        gap[~finite] = -math.inf
        # Segments run in window order, so each window's are contiguous.
        wins, at = np.unique(k, return_index=True)
        margin[wins] = np.minimum.reduceat(
            np.where(finite, -gap, math.inf).min(axis=0), at)
        hits = np.flatnonzero(gap.max(axis=0) >= 0.0)
        # A crossing after the window's first unbounded segment starts is
        # not its first violation.
        hits = hits[a[hits] < unbounded[k[hits]]]
        wins, at = np.unique(k[hits], return_index=True)
        i = hits[at]
        violated[wins] = True
        at_start = ya[i] - _barrier(ck[i], tk[i], a[i]) >= 0.0
        first[wins[at_start]] = a[i[at_start]]
        i, wins = i[~at_start], wins[~at_start]
        bisect[wins] = True
        hit_seg[:, wins] = (a[i], ya[i], slope[i],
                            cand[np.argmax(gap[:, i], axis=0), i])
    met = unbounded < math.inf
    margin[met] = -math.inf
    first[met & ~violated] = unbounded[met & ~violated]
    violated |= met
    pending = np.flatnonzero(bisect)
    a, ya, slope, hi_t = hit_seg[:, pending]
    lo_t, ck, tk = a, c[pending], t0[pending]
    for _ in range(80):
        mid = 0.5 * (lo_t + hi_t)
        below = (ya + slope * (mid - a)) - _barrier(ck, tk, mid) < 0.0
        lo_t = np.where(below, mid, lo_t)
        hi_t = np.where(below, hi_t, mid)
    first[pending] = hi_t

    reports = []
    for t, w, no_q, left, ok, hit, fv, m in zip(
            t0.tolist(), w0.tolist(), no_curv.tolist(), leaves.tolist(),
            applies.tolist(), violated.tolist(), first.tolist(),
            margin.tolist()):
        if left:
            reports.append(None)
        elif no_q or not ok:
            reports.append(BarrierReport("inapplicable", t, t if no_q else w,
                                         None, math.inf))
        else:
            reports.append(BarrierReport("violated" if hit else "holds", t,
                                         w, fv if hit else None, m))
    return reports


def barrier_check(trace, t0):
    """The barrier check at one time (see ``barrier_checks``); raises
    DomainError where the look-back window leaves the trace."""
    rep = barrier_checks(trace, [t0])[0]
    if rep is None:
        raise DomainError("insufficient history for the look-back window")
    return rep


@dataclass(frozen=True)
class BlowupRates:
    sup_pt: float
    sup_oq: float
    sup_qroot: float
    sup_q2t: float
    type1: bool
    lam_fit: float
    alpha: float
    t_sing: float


def blowup_rates(trace, t_sing, alpha):
    """Tail statistics of the singular-time rate quantities.

    Suprema are taken over recorded samples before ``t_sing`` only (no
    extrapolation).  The type-I flag reports whether Q^2 (T - t) stays
    below the threshold; ``lam_fit`` is the smallest grid exponent for
    which Q (T - t)^lam is non-increasing along the tail, +inf when none
    qualifies.  The tail goes a block of samples at a time, and a grid
    exponent is dropped at its first block that rises.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    t, q = trace.series("sup_curv")
    _, p = trace.series("sup_hess_scalar")
    _, o = trace.series("sup_scalar")
    # Times increase, so the tail is a prefix.
    m = int(np.count_nonzero(t < t_sing))
    if not m:
        raise DomainError("no samples before the singular time")
    sups = np.full(4, -math.inf)
    # Unbounded curvature, a nan sample included, bounds none of the rates
    # of Q.
    bounded = bool(np.all(q[:m] < math.inf))
    if not bounded:
        sups[1:] = math.inf
    for i in range(0, m, _BLOCK):
        j = min(i + _BLOCK, m)
        dtau, qb = t_sing - t[i:j], q[i:j]
        sups[0] = np.maximum(sups[0], np.max(p[i:j] * dtau))
        if bounded:
            sups[1:] = np.maximum(sups[1:], (
                np.max(o[i:j] ** alpha * qb ** (2.0 - alpha) * dtau),
                np.max(qb * np.sqrt(dtau)), np.max(qb * qb * dtau)))
    sup_pt, sup_oq, sup_qroot, sup_q2t = sups.tolist()

    def falls(lam, i):
        # Samples i to i + _BLOCK, the first of the next block included.
        j = min(i + _BLOCK + 1, m)
        vals = _unbounded(q[i:j]) * (t_sing - t[i:j]) ** lam
        return np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12) + 1e-300)

    lam_fit = next((float(lam) for lam in LAM_GRID
                    if all(falls(lam, i) for i in range(0, m, _BLOCK))),
                   math.inf)
    return BlowupRates(sup_pt, sup_oq, sup_qroot, sup_q2t,
                       bool(sup_q2t <= TYPE1_THRESHOLD), lam_fit,
                       float(alpha), float(t_sing))


# Fields divided by A^k under g -> A g; volume and futaki are multiplied by A.
_SCALE_RULES = {
    "sup_scalar": 1,
    "sup_hess_scalar": 2,
    "sup_curv": 1,
    "calabi_energy": 1,
    "mean_scalar": 1,
    "sup_grad_scalar": 1.5,
    "sup_bihess_scalar": 3,
    "evolution_residual": 3,
    "aut_gap": 0,
}


def rescale_trace(trace, a, t0=None):
    """Covariant rescaling of a trace: g -> A g, t -> A^2 (t - t0).

    Curvature-type fields carry inverse powers of A fixed by their
    derivative order; the volume and the Futaki pairing scale up by A (one
    complex dimension).  The automorphism gap is a potential-space norm
    with no clean covariance and is carried through unchanged.  The
    curvature scale computed on the result equals A^2 times the original
    at corresponding times, which is used as an exact oracle in tests.
    """
    if a <= 0:
        raise ValueError("rescale factor must be positive")
    if t0 is None:
        t0 = trace.t_start
    a2 = a * a
    cols = {"t": a2 * (trace.columns["t"] - t0),
            "volume": trace.columns["volume"] * a,
            "futaki": trace.columns["futaki"] * a}
    for name, k in _SCALE_RULES.items():
        cols[name] = trace.columns[name] / a ** k
    meta = dict(trace.metadata)
    meta["rescaled_by"] = meta.get("rescaled_by", 1.0) * a
    return Trace.from_columns(cols, a2 * (trace.t_start - t0),
                              a2 * (trace.t_end - t0), trace.termination,
                              meta, trace.absent)


def synthetic_trace(kind, **params):
    """Deterministic test-fixture traces with analytically known statistics.

    Kinds: ``constant`` (Q = c), ``typeI`` (Q = (T-t)^(-1/2)), ``typeII``
    (Q = (T-t)^(-1)), ``sawtooth`` (explicit knots), ``oscillatory``
    (sinusoid sampled coarsely).  Unknown kinds or inconsistent parameters
    raise BadParams.
    """
    try:
        if kind == "constant":
            value = float(params.pop("value"))
            t0 = float(params.pop("t0", 0.0))
            t1 = float(params.pop("t1", 10.0))
            n = int(params.pop("n", 201))
            p = float(params.pop("p", 0.0))
            o = float(params.pop("o", 0.0))
            _reject_extra(params)
            if n < 2 or t1 <= t0 or value < 0:
                raise BadParams("bad constant-trace parameters")
            ts = np.linspace(t0, t1, n)
            q = value
        elif kind in ("typeI", "typeII"):
            t_sing = float(params.pop("t_sing"))
            t0 = float(params.pop("t0", 0.0))
            t1 = float(params.pop("t1", t_sing - 1e-3))
            n = int(params.pop("n", 201))
            p = float(params.pop("p", 0.0))
            o = float(params.pop("o", 0.0))
            _reject_extra(params)
            if n < 2 or not t0 < t1 < t_sing:
                raise BadParams("bad power-law-trace parameters")
            expo = -0.5 if kind == "typeI" else -1.0
            ts = np.linspace(t0, t1, n)
            # Scalar powers: numpy's vectorized power can differ from the
            # C library's in the last bit.
            q = np.array([(t_sing - t) ** expo for t in ts])
        elif kind == "sawtooth":
            ts = np.asarray(params.pop("times"), dtype=float)
            q = np.asarray(params.pop("q"), dtype=float)
            p = np.asarray(params.pop("p", np.zeros_like(ts)), dtype=float)
            o = np.asarray(params.pop("o", np.zeros_like(ts)), dtype=float)
            _reject_extra(params)
            if ts.size < 2 or np.any(np.diff(ts) <= 0):
                raise BadParams("sawtooth times must be strictly increasing")
            if not (ts.size == q.size == p.size == o.size):
                raise BadParams("sawtooth arrays must share one length")
            if np.any(q < 0) or np.any(p < 0) or np.any(o < 0):
                raise BadParams("envelope curves are nonnegative sup-norms")
        elif kind == "oscillatory":
            t0 = float(params.pop("t0", 0.0))
            t1 = float(params.pop("t1", 10.0))
            n = int(params.pop("n", 201))
            base = float(params.pop("base", 1.0))
            amp = float(params.pop("amp", 0.5))
            freq = float(params.pop("freq", 7.3))
            _reject_extra(params)
            if n < 2 or t1 <= t0 or base <= abs(amp):
                raise BadParams("oscillatory trace needs base > |amp|")
            ts = np.linspace(t0, t1, n)
            q = np.array([base + amp * math.sin(freq * t) for t in ts])
            p = o = 0.0
        else:
            raise BadParams(f"unknown synthetic trace kind {kind!r}")
    except KeyError as exc:
        raise BadParams(f"missing parameter {exc}") from exc
    cols = dict.fromkeys(SAMPLE_SCHEMA, np.zeros(ts.size))
    cols.update(t=ts, sup_scalar=np.broadcast_to(o, ts.shape),
                sup_hess_scalar=np.broadcast_to(p, ts.shape),
                sup_curv=np.broadcast_to(q, ts.shape), volume=np.ones(ts.size))
    return Trace.from_columns(cols, float(ts[0]), float(ts[-1]), "completed",
                              {"synthetic": kind},
                              dict.fromkeys(OPTIONAL_FIELDS, True))


def _reject_extra(params):
    if params:
        raise BadParams(f"unknown parameters {sorted(params)}")


@dataclass(frozen=True)
class ScaleReport:
    """Bundle of scale statistics for one trace, ready to serialize."""

    curvature_scale: tuple
    doubling: tuple
    growth: GrowthBound
    barrier: tuple
    rates: "BlowupRates | None"
    meta: dict


def analyze_trace(trace, alpha=0.5, eps0=None, t_sing=None):
    """Full scale analysis of one trace (the ``analyze`` CLI core).

    Pointwise quantities (curvature scale, barrier verdicts) are evaluated
    at sample times, deterministically strided down to ``MAX_POINTS`` on
    very long traces.  Each is computed for all its times in one batch
    (``curvature_scales``, ``barrier_checks``), so the stride only bounds
    the size of the report.  Barrier windows that leave the trace are
    left out.  A trace with fewer than two samples has no curve to
    evaluate, so those sections are empty.
    """
    times = trace.columns["t"]
    stride = max(1, (len(trace) + MAX_POINTS - 1) // MAX_POINTS)
    eval_times = times[::stride] if len(trace) > 1 else times[:0]
    if (len(trace) - 1) % stride:
        eval_times = np.append(eval_times, times[-1])
    f_times = eval_times[eval_times > trace.t_start]
    f_vals = ()
    if f_times.size:
        f_vals = tuple(zip(f_times.tolist(),
                           curvature_scales(trace, f_times).tolist()))
    try:
        growth = growth_bound_check(trace, eps0=eps0)
    except DomainError:
        growth = GrowthBound(anchor=math.nan, eps0_max=math.inf,
                             eps0=eps0, holds=None)
    barrier = [rep for rep in barrier_checks(trace, eval_times)
               if rep is not None]
    rates = None
    if t_sing is None:
        t_sing = trace.t_end
    if np.any(times < t_sing):
        rates = blowup_rates(trace, t_sing, alpha)
    _, ca = trace.series("calabi_energy")
    meta = {
        "termination": trace.termination,
        "initial_energy": float(ca[0]) if len(ca) else math.nan,
        "final_energy": float(ca[-1]) if len(ca) else math.nan,
        "energy_monotone": bool(np.all(np.diff(ca) <= 0.0))
        if len(ca) > 1 else True,
    }
    return ScaleReport(f_vals, tuple(doubling_stats(trace)), growth,
                       tuple(barrier), rates, meta)
