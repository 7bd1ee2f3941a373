"""Trace calculus: curvature scale, doubling, growth, barrier, rates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calabilab import scale
from calabilab.diagnostics import (OPTIONAL_FIELDS, SAMPLE_SCHEMA,
                                   DiagnosticsSample)
from calabilab.errors import BadParams, DomainError
from calabilab.verify import _synthetic_corpus, dense_scan_curvature_scale


def sawtooth(times, q, p=None, o=None):
    kw = {"times": np.asarray(times, float), "q": np.asarray(q, float)}
    if p is not None:
        kw["p"] = np.asarray(p, float)
    if o is not None:
        kw["o"] = np.asarray(o, float)
    return scale.synthetic_trace("sawtooth", **kw)


def records(trace):
    """The samples of a synthetic trace, whose optional fields are all
    blank, as ``DiagnosticsSample`` records read from its columns."""
    assert all(mask.all() for mask in trace.absent.values())
    n_required = len(SAMPLE_SCHEMA) - len(OPTIONAL_FIELDS)
    return [DiagnosticsSample(*row[:n_required])
            for row in zip(*(col.tolist() for col in trace.columns.values()))]


@st.composite
def pl_traces(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    q = draw(st.lists(st.floats(0.01, 5.0), min_size=n + 1, max_size=n + 1))
    p = draw(st.lists(st.floats(0.0, 3.0), min_size=n + 1, max_size=n + 1))
    return sawtooth(times, q, p)


def interp_max(t, y, a, b):
    """Brute-force maximum of the interpolant over [a, b] in the domain:
    every knot inside the window and both ends, evaluated directly."""
    a, b = max(a, t[0]), min(b, t[-1])
    pts = np.concatenate(([a, b], t[(t > a) & (t < b)]))
    return float(np.max(np.interp(pts, t, y)))


def trapezoid_over_window(t, y, a, b):
    """Direct trapezoid sum over the part of [a, b] in the domain: its ends
    and inner knots."""
    a, b = np.clip([a, b], t[0], t[-1])
    pts = np.concatenate(([a], t[(t > a) & (t < b)], [b]))
    return float(np.trapezoid(np.interp(pts, t, y), pts))


def scalar_bisection_curvature_scale(trace, t0, rtol=scale.BISECT_RTOL):
    """Oracle: the one-point bisection the batched curvature scale
    replaced, kept verbatim apart from its window maximum."""
    t, y = trace.series("sup_curv")
    if t0 < t[0] - 1e-12 or t0 > t[-1] + 1e-12:
        raise DomainError(f"time {t0} outside the trace")
    t0 = min(max(t0, float(t[0])), float(t[-1]))
    s_max = t0 - float(t[0])
    if s_max <= 0.0:
        return 0.0
    g_all = interp_max(t, y, t[0], t0)
    if g_all <= 0.0:
        return s_max

    def ok(s):
        m = interp_max(t, y, t0 - s, t0)
        return m * m <= 1.0 / s

    if ok(s_max):
        return s_max
    lo = min(s_max, 1.0 / (g_all * g_all))
    if lo >= s_max:
        return s_max
    hi = s_max
    for _ in range(200):
        if hi - lo <= rtol * hi:
            break
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def per_tau_growth_bound(trace, eps0=None, refine=8):
    """Oracle: the growth bound as a loop over eval times, each with its
    own trapezoid integral from the anchor."""
    tq, q = trace.series("sup_curv")
    _, p = trace.series("sup_hess_scalar")
    anchor = None
    for k in range(len(tq)):
        qk = float(q[k])
        if qk <= 0.0:
            continue
        back = 1.0 / (qk * qk)
        t0 = float(tq[k])
        if t0 - back < float(tq[0]) - 1e-12:
            continue
        if interp_max(tq, q, t0 - back, t0) <= 2.0 * qk * (1.0 + 1e-12):
            anchor = t0
            break
    if anchor is None:
        raise DomainError("no admissible normalization anchor in the trace")
    q0 = float(np.interp(anchor, tq, q))
    ts = tq[tq > anchor]
    if refine > 1 and ts.size:
        cells = np.concatenate(([anchor], ts))
        ts = np.unique(np.concatenate([
            np.linspace(a, b, refine + 1)[1:]
            for a, b in zip(cells[:-1], cells[1:])
        ]))
    eps0_max = math.inf
    pairs = []
    for tau in ts:
        qt = float(np.interp(tau, tq, q))
        if qt <= 0.0:
            continue
        lhs = math.log2(qt / q0) - 1.0
        rhs = trapezoid_over_window(tq, p, anchor, float(tau))
        pairs.append((lhs, rhs))
        if lhs > 0.0:
            eps0_max = min(eps0_max, rhs / lhs)
    holds = None
    if eps0 is not None:
        holds = all(l < r / eps0 for l, r in pairs if l > 0.0)
    return anchor, eps0_max, holds


@st.composite
def curves_and_windows(draw):
    """A piecewise-linear curve plus windows that cross knots, fall
    between two knots, end on knots or run past the domain."""
    n = draw(st.integers(min_value=2, max_value=40))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                         max_size=n - 1))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    y = np.asarray(draw(st.lists(st.floats(0.0, 3.0), min_size=n,
                                 max_size=n)))
    windows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["any", "cell", "knots"]))
        if kind == "any":
            a, b = sorted(draw(st.lists(st.floats(-1.0, t[-1] + 1.0),
                                        min_size=2, max_size=2)))
        elif kind == "cell":
            j = draw(st.integers(0, n - 2))
            a, b = sorted(draw(st.lists(st.floats(t[j], t[j + 1]),
                                        min_size=2, max_size=2)))
        else:
            i, k = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                        max_size=2)))
            a, b = float(t[i]), float(t[k])
        windows.append((a, b))
    return t, y, windows


class TestWindowTables:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(curves_and_windows())
    def test_window_max_matches_brute_force(self, case):
        t, y, windows = case
        pl = scale.PiecewiseLinear(t, y)
        inside = [(a, b) for a, b in windows if b >= t[0] and a <= t[-1]]
        for a, b in windows:
            if (a, b) not in inside:
                with pytest.raises(DomainError):
                    pl.window_max(a, b)
                continue
            got = pl.window_max(a, b)
            assert isinstance(got, float)
            assert got == interp_max(t, y, a, b)
        if inside:
            lo, hi = np.array(inside).T
            batched = pl.window_max(lo, hi)
            assert batched.tolist() == [pl.window_max(a, b)
                                        for a, b in inside]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(curves_and_windows())
    def test_integral_matches_trapezoid(self, case):
        # The inner cells come from one prefix sum, so the rounding error
        # scales with the integral from the first knot to b rather than
        # with the window's own integral.
        t, y, windows = case
        pl = scale.PiecewiseLinear(t, y)
        for a, b in windows:
            direct = trapezoid_over_window(t, y, a, b)
            from_start = trapezoid_over_window(t, y, t[0], b)
            got = pl.integral(a, b)
            assert isinstance(got, float)
            assert abs(got - direct) <= 1e-12 * max(abs(direct), from_start)
        lo, hi = np.array(windows).T
        assert pl.integral(lo, hi).tolist() == [pl.integral(a, b)
                                                for a, b in windows]

    def test_integral_relative_accuracy_on_a_long_trace(self):
        # 10k cells of an envelope of order one: every window, short or
        # long, late or early, matches the direct sum to 1e-12 relative.
        t = np.linspace(0.0, 100.0, 10001)
        y = 1.5 + np.sin(3.0 * t) + 0.01 * t
        pl = scale.PiecewiseLinear(t, y)
        rng = np.random.default_rng(5)
        for a in rng.uniform(0.0, 100.0, 200):
            for width in (1e-9, 1e-3, 0.5, 30.0):
                b = min(a + width, 100.0)
                direct = trapezoid_over_window(t, y, a, b)
                assert pl.integral(a, b) == pytest.approx(direct, rel=1e-12)

    def test_antiderivative_is_the_integral_from_the_first_knot(self):
        t = np.array([0.0, 0.5, 2.0, 2.25])
        y = np.array([1.0, 3.0, 0.0, 2.0])
        pl = scale.PiecewiseLinear(t, y)
        xs = np.array([0.0, 0.25, 0.5, 1.9, 2.25, 9.0])
        want = [trapezoid_over_window(t, y, 0.0, x) for x in xs]
        assert pl.antiderivative(xs) == pytest.approx(want, rel=1e-15)

    def test_reversed_window_raises(self):
        pl = scale.PiecewiseLinear([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            pl.integral(0.75, 0.25)
        with pytest.raises(DomainError):
            pl.window_max(0.75, 0.25)


class TestTraceColumns:
    def test_series_is_cached_read_only_and_matches_samples(self):
        tr = scale.synthetic_trace("typeI", t_sing=5.0, t1=4.5, n=31)
        samples = records(tr)
        samples[3] = samples[3]._replace(futaki=0.25)
        tr = scale.Trace(samples, tr.t_start, tr.t_end,
                         tr.termination, tr.metadata)
        for name in ("sup_curv", "calabi_energy", "futaki"):
            t, y = tr.series(name)
            assert t.tolist() == [s.t for s in samples]
            for s, v in zip(samples, y.tolist()):
                field = getattr(s, name)
                assert (math.isnan(v) if field is None else v == field)
            if name in tr.absent:
                assert tr.absent[name].tolist() == [
                    getattr(s, name) is None for s in samples]
            for arr in (t, y):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
            again = tr.series(name)
            assert again[0] is t and again[1] is y

    def test_caches_take_no_part_in_equality(self):
        tr = scale.synthetic_trace("constant", value=1.0, n=21)
        twin = scale.Trace.from_columns(tr.columns, tr.t_start, tr.t_end,
                                        tr.termination, dict(tr.metadata),
                                        tr.absent)
        scale.curvature_scale(tr, 5.0)
        assert tr == twin
        assert "_columns" not in repr(tr)


class TestCurvatureScale:
    def test_unit_plateau(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=10.0)
        assert scale.curvature_scale(tr, 9.0) == pytest.approx(1.0, rel=1e-9)

    def test_domain_limited_constant(self):
        # F = min(c^-2, t0 - t_start) including the out-of-domain rule.
        tr = scale.synthetic_trace("constant", value=0.1, t0=0.0, t1=10.0)
        assert scale.curvature_scale(tr, 4.0) == pytest.approx(4.0)
        tr2 = scale.synthetic_trace("constant", value=2.0, t0=0.0, t1=10.0)
        assert scale.curvature_scale(tr2, 4.0) == pytest.approx(0.25,
                                                                rel=1e-9)

    def test_zero_curvature_caps_at_history(self):
        tr = scale.synthetic_trace("constant", value=0.0, t0=0.0, t1=5.0)
        assert scale.curvature_scale(tr, 3.0) == 3.0

    def test_outside_domain(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=5.0)
        for t0 in (6.0, math.nan):
            with pytest.raises(DomainError):
                scale.curvature_scale(tr, t0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pl_traces(), st.floats(0.3, 1.0))
    def test_bisection_matches_dense_scan(self, tr, frac):
        t0 = tr.t_start + frac * (tr.t_end - tr.t_start)
        fast = scale.curvature_scale(tr, t0)
        slow = dense_scan_curvature_scale(tr, t0)
        t, _ = tr.series("sup_curv")
        cell = float(np.max(np.diff(t)))
        assert abs(fast - slow) <= cell


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pl_traces(), st.lists(st.floats(0.0, 1.0), min_size=1,
                                 max_size=12))
    def test_batched_equals_scalar_bisection_bit_for_bit(self, tr, fracs):
        times = [tr.t_start + f * (tr.t_end - tr.t_start) for f in fracs]
        want = [scalar_bisection_curvature_scale(tr, t0) for t0 in times]
        assert scale.curvature_scales(tr, times).tolist() == want
        assert [scale.curvature_scale(tr, t0) for t0 in times] == want

    def test_batched_on_the_oracle_corpus_bit_for_bit(self):
        for seed, tr in _synthetic_corpus(n_traces=20):
            t, _ = tr.series("sup_curv")
            times = np.concatenate((t[::7], [t[-1]]))
            want = [scalar_bisection_curvature_scale(tr, float(t0))
                    for t0 in times]
            assert scale.curvature_scales(tr, times).tolist() == want

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_unbounded_sample_leaves_no_scale_beside_it(self, bad):
        # A non-finite sup |Rm| is unbounded curvature, +inf on the cells
        # beside it; nan and inf give the same bits.
        times, q = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, bad, 1.0, 5.0]
        got = scale.curvature_scales(sawtooth(times, q), times[1:])
        assert np.array_equal(got, scale.curvature_scales(
            sawtooth(times, [1.0, 3.0, math.inf, 1.0, 5.0]), times[1:]))
        assert got[1] == 0.0 and got[2] < 1e-15
        assert got[3] == pytest.approx(1 / 25, rel=1e-9)

    def test_batched_rejects_any_time_outside(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=5.0)
        with pytest.raises(DomainError):
            scale.curvature_scales(tr, [1.0, 2.0, 6.0])
        with pytest.raises(DomainError, match="nan"):
            scale.curvature_scales(tr, [1.0, math.nan, 2.0])


class TestDoubling:
    def test_convergent_trace_has_no_segments(self):
        times = np.linspace(0.0, 5.0, 51)
        tr = sawtooth(times, 2.0 * np.exp(-times))
        assert scale.doubling_stats(tr) == []

    def test_single_doubling_rectangle(self):
        # Q doubles linearly over [0, 2] with constant P: the integral is
        # the rectangle p0 * tau.
        tr = sawtooth([0.0, 2.0, 3.0], [1.0, 2.0, 2.0], p=[0.4, 0.4, 0.4])
        segs = scale.doubling_stats(tr)
        assert len(segs) == 1
        assert segs[0].t0 == 0.0 and segs[0].t1 == pytest.approx(2.0)
        assert segs[0].p_integral == pytest.approx(0.8)

    def test_multi_doubling_times_match_hand_segmentation(self):
        # Q = 2^t at integer knots: crossings at t = 1, 2, 3.
        times = np.linspace(0.0, 3.5, 71)
        tr = sawtooth(times, 2.0 ** times, p=np.ones_like(times))
        segs = scale.doubling_stats(tr)
        ends = [s.t1 for s in segs]
        # Piecewise-linear chords of a convex curve cross the doubling
        # levels slightly early; the knot spacing bounds the shift.
        for found, exact in zip(ends, (1.0, 2.0, 3.0)):
            assert abs(found - exact) <= 0.05
        assert [s.t0 for s in segs][1:] == ends[:-1]

    def test_several_crossings_inside_one_cell(self):
        # Q rises from 1 to 9 over [0, 1]: the levels 2, 4 and 8 are all
        # crossed in that cell, each from the crossing before it.
        tr = sawtooth([0.0, 1.0, 2.0, 3.0], [1.0, 9.0, 9.0, 0.5],
                      p=[0.5] * 4)
        segs = scale.doubling_stats(tr)
        assert [(s.t0, s.t1) for s in segs] \
            == [(0.0, 0.125), (0.125, 0.375), (0.375, 0.875)]
        assert [s.p_integral for s in segs] == [0.0625, 0.125, 0.25]

    def test_runs_restart_after_zero_and_end_on_a_knot(self):
        # The zero ends the first run after one doubling; the second run
        # doubles three times in its one cell, at 3 + 1/7, 3 + 3/7 (one
        # ulp above the double nearest it) and exactly at the knot t = 4.
        tr = sawtooth([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 0.0, 2.0, 16.0])
        segs = scale.doubling_stats(tr)
        ends = [s.t1 for s in segs]
        assert ends == [0.5, 3.142857142857143, 3.428571428571429, 4.0]
        assert ends[1] == 3.0 + 1.0 / 7.0
        assert [s.t0 for s in segs] == [0.0, 3.0, *ends[1:3]]

    def test_level_reached_where_its_cell_starts(self):
        # The crossing of 1 is half an ulp before the knot t = 1 + 2^-51
        # and rounds onto it, where Q is already 2: the next doubling
        # has zero length.
        knot = 1.0 + 2.0 ** -51
        tr = sawtooth([0.0, 1.0 + 2.0 ** -52, knot, 2.0],
                      [0.5, 1e-300, 2.0, 2.0], p=[1.0] * 4)
        segs = scale.doubling_stats(tr)
        assert [(s.t0, s.t1) for s in segs] == [(0.0, knot), (knot, knot)]
        assert segs[1].p_integral == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pl_traces())
    def test_segments_ordered_and_disjoint(self, tr):
        segs = scale.doubling_stats(tr)
        for a, b in zip(segs, segs[1:]):
            assert a.t1 <= b.t0 + 1e-12
        for s in segs:
            assert s.t0 < s.t1
            assert s.p_integral >= 0.0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pl_traces())
    def test_segment_ends_cover_dense_scan_crossings(self, tr):
        # Independent detector: on a dense time grid, the first crossing
        # of each doubling level must coincide with a segment boundary.
        t, q = tr.series("sup_curv")
        segs = scale.doubling_stats(tr)
        dense_t = np.linspace(t[0], t[-1], 20001)
        dense_q = np.interp(dense_t, t, q)
        tol = (t[-1] - t[0]) / 20000 * 2
        ref = dense_q[0]
        level = 2.0 * ref
        ends = [s.t1 for s in segs]
        k = 0
        while True:
            above = np.nonzero(dense_q >= level)[0]
            if above.size == 0:
                break
            crossing = dense_t[above[0]]
            assert k < len(ends)
            assert abs(ends[k] - crossing) <= tol + 1e-9
            k += 1
            level *= 2.0
        assert k == len(ends)


class TestGrowthBound:
    def flat_anchor_trace(self, q_fun, p=0.0, t1=8.0, n=161):
        times = np.linspace(-2.0, t1, n)
        q = np.where(times <= 0, 1.0, q_fun(times))
        return sawtooth(times, q, p=np.full(times.shape, p))

    def test_trivial_bound_holds_for_any_eps0(self):
        tr = self.flat_anchor_trace(lambda t: np.ones_like(t), p=0.0)
        for eps0 in (1e-6, 1.0, 1e6):
            g = scale.growth_bound_check(tr, eps0=eps0)
            assert g.holds and math.isinf(g.eps0_max)

    def test_saturating_trace_algebraic_inversion(self):
        k_end, p0 = 7.0, 0.35
        pre = np.linspace(-2.0, 0.0, 21)
        grow = np.linspace(0.35, k_end, 20)
        times = np.concatenate((pre, grow))
        q = np.concatenate((np.ones(pre.size), 2.0 ** grow))
        tr = sawtooth(times, q, p=np.full(times.size, p0))
        g = scale.growth_bound_check(tr, refine=1)
        analytic = p0 * (k_end + 1.0) / (k_end - 1.0)
        assert g.eps0_max == pytest.approx(analytic, rel=1e-12)
        assert g.anchor == pytest.approx(-1.0)

    def test_monotone_in_eps0(self):
        k_end, p0 = 6.0, 0.5
        tr = self.flat_anchor_trace(lambda t: 2.0 ** t, p=p0, t1=k_end)
        g = scale.growth_bound_check(tr)
        eps_max = g.eps0_max
        assert scale.growth_bound_check(tr, eps0=0.5 * eps_max).holds
        assert not scale.growth_bound_check(tr, eps0=2.0 * eps_max).holds

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pl_traces(), st.sampled_from([1, 2, 8]))
    def test_matches_per_tau_loop(self, tail, refine):
        # A flat unit prefix supplies the anchor; the random tail grows.
        t_tail, q_tail = tail.series("sup_curv")
        _, p_tail = tail.series("sup_hess_scalar")
        pre = np.linspace(-2.0, 0.0, 11)
        times = np.concatenate((pre, 0.05 + t_tail))
        q = np.concatenate((np.ones(pre.size), q_tail))
        p = np.concatenate((np.full(pre.size, 0.5), p_tail))
        tr = sawtooth(times, q, p)
        anchor, eps_max, _ = per_tau_growth_bound(tr, refine=refine)
        g = scale.growth_bound_check(tr, refine=refine)
        assert g.anchor == anchor
        if math.isinf(eps_max):
            assert math.isinf(g.eps0_max)
        else:
            assert g.eps0_max == pytest.approx(eps_max, rel=1e-12)
            for eps0 in (0.5 * eps_max, 2.0 * eps_max):
                holds = scale.growth_bound_check(tr, eps0, refine).holds
                assert holds == per_tau_growth_bound(tr, eps0, refine)[2]

    def test_no_anchor_matches_per_tau_loop(self):
        times = np.linspace(0.0, 1.0, 21)
        tr = sawtooth(times, np.full(times.shape, 0.2))
        with pytest.raises(DomainError):
            per_tau_growth_bound(tr)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_unbounded_sample_is_no_anchor_and_bounds_no_growth(self, bad):
        # Q(1) = 2 looks back over [0.75, 1], beside the sample at 0.
        tr = sawtooth([0.0, 1.0, 2.0, 3.0], [bad, 2.0, 2.0, 2.0])
        assert scale.growth_bound_check(tr).anchor == 2.0
        # After the anchor the sample's cells outgrow every eps0.
        tr = sawtooth([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, bad, 1.0])
        gb = scale.growth_bound_check(tr, eps0=1.0)
        assert (gb.anchor, gb.eps0_max, gb.holds) == (1.0, 0.0, False)

    def test_no_anchor_raises(self):
        times = np.linspace(0.0, 1.0, 21)
        tr = sawtooth(times, np.full(times.shape, 0.2))  # needs 25 units
        with pytest.raises(DomainError):
            scale.growth_bound_check(tr)


def scalar_barrier_check(trace, t0):
    """Oracle: the one-window barrier check the batch replaced, kept
    verbatim except that a window leaving the trace gives None, as does a
    Q(t0) whose square underflows to 0 (an infinite look-back)."""
    q_curve = scale.PiecewiseLinear(*trace.series("sup_curv"))
    o_curve = scale.PiecewiseLinear(*trace.series("sup_scalar"))
    if t0 < q_curve.t[0] - 1e-12 or t0 > q_curve.t[-1] + 1e-12:
        raise DomainError(f"time {t0} outside the trace")
    q0 = float(q_curve(t0))
    if q0 <= 0.0:
        return scale.BarrierReport("inapplicable", t0, t0, None, math.inf)
    if q0 * q0 == 0.0:
        return None
    c = 1.0 / (q0 * q0)
    w0 = t0 - c
    if w0 < float(q_curve.t[0]) - 1e-12:
        return None
    w0 = max(w0, float(q_curve.t[0]))
    try:
        o_max = o_curve.window_max(w0, t0)
    except DomainError:  # t0 just before the trace: an empty window
        return None
    if o_max > q0 * (1.0 + 1e-12):
        return scale.BarrierReport("inapplicable", t0, w0, None, math.inf)

    def barrier(t):
        arg = c + (t - t0)
        return 2.0 / math.sqrt(arg) if arg > 0 else math.inf

    knots = q_curve.t
    lo = np.searchsorted(knots, w0, side="right")
    hi = np.searchsorted(knots, t0, side="left")
    pts = np.concatenate(([w0], knots[lo:hi], [t0]))
    vals = q_curve(pts)
    seg = np.diff(pts) > 1e-14 * max(1.0, abs(t0))
    a, b = pts[:-1][seg], pts[1:][seg]
    ya = vals[:-1][seg]
    slope = (vals[1:][seg] - ya) / (b - a)
    t_star = np.full(a.shape, math.nan)
    down = np.flatnonzero(slope < 0.0)
    t_star[down] = t0 + (np.array(
        [(-1.0 / sl) ** (2.0 / 3.0) for sl in slope[down].tolist()]) - c)
    t_star[~((a < t_star) & (t_star < b))] = math.nan
    cand = np.stack((a, b, t_star), axis=1)
    arg = c + (cand - t0)
    finite = arg > 0.0
    wall = 2.0 / np.sqrt(np.where(finite, arg, 1.0))
    gap = (ya[:, None] + slope[:, None] * (cand - a[:, None])) - wall
    gap[~finite] = -math.inf
    margin = float(np.min(-gap[finite])) if np.any(finite) else math.inf
    first_violation = None
    hits = np.flatnonzero(gap.max(axis=1) >= 0.0)
    if hits.size:
        i = hits[0]
        a_i, ya_i, slope_i = float(a[i]), float(ya[i]), float(slope[i])
        if ya_i - barrier(a_i) >= 0.0:
            first_violation = a_i
        else:
            lo_t, hi_t = a_i, float(cand[i, np.argmax(gap[i])])
            for _ in range(80):
                mid = 0.5 * (lo_t + hi_t)
                val = (ya_i + slope_i * (mid - a_i)) - barrier(mid)
                if val < 0.0:
                    lo_t = mid
                else:
                    hi_t = mid
            first_violation = hi_t
    verdict = "holds" if first_violation is None else "violated"
    return scale.BarrierReport(verdict, t0, w0, first_violation, margin)


def report_bits(rep):
    """A barrier report with every float as its exact bits."""
    if rep is None:
        return None
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in dataclasses.astuple(rep))


@st.composite
def barrier_cases(draw):
    """A sawtooth trace and evaluation times that reach every branch of
    the barrier check: Q(t0) = 0, Q(t0)^2 that underflows, sup O > Q(t0),
    windows that leave the trace, window ends within 1e-14 of a knot,
    repeated times."""
    n = draw(st.integers(min_value=2, max_value=30))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1,
                         max_size=n - 1))
    t = float(draw(st.sampled_from([0.0, 3.0, 250.0]))) + np.concatenate(
        ([0.0], np.cumsum(gaps)))
    level = st.one_of(st.just(0.0), st.just(1e-170), st.just(1e7),
                      st.floats(0.05, 8.0))
    q = np.asarray(draw(st.lists(level, min_size=n, max_size=n)))
    o = draw(st.sampled_from([0.0, 1.0, 9.0])) * np.asarray(draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        o = q * (1.0 + 5e-13)  # sup O = Q(t0) up to the 1e-12 slack
    # A knot whose window starts on an earlier knot, up to rounding.
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                max_size=2, unique=True)))
    q[j] = 1.0 / math.sqrt(t[j] - t[i])
    tr = sawtooth(t, q, o=o)
    times = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["knot", "any", "after-knot", "edge"]))
        k = draw(st.integers(0, n - 1))
        if kind == "knot":
            times.append(float(t[k]))
        elif kind == "any":
            times.append(draw(st.floats(float(t[0]), float(t[-1]))))
        elif kind == "after-knot":
            times.append(min(float(t[k]) + 1e-15 * max(1.0, t[k]),
                             float(t[-1])))
        else:
            times.append(draw(st.sampled_from(
                [float(t[0]) - 5e-13, float(t[0]), float(t[-1])])))
    times += [times[0]] * draw(st.integers(0, 2)) if times else []
    return tr, times + [float(t[j])]


class TestBarrier:
    def test_constant_curve_holds(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=10.0)
        rep = scale.barrier_check(tr, 8.0)
        assert rep.verdict == "holds"
        assert rep.margin > 0

    def test_margin_template_holds(self):
        # Q pinned to 1 at t0 with the look-back tracing 0.9 * barrier:
        # strictly below the barrier everywhere on the window.
        # Track 0.9 * barrier on the gentle part of the window and stay
        # low near the pole, where chords of the convex barrier template
        # would overshoot the barrier itself.
        t0 = 5.0
        times = np.linspace(3.0, t0, 201)
        arg = np.maximum(1.0 + np.minimum(times - t0, -1e-9), 0.25)
        q = np.where(times < t0 - 0.75, 0.5, 0.9 * 2.0 / np.sqrt(arg))
        q[-1] = 1.0
        tr = sawtooth(times, q)
        rep = scale.barrier_check(tr, t0)
        assert rep.verdict == "holds"
        assert rep.margin > 0

    def test_violation_detected_at_first_crossing(self):
        # Q(t0) = 1, so the window is [t0-1, t0] and the barrier dips to
        # 2 near t0; a bump to 3.5 inside the window must be flagged.
        t0 = 5.0
        times = np.linspace(0.0, t0, 501)
        bump = np.clip(1.0 - np.abs(times - 4.5) / 0.2, 0.0, None)
        q = 1.0 + 2.5 * bump
        tr = sawtooth(times, q)
        rep = scale.barrier_check(tr, t0)
        assert rep.verdict == "violated"
        assert rep.first_violation is not None
        assert 4.2 < rep.first_violation < 4.6

    def test_scalar_precondition_gates_the_check(self):
        times = np.linspace(0.0, 10.0, 101)
        tr = sawtooth(times, np.ones_like(times),
                      o=np.full(times.shape, 50.0))
        rep = scale.barrier_check(tr, 8.0)
        assert rep.verdict == "inapplicable"

    def test_time_outside_the_trace(self):
        # A nan time is outside, as +-inf are: no verdict, and no false
        # ``holds`` at t0 = nan.
        tr = scale.synthetic_trace("constant", value=1.0, t1=6.0, n=81)
        for t0 in (6.5, -math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                scale.barrier_check(tr, t0)
            with pytest.raises(DomainError):
                scale.barrier_checks(tr, [3.0, t0])

    def test_insufficient_history(self):
        tr = scale.synthetic_trace("constant", value=0.1, t0=0.0, t1=5.0)
        with pytest.raises(DomainError):
            scale.barrier_check(tr, 1.0)  # needs 100 units of look-back

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(barrier_cases())
    def test_batch_equals_scalar_check_bit_for_bit(self, case):
        tr, times = case
        want = [report_bits(scalar_barrier_check(tr, t0)) for t0 in times]
        got = scale.barrier_checks(tr, times)
        assert [report_bits(rep) for rep in got] == want
        for t0, rep in zip(times, got):
            if rep is None:
                with pytest.raises(DomainError):
                    scale.barrier_check(tr, t0)
            else:
                assert report_bits(scale.barrier_check(tr, t0)) \
                    == report_bits(rep)

    def test_batch_on_the_synthetic_kinds_at_every_sample(self):
        # The last trace's falling segment [4.02, 4.95] enters and leaves
        # the barrier of t0 = 5, so its first violation is bracketed by
        # the segment's interior critical point, not by its end.
        traces = [
            scale.synthetic_trace("typeI", t_sing=6.0, t1=5.9, n=121),
            scale.synthetic_trace("typeII", t_sing=6.0, t1=5.9, n=121),
            scale.synthetic_trace("oscillatory", t1=12.0, n=241, amp=0.6,
                                  base=0.9),
            scale.synthetic_trace("constant", value=1.5, t1=6.0, n=121),
        ] + [tr for _, tr in _synthetic_corpus(n_traces=10)] + [
            sawtooth([0.0, 4.0, 4.02, 4.95, 5.0], [1.0, 1.0, 10.0, 0.5, 1.0]),
        ]
        verdicts = set()
        for tr in traces:
            times = tr.columns["t"].tolist()
            want = [report_bits(scalar_barrier_check(tr, t0))
                    for t0 in times]
            assert [report_bits(rep)
                    for rep in scale.barrier_checks(tr, times)] == want
            verdicts.update(rep[0] for rep in want if rep is not None)
        assert verdicts == {"holds", "violated"}
        assert 4.02 < scale.barrier_check(traces[-1], 5.0).first_violation \
            < 4.3

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_unbounded_sample_violates_the_windows_it_meets(self, bad):
        # Q(4) = 0.5 looks back over [0, 4], where the barrier 2 / sqrt(t)
        # stays above every finite sample: the violation starts with the
        # cell (2, 3) beside the sample at 3.
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        tr = sawtooth(times, [0.5, 0.5, 0.5, bad, 0.5])
        assert report_bits(scale.barrier_check(tr, 4.0)) == report_bits(
            scale.BarrierReport("violated", 4.0, 0.0, 2.0, -math.inf))
        # A finite crossing before the sample's cells stays the first.
        tr = sawtooth(times, [0.5, 3.0, 0.5, bad, 0.5])
        rep = scale.barrier_check(tr, 4.0)
        assert rep.verdict == "violated" and rep.margin == -math.inf
        assert rep.first_violation == scale.barrier_check(
            sawtooth(times, [0.5, 3.0, 0.5, 0.5, 0.5]), 4.0).first_violation
        assert 0.0 < rep.first_violation < 1.0
        # Q(t0) is not finite at the sample or in the cells beside it.
        for t0 in (2.5, 3.0, 3.5):
            assert scale.barrier_check(tr, t0).verdict == "inapplicable"

    def test_no_times_give_no_reports(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=5.0)
        assert scale.barrier_checks(tr, []) == []
        lone = scale.Trace(records(tr)[:1], 0.0, 0.0, "completed", {})
        assert scale.barrier_checks(lone, np.empty(0)) == []


class TestBlowupRates:
    def test_type_one_model(self):
        tr = scale.synthetic_trace("typeI", t_sing=4.0, t0=0.0, t1=3.999,
                                   n=400)
        r = scale.blowup_rates(tr, 4.0, alpha=0.5)
        assert abs(r.sup_qroot - 1.0) <= 1e-12
        assert r.type1
        assert r.lam_fit == pytest.approx(0.5, abs=0.051)

    def test_type_two_model(self):
        tr = scale.synthetic_trace("typeII", t_sing=4.0, t0=0.0, t1=3.999,
                                   n=400)
        r = scale.blowup_rates(tr, 4.0, alpha=0.5)
        assert not r.type1
        assert r.sup_qroot > 5.0
        assert r.lam_fit == pytest.approx(1.0, abs=0.051)

    def test_tail_grows_with_horizon(self):
        t_sing = 4.0
        near = scale.synthetic_trace("typeII", t_sing=t_sing, t1=3.9999,
                                     n=500)
        far = scale.synthetic_trace("typeII", t_sing=t_sing, t1=3.9,
                                    n=500)
        r_near = scale.blowup_rates(near, t_sing, 0.5)
        r_far = scale.blowup_rates(far, t_sing, 0.5)
        assert r_near.sup_qroot > 3.0 * r_far.sup_qroot

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_unbounded_sample_gives_unbounded_rates(self, bad):
        tr = sawtooth([0.0, 1.0, 2.0, 3.0], [1.0, bad, 1.0, 1.0])
        r = scale.blowup_rates(tr, 4.0, alpha=0.5)
        assert (r.sup_pt, r.sup_oq, r.sup_qroot, r.sup_q2t, r.type1) \
            == (0.0, math.inf, math.inf, math.inf, False)

    def test_empty_tail_raises(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=5.0, t1=6.0)
        with pytest.raises(DomainError):
            scale.blowup_rates(tr, 5.0, alpha=0.5)

    def test_alpha_range(self):
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=6.0)
        with pytest.raises(DomainError):
            scale.blowup_rates(tr, 7.0, alpha=1.5)


class TestRescale:
    def test_identity(self):
        tr = scale.synthetic_trace("typeI", t_sing=5.0, t1=4.5, n=61)
        rs = scale.rescale_trace(tr, 1.0)
        assert rs == scale.Trace.from_columns(
            tr.columns, tr.t_start, tr.t_end, tr.termination,
            {**tr.metadata, "rescaled_by": 1.0}, tr.absent)

    def test_field_scaling_rules(self):
        tr = scale.synthetic_trace("constant", value=1.5, t1=6.0, n=11,
                                   p=0.25, o=3.0)
        a = 2.0
        rs = scale.rescale_trace(tr, a)
        s0 = {name: col[3] for name, col in tr.columns.items()}
        s1 = {name: col[3] for name, col in rs.columns.items()}
        assert s1["sup_curv"] == s0["sup_curv"] / a
        assert s1["sup_hess_scalar"] == s0["sup_hess_scalar"] / a ** 2
        assert s1["sup_scalar"] == s0["sup_scalar"] / a
        assert s1["calabi_energy"] == s0["calabi_energy"] / a
        assert s1["volume"] == s0["volume"] * a
        assert s1["t"] == a * a * (s0["t"] - tr.t_start)

    def test_constant_curve_scale_identity(self):
        # Q = 1 trace, A = 2: the curvature scale quadruples at the image
        # of any interior time.
        tr = scale.synthetic_trace("constant", value=1.0, t0=0.0, t1=12.0)
        rs = scale.rescale_trace(tr, 2.0)
        t0 = 4.0
        f = scale.curvature_scale(tr, t0)
        f2 = scale.curvature_scale(rs, 4.0 * t0)
        assert f2 == pytest.approx(4.0 * f, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pl_traces(), st.sampled_from([0.5, 2.0, 10.0]),
           st.floats(0.3, 1.0))
    def test_covariance_property(self, tr, a, frac):
        rs = scale.rescale_trace(tr, a)
        t0 = tr.t_start + frac * (tr.t_end - tr.t_start)
        f = scale.curvature_scale(tr, t0)
        f2 = scale.curvature_scale(rs, a * a * (t0 - tr.t_start))
        assert f2 == pytest.approx(a * a * f, rel=1e-8, abs=1e-12)


class TestSynthetic:
    def test_unknown_kind(self):
        with pytest.raises(BadParams):
            scale.synthetic_trace("mystery")

    def test_missing_parameter(self):
        with pytest.raises(BadParams):
            scale.synthetic_trace("typeI")

    def test_unknown_parameter(self):
        with pytest.raises(BadParams):
            scale.synthetic_trace("constant", value=1.0, wavelength=3.0)

    def test_non_monotone_times(self):
        with pytest.raises(BadParams):
            sawtooth([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])

    def test_oscillatory_requires_positive_floor(self):
        with pytest.raises(BadParams):
            scale.synthetic_trace("oscillatory", base=0.5, amp=0.6)


def test_analyze_trace_bundle():
    tr = scale.synthetic_trace("typeI", t_sing=6.0, t0=0.0, t1=5.9, n=121)
    rep = scale.analyze_trace(tr, alpha=0.5, t_sing=6.0)
    assert rep.rates is not None and rep.rates.type1
    assert rep.curvature_scale and all(f > 0 for _, f in rep.curvature_scale)
    assert rep.meta["termination"] == "completed"


def test_trace_requires_increasing_times():
    s = records(scale.synthetic_trace("constant", value=1.0))
    with pytest.raises(ValueError):
        scale.Trace((s[0], s[0]), 0.0, 1.0, "completed", {})


def test_derivative_ops_need_two_samples():
    tr = scale.synthetic_trace("constant", value=1.0)
    lone = scale.Trace(records(tr)[:1], 0.0, 0.0, "completed", {})
    with pytest.raises(DomainError):
        scale.curvature_scale(lone, 0.0)


def test_negative_envelopes_rejected():
    with pytest.raises(BadParams):
        sawtooth([0.0, 1.0], [1.0, -0.5])
