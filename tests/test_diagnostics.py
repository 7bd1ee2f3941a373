"""Diagnostics: samples, evolution identity, Futaki pairing, gap distance."""

import numpy as np
import pytest

from calabilab import diagnostics, flow, geometry, presets
from calabilab.geometry import toric, torus


def torus_state(seed=2, n=32, amp=0.3, kmax=4):
    return presets.build_initial(
        "torus", n, {"preset": "random", "seed": seed, "amplitude": amp,
                     "kmax": kmax}
    )


class TestSample:
    def test_flat_torus_record(self):
        rec = diagnostics.sample(geometry.flat_state(32))
        assert rec.sup_scalar == rec.sup_hess_scalar == rec.sup_curv == 0.0
        assert rec.calabi_energy == 0.0
        assert rec.volume == pytest.approx((2 * np.pi) ** 2, rel=1e-14)
        assert rec.mean_scalar == 0.0
        assert rec.futaki == 0.0
        assert rec.evolution_residual is None and rec.aut_gap is None

    def test_round_toric_record(self):
        rec = diagnostics.sample(geometry.round_state(64))
        assert rec.sup_scalar == 2.0
        assert rec.sup_curv == 1.0
        assert rec.sup_hess_scalar < 1e-10
        assert rec.calabi_energy == 0.0
        assert rec.mean_scalar == 2.0

    def test_curvature_is_half_scalar_on_both_backends(self):
        for state in (torus_state(), geometry.round_state(32)):
            rec = diagnostics.sample(state)
            assert rec.sup_curv == 0.5 * rec.sup_scalar

    def test_record_is_a_tuple_in_schema_order(self):
        state = torus_state()
        res = flow.step(state, 1e-5)
        new = res.new_state
        rec = diagnostics.sample(new, prev=state, dt=1e-5,
                                 reference=geometry.flat_state(32))
        assert isinstance(rec, tuple)
        assert rec._fields == diagnostics.SAMPLE_SCHEMA
        assert len(rec) == len(diagnostics.SAMPLE_SCHEMA)
        assert diagnostics.SAMPLE_SCHEMA[-3:] == diagnostics.OPTIONAL_FIELDS
        want = {"t": float(new.t),
                "calabi_energy": geometry.calabi_energy(new),
                "volume": geometry.volume(new),
                "mean_scalar": geometry.average_scalar(new),
                "aut_gap": diagnostics.automorphism_gap(
                    new, geometry.flat_state(32))}
        for name, value in want.items():
            assert rec[diagnostics.SAMPLE_SCHEMA.index(name)] == value
        assert rec[1:4] == geometry.curvature_norms(new)
        assert rec[7:9] == geometry.scalar_probes(new)
        # A blank optional field is None in its place.
        lone = diagnostics.sample(geometry.flat_state(32))
        assert lone[-3] is None and lone[-1] is None

    def test_cross_step_fields(self):
        state = torus_state()
        res = flow.step(state, 1e-5)
        rec = diagnostics.sample(res.new_state, prev=state, dt=1e-5,
                                 reference=geometry.flat_state(32))
        assert rec.evolution_residual is not None
        assert rec.aut_gap is not None and rec.aut_gap > 0

    @staticmethod
    def count_ffts(monkeypatch, fn):
        calls = []
        for name in ("rfft2", "irfft2", "fft2", "ifft2"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        try:
            return fn(), len(calls)
        finally:
            monkeypatch.undo()

    def test_one_pass_per_sample(self, monkeypatch):
        # A sample reads the state's cached spectra: S_hat once for lap_g S
        # and grad S (1), lap_g S (1), grad S (2), lap_g lap_g S (2, shared
        # by the probes and the evolution side E) and the Futaki pairing's
        # transform of h·dev (1): 7.  The gap to the zero reference needs no
        # correlation.  This prev was not sampled, so its E costs 3 more
        # (lap_g S and lap_g lap_g S; the step derived its density and
        # S_hat), and this test's fresh reference's spectrum 1, which a run
        # computes once: 11 (it was 17).  The step already computed the new
        # state's spectrum, base field and S.
        state = torus_state(n=64)
        res = flow.step(state, 1e-5)
        assert res.accepted
        rec, calls = self.count_ffts(monkeypatch, lambda: diagnostics.sample(
            res.new_state, prev=state, dt=1e-5,
            reference=geometry.flat_state(64)))
        assert calls <= 11, calls
        pairings = diagnostics.futaki(res.new_state,
                                      diagnostics.basis_fields("torus"))
        assert len(pairings) == 2
        assert rec.futaki == max(abs(p) for p in pairings)

    def test_sample_after_a_sampled_prev(self, monkeypatch):
        # The prev's sample kept its S and E, so the residual reads both
        # ends from the cache and the sample costs its own 7 FFTs.
        state = torus_state(n=64)
        reference = geometry.flat_state(64)
        diagnostics.sample(state, reference=reference)
        res = flow.step(state, 1e-5)
        assert res.accepted
        rec, calls = self.count_ffts(monkeypatch, lambda: diagnostics.sample(
            res.new_state, prev=state, dt=1e-5, reference=reference))
        assert calls <= 7, calls
        fresh = [geometry.torus_state(st.values, st.t)
                 for st in (state, res.new_state)]
        assert rec == diagnostics.sample(fresh[1], prev=fresh[0], dt=1e-5,
                                         reference=reference)


def laplacians(ops, base, s):
    """The ``laps`` argument of a backend's ``scalar_evolution``: lap_g S
    and lap_g(lap_g S) as ``geometry`` derives them."""
    def laps():
        lap = ops.laplacian(base, ops.spectrum(s))
        return lap, ops.laplacian(base, ops.spectrum(lap))
    return laps


def not_called():
    raise AssertionError("the compact form reads no Laplacian of S")


class TestEvolutionResidual:
    def test_fixed_point_is_machine_zero(self):
        flat = geometry.flat_state(32)
        for dt in (1e-6, 1e-2, 1.0):
            assert diagnostics.evolution_residual(flat, flat, dt) == 0.0
        rnd = geometry.round_state(64)
        assert diagnostics.evolution_residual(rnd, rnd, 0.1) < 1e-9

    def test_trapezoid_of_the_backends_evolution_sides(self):
        for backend in geometry.BACKENDS:
            ops = geometry.backend_module(backend)
            state = presets.build_initial(
                backend, 32, {"preset": "random", "seed": 4,
                              "amplitude": 0.2})
            new = flow.step(state, 1e-5).new_state
            ends = []
            for st in (state, new):
                spec = ops.spectrum(st.values)
                h = ops.base_field(spec)
                s = ops.scalar_curvature(spec, h)
                ends.append((s, ops.scalar_evolution(
                    h, s, laplacians(ops, h, s))))
            (s0, e0), (s1, e1) = ends
            want = np.max(np.abs((s1 - s0) / 1e-5 + 0.5 * (e0 + e1)))
            got = diagnostics.evolution_residual(state, new, 1e-5)
            assert got == want > 0.0

    def test_inputs_are_validated(self):
        coarse, fine = torus_state(n=16), torus_state(n=32)
        with pytest.raises(ValueError, match="resolution"):
            diagnostics.evolution_residual(coarse, fine, 1e-3)
        with pytest.raises(ValueError, match="backend"):
            diagnostics.evolution_residual(geometry.round_state(16), coarse,
                                           1e-3)
        for dt in (float("nan"), float("inf"), 0.0, -1e-3):
            with pytest.raises(ValueError, match="dt"):
                diagnostics.evolution_residual(fine, fine, dt)

    def test_torus_identity_against_flow_derivative(self):
        # Finite difference of S along the flow direction versus the
        # frozen spatial reduction; the defect is far below either term.
        state = torus_state(amp=0.3, kmax=3)
        phi = state.values
        h = torus.base_field(torus.spectrum(phi))
        direction = torus.scalar_curvature(phi, h)
        eps = 1e-7

        def s_of(p):
            p = p - p.mean()
            return torus.scalar_curvature(
                p, torus.base_field(torus.spectrum(p)))

        ds = (s_of(phi + eps * direction) - s_of(phi - eps * direction)) \
            / (2 * eps)
        spatial = torus.scalar_evolution(
            h, direction, laplacians(torus, h, direction))
        scale = np.max(np.abs(spatial))
        assert np.max(np.abs(ds + spatial)) < 1e-6 * scale

    def test_toric_identity_against_flow_derivative(self):
        state = presets.build_initial(
            "toric1d", 96, {"preset": "random", "seed": 1, "amplitude": 0.1}
        )
        v = state.values

        def s_of(w):
            spec = toric.spectrum(w)
            return toric.scalar_curvature(spec, toric.base_field(spec))

        s = s_of(v)
        direction = toric.FLOW_SIGN * (s - 2.0)
        eps = 1e-6
        ds = (s_of(v + eps * direction)
              - s_of(v - eps * direction)) / (2 * eps)
        spatial = toric.scalar_evolution(
            toric.base_field(toric.spectrum(v)), s, not_called)
        scale = np.max(np.abs(spatial))
        assert np.max(np.abs(ds + spatial)) < 1e-5 * scale

    def test_flow_consecutive_states_have_small_residual(self):
        state = torus_state(amp=0.15, kmax=2)
        res = flow.step(state, 1e-5)
        along = diagnostics.evolution_residual(state, res.new_state, 1e-5)
        # Deliberately mismatched pair: same dt, unrelated endpoints.
        other = torus_state(seed=77, amp=0.15, kmax=2)
        mismatched = diagnostics.evolution_residual(state, other, 1e-5)
        assert mismatched > 100.0 * along


class TestFutaki:
    def test_flat_class_vanishes(self):
        vals = diagnostics.futaki(geometry.flat_state(32),
                                  diagnostics.basis_fields("torus"))
        assert len(vals) == 2
        for val in vals:
            assert abs(val) < 1e-12

    def test_round_circle_generator_vanishes(self):
        fields = diagnostics.basis_fields("toric1d")
        assert diagnostics.futaki(geometry.round_state(64), fields) == (0.0,)

    def test_linearity_in_the_field(self):
        state = torus_state(n=64, kmax=4)
        combos = ((2.0, -1.5), (0.3, 0.7))
        f1, f2, *vals = diagnostics.futaki(
            state, (*diagnostics.basis_fields("torus"), *combos))
        for (a, b), val in zip(combos, vals):
            assert abs(val - (a * f1 + b * f2)) < 1e-9

    def test_bad_field_spec(self):
        with pytest.raises(ValueError):
            diagnostics.futaki(torus_state(), [(1.0,)])
        with pytest.raises(ValueError):
            diagnostics.futaki(geometry.round_state(32), [(1.0, 0.0)])

    def test_torus_pairing_is_the_nodal_quadrature(self):
        # The class invariant is 0 for every torus state, so pair data
        # that is not S - S_bar: the sum over modes must match the
        # quadrature of V(f) h on the grid, f from a full-spectrum solve.
        n = 32
        phi = torus.random_potential(n, 3, 0.5, kmax=6)
        h = torus.base_field(torus.spectrum(phi))
        x = 2.0 * np.pi * np.arange(n) / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        dev = np.sin(xx + 2.0 * yy) + 0.3 * np.cos(3.0 * xx) * np.sin(yy)
        dev -= np.sum(dev * h) / np.sum(h)
        rows = ((1.0, 0.0), (0.0, 1.0), (0.3, -2.0))
        got = torus.futaki_pairing(h, torus.spectrum(phi), dev, rows)
        k = np.fft.fftfreq(n, d=1.0 / n)
        k2 = k[:, None] ** 2 + k[None, :] ** 2
        fh = np.fft.fft2(h * dev - np.mean(h * dev))
        fh[k2 > 0] /= -k2[k2 > 0]
        fh[0, 0] = 0.0
        fx = np.fft.ifft2(1j * k[:, None] * fh).real
        fy = np.fft.ifft2(1j * k[None, :] * fh).real
        for (a, b), val in zip(rows, got):
            want = torus.cell_area(n) * np.sum((a * fx + b * fy) * h)
            assert abs(want) > 1e-3
            assert val == pytest.approx(want, rel=1e-12)

    def test_toric_pairing_is_the_hamiltonian_moment(self):
        # The circle generator's Hamiltonian is x, so S - S_bar = x pairs
        # to c int x^2 dx = 2c/3.
        rnd = geometry.round_state(128)
        p = geometry.base_field(rnd)
        x = toric.ops(128).x
        for c in (1.0, -2.5, 0.3):
            (val,) = toric.futaki_pairing(p, rnd.values, x, [(c,)])
            assert abs(val - 2.0 * c / 3.0) < 1e-14

    @pytest.mark.parametrize("m", [128, 512])
    def test_resolved_toric_states_vanish(self, m):
        # int (S - S_bar) x dx is a class invariant, 0 on the interval.
        fields = diagnostics.basis_fields("toric1d")
        for seed in range(3):
            state = presets.build_initial(
                "toric1d", m,
                {"preset": "random", "seed": seed, "amplitude": 0.45})
            (val,) = diagnostics.futaki(state, fields)
            assert abs(val) <= 1e-10


class TestAutomorphismGap:
    def test_identity_pair_is_zero(self):
        state = torus_state()
        assert diagnostics.automorphism_gap(state, state) == 0.0

    def test_grid_translation_is_gauge(self):
        state = torus_state(n=32)
        rolled = geometry.torus_state(np.roll(state.values, (5, 11),
                                              axis=(0, 1)))
        gap = diagnostics.automorphism_gap(rolled, state)
        assert gap < 1e-10

    def test_reflection_is_gauge_on_the_interval(self):
        state = presets.build_initial(
            "toric1d", 33, {"preset": "random", "seed": 6, "amplitude": 0.3}
        )
        mirrored = geometry.toric_state(state.values[::-1])
        assert diagnostics.automorphism_gap(mirrored, state) < 1e-12

    def test_infimum_property(self):
        a = torus_state(seed=1)
        b = torus_state(seed=2)
        gap = diagnostics.automorphism_gap(a, b)
        raw = np.sqrt(torus._weighted_power(
            (1.0 + torus._ops(32)[2]) ** 2,
            np.fft.rfft2(a.values) - np.fft.rfft2(b.values),
            32,
        ))
        assert gap <= raw + 1e-12

    def test_invariant_under_translating_either_argument(self):
        a = torus_state(seed=1)
        b = torus_state(seed=2)
        gap = diagnostics.automorphism_gap(a, b)
        moved = geometry.torus_state(np.roll(a.values, (3, 9),
                                             axis=(0, 1)))
        assert abs(diagnostics.automorphism_gap(moved, b) - gap) \
            < 1e-10 * max(gap, 1.0)

    def test_zero_gap_implies_equal_energy(self):
        state = torus_state(n=32)
        rolled = geometry.torus_state(np.roll(state.values, 7, axis=0))
        assert diagnostics.automorphism_gap(rolled, state) < 1e-10
        assert abs(geometry.calabi_energy(rolled)
                   - geometry.calabi_energy(state)) < 1e-10

    def test_torus_gap_is_the_minimum_over_grid_translations(self):
        # Brute-force oracle: every one of the n^2 np.roll translations.
        n = 16
        wgt = (1.0 + torus._ops(n)[2]) ** 2
        rng = np.random.default_rng(20)
        for _ in range(10):
            a, b = (geometry.torus_state(x - x.mean())
                    for x in rng.standard_normal((2, n, n)))
            fb = np.fft.rfft2(b.values)
            brute = min(
                torus._weighted_power(
                    wgt, np.fft.rfft2(np.roll(a.values, (i, j), axis=(0, 1)))
                    - fb, n)
                for i in range(n) for j in range(n))
            gap = diagnostics.automorphism_gap(a, b)
            assert gap == pytest.approx(np.sqrt(brute), rel=1e-12)

    def test_gap_to_the_zero_state_is_the_plain_norm(self):
        # Bit for bit: this is the aut_gap column of every torus run.
        n = 64
        wgt = (1.0 + torus._ops(n)[2]) ** 2
        zero = geometry.zero_state("torus", n)
        for seed in (1, 2, 3):
            phi = torus_state(seed=seed, n=n).values
            plain = np.sqrt(torus._weighted_power(wgt, np.fft.rfft2(phi), n))
            assert diagnostics.automorphism_gap(
                geometry.torus_state(phi), zero) == plain

    def test_zero_reference_skips_the_correlation(self, monkeypatch):
        # The correlation against a zero spectrum is the constant diag, so
        # the shortcut returns the same bits without an inverse transform.
        n = 64
        wgt = (1.0 + torus._ops(n)[2]) ** 2
        a_hat = np.fft.rfft2(torus_state(seed=5, n=n).values)
        b_hat = geometry.spectrum(geometry.flat_state(n))
        diag = (torus._weighted_power(wgt, a_hat, n)
                + torus._weighted_power(wgt, b_hat, n))
        cross = np.fft.irfft2(wgt * a_hat * np.conj(b_hat), s=(n, n))
        cross /= n * n
        cross *= -2.0
        cross += diag
        grid = max(float(np.min(cross)), 0.0)
        old = float(np.sqrt(min(grid, torus._weighted_power(
            wgt, a_hat - b_hat, n))))
        calls = []
        monkeypatch.setattr(np.fft, "irfft2",
                            lambda *a, **k: calls.append(a))
        got = torus.sobolev_gap(a_hat, b_hat)
        assert calls == []
        assert np.float64(got).tobytes() == np.float64(old).tobytes()

    def test_backend_mismatch(self):
        with pytest.raises(ValueError):
            diagnostics.automorphism_gap(geometry.flat_state(16),
                                         geometry.round_state(16))

