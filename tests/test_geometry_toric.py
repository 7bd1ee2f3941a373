"""Interval backend: Chebyshev machinery, round-state exactness, oracles."""

import numpy as np
import pytest

from calabilab import flow, geometry, presets
from calabilab.errors import NonKahler
from calabilab.geometry import toric


FOLD_SIZES = [8, 9, 33, 64, 65, 512, 513, 2049]


def perturbed(m, seed=1, amp=0.3):
    return presets.build_initial(
        "toric1d", m, {"preset": "random", "seed": seed, "amplitude": amp}
    )


def dense_d1(x):
    """Reference: the dense Chebyshev collocation matrix on the nodes x,
    with the negative-sum diagonal (Trefethen, Spectral Methods in MATLAB,
    ch. 6)."""
    m = x.size
    c = np.ones(m)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(m)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(m))
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def dense_k0(o):
    """Reference: the round-state stiffness D2' diag(w q^2) D2, dense."""
    d2 = np.linalg.matrix_power(dense_d1(o.x), 2)
    return d2.T @ ((o.weights * o.q * o.q)[:, None] * d2)


class TestChebyshevTables:
    def test_nodes_include_exact_endpoints(self):
        o = toric.ops(33)
        assert o.x[0] == -1.0 and o.x[-1] == 1.0

    def test_derivative_exact_on_polynomials(self):
        o = toric.ops(32)
        p = o.x ** 5 - 3 * o.x ** 2 + o.x
        dp = 5 * o.x ** 4 - 6 * o.x + 1
        assert np.max(np.abs(toric.diff(p, 1) - dp)) < 1e-10
        assert np.max(np.abs(dense_d1(o.x) @ p - dp)) < 1e-10

    def test_derivative_annihilates_constants(self):
        ones = np.ones(64)
        assert np.max(np.abs(toric.diff(ones, 1))) < 1e-12
        assert np.max(np.abs(dense_d1(toric.ops(64).x) @ ones)) < 1e-12

    def test_quadrature_weights(self):
        o = toric.ops(48)
        assert abs(o.weights.sum() - 2.0) < 1e-14
        assert abs(o.weights @ o.x ** 4 - 2.0 / 5.0) < 1e-14


class TestParityFold:
    # Every toric derivative is two half-size products on the sums and the
    # differences of mirrored values; these pin the fold against the dense
    # matrices it replaces, at even and odd M (odd M puts the centre node
    # x = 0 in the even half).

    @pytest.mark.parametrize("m", FOLD_SIZES)
    def test_diff_is_the_dense_product_to_rounding(self, m):
        # Bound: 4 sqrt(m) eps times |D| |f| at every node, the scale of
        # the rounding of any summation order (measured at most 5.8 eps,
        # at m = 513 and 2049).  D2 is checked as D1 applied twice.
        x = toric.ops(m).x
        d1 = dense_d1(x)
        bound = 4.0 * np.sqrt(m) * np.finfo(float).eps
        rng = np.random.default_rng(m)
        for f in (np.exp(np.sin(3.0 * x)), rng.standard_normal(m)):
            scale1 = np.abs(d1) @ np.abs(f)
            want1 = d1 @ f
            assert np.all(np.abs(toric.diff(f, 1) - want1) <= bound * scale1)
            scale2 = np.abs(d1) @ scale1
            want2 = d1 @ want1
            assert np.all(np.abs(toric.diff(f, 2) - want2) <= bound * scale2)

    @pytest.mark.parametrize("m", FOLD_SIZES)
    def test_reflection_equivariance_is_exact(self, m):
        f = np.random.default_rng(m).standard_normal(m)
        assert np.array_equal(toric.diff(f[::-1], 1), -toric.diff(f, 1)[::-1])
        assert np.array_equal(toric.diff(f[::-1], 2), toric.diff(f, 2)[::-1])

    @pytest.mark.parametrize("m", FOLD_SIZES)
    def test_fold_and_unfold_invert_each_other(self, m):
        f = np.random.default_rng(m).standard_normal(m)
        s, d = toric.fold(f)
        assert (s.size, d.size) == (m - m // 2, m // 2)
        assert np.allclose(toric.unfold(0.5 * s, 0.5 * d), f, rtol=0,
                           atol=4e-16 * np.max(np.abs(f)))

    @pytest.mark.parametrize("m", FOLD_SIZES)
    def test_round_state_is_a_fixed_point_bit_for_bit(self, m):
        state = geometry.round_state(m)
        assert np.array_equal(geometry.scalar_curvature(state).values,
                              np.full(m, 2.0))
        assert geometry.calabi_energy(state) == 0.0
        assert geometry.scalar_evolution(state).tobytes() == bytes(8 * m)
        res = flow.step(state, 1e-2)
        assert res.accepted
        assert res.new_state.values.tobytes() == state.values.tobytes()


def test_each_state_differentiates_v_and_s_once(monkeypatch):
    # The base field and S read one D2 v, and lap_g S and |grad S|_g one
    # D1 S: the state's forms keep them.
    state = perturbed(64)
    calls = []
    diff = toric.diff

    def counted(f, k):
        calls.append((f, k))
        return diff(f, k)

    monkeypatch.setattr(toric, "diff", counted)
    s = geometry.scalar_curvature(state).values
    geometry.curvature_norms(state)
    geometry.scalar_probes(state)
    assert [k for f, k in calls if f is state.values] == [2]
    assert [k for f, k in calls if f is s] == [1]


class TestRoundStateModes:
    @pytest.mark.parametrize("m", [64, 128, 512])
    def test_spectrum_has_its_closed_form(self, m):
        # The round-state operator (q^2 v'')'' has eigenvalues
        # (l-1) l (l+1) (l+2) on degree-l polynomials: the two affine
        # gauge modes at 0, then 24, 120, 360, 840 for l = 2..5.  The
        # rates are one spectrum per parity, the even block's first;
        # merged they are the pencil's.
        (_, even, _), (_, odd, _) = toric.ops(m).modes
        assert (even.size, odd.size) == (m - m // 2, m // 2)
        rates = toric.decay_rates(m)
        assert rates.tobytes() == np.concatenate([even, odd]).tobytes()
        lam = np.sort(rates)
        assert np.all(lam >= 0.0)
        assert np.all(lam[:2] < 1e-6)
        assert even[0] < 1e-6 and odd[0] < 1e-6  # the constant and x
        want = np.array([(l - 1) * l * (l + 1) * (l + 2) for l in range(2, 6)])
        assert np.max(np.abs(lam[2:6] - want) / want) < 1e-6

    def test_step_solves_the_implicit_system(self):
        # The eigenbasis step against a dense solve of
        # (W + dt K0) delta = dt W F, K0 = D2' diag(w q^2) D2; they agree
        # to the conditioning of the dense system, at even and odd M.
        for m in (64, 65):
            state = perturbed(m)
            o = toric.ops(m)
            dt = 1e-2
            f = flow.rhs(state)
            delta = np.linalg.solve(np.diag(o.weights) + dt * dense_k0(o),
                                    dt * o.weights * f)
            want = toric.strip_affine(state.values + delta)
            got = flow.step(state, dt).new_state.values
            assert (np.max(np.abs(got - want))
                    < 1e-10 * np.max(np.abs(delta))), m


class TestRoundState:
    def test_scalar_curvature_exactly_two(self):
        s = geometry.scalar_curvature(geometry.round_state(128))
        assert np.array_equal(s.values, np.full(128, 2.0))

    def test_energy_exactly_zero(self):
        assert geometry.calabi_energy(geometry.round_state(64)) == 0.0

    def test_norms(self):
        sup_s, sup_hess, sup_rm = geometry.curvature_norms(
            geometry.round_state(64)
        )
        assert sup_s == 2.0 and sup_rm == 1.0
        assert sup_hess < 1e-10

    def test_convention_self_consistency(self):
        state = geometry.round_state(64)
        s = geometry.scalar_curvature(state).values
        assert np.allclose(s, geometry.average_scalar(state))


class TestAverageScalar:
    def test_round_value(self):
        assert geometry.average_scalar(geometry.round_state(32)) == 2.0

    def test_independent_of_admissible_perturbation(self):
        for seed in range(4):
            state = perturbed(64, seed=seed, amp=0.4)
            assert geometry.average_scalar(state) == 2.0

    def test_matches_quadrature_of_curvature(self):
        # int S dx over the interval's length 2 is the constant S_bar.
        state = perturbed(96, seed=7, amp=0.3)
        s = geometry.scalar_curvature(state).values
        total = geometry.grid_integral(state, s)
        assert abs(total - 2.0 * geometry.average_scalar(state)) < 1e-8

    @pytest.mark.parametrize("m", [8, 9, 33, 64, 65, 512, 2049])
    @pytest.mark.parametrize("preset", ["random", "rough"])
    def test_constant_is_the_boundary_formula(self, m, preset):
        # S_bar = rho(-1) + rho(1), rho = 1 / base: the base field is
        # exactly 1 at both endpoints, so the constant is that formula bit
        # for bit, at even and odd M and where the quadrature weights do
        # not sum to 2 (9 and 33).
        for seed, amp in ((1, 0.1), (2, 0.5), (3, 0.9)):
            state = presets.build_initial(
                "toric1d", m, {"preset": preset, "seed": seed,
                               "amplitude": amp})
            p = geometry.base_field(state)
            assert p[0] == p[-1] == 1.0
            assert toric.MEAN_SCALAR == 1.0 / p[0] + 1.0 / p[-1]
            assert geometry.average_scalar(state) == toric.MEAN_SCALAR


class TestScalarCurvature:
    def test_agrees_with_finite_differences(self):
        # Independent oracle: evaluate the profile 1/u'' from the
        # barycentric interpolant of v on a fine uniform interior grid and
        # differentiate with second-order stencils.
        m = 96
        state = perturbed(m, seed=3, amp=0.25)
        v = state.values
        o = toric.ops(m)
        fine = np.linspace(-0.95, 0.95, 4001)
        vf = _barycentric(o.x, v, fine)
        dx = fine[1] - fine[0]
        v2 = np.gradient(np.gradient(vf, dx), dx)
        q = 1.0 - fine ** 2
        w = q / (1.0 + q * v2)
        s_fd = -np.gradient(np.gradient(w, dx), dx)
        s_spec = _barycentric(o.x, geometry.scalar_curvature(state).values,
                              fine)
        inner = slice(200, -200)
        assert np.max(np.abs(s_fd[inner] - s_spec[inner])) < 5e-3

    def test_positivity_failure_raises(self):
        o = toric.ops(64)
        v = 2.0 * o.x ** 2  # 1 + (1-x^2) v'' = 1 + 4(1-x^2) fine; flip sign
        state_bad = -v
        with pytest.raises(NonKahler):
            geometry.scalar_curvature(geometry.toric_state(state_bad))


class TestVolumeAndEnergy:
    def test_volume_is_interval_length(self):
        assert abs(geometry.volume(geometry.round_state(64)) - 2.0) < 1e-14

    def test_volume_state_independent(self):
        assert geometry.volume(perturbed(64)) == geometry.volume(
            geometry.round_state(64)
        )

    def test_energy_positive_off_round(self):
        assert geometry.calabi_energy(perturbed(64)) > 0.0


def test_reflection_is_exact_grid_permutation():
    o = toric.ops(33)
    assert np.array_equal(o.x[::-1], -o.x)


def _barycentric(nodes, vals, x):
    m = nodes.size
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    exact = np.full(x.shape, np.nan)
    for j in range(m):
        diff = x - nodes[j]
        hit = diff == 0
        exact[hit] = vals[j]
        diff[hit] = 1.0
        num += w[j] * vals[j] / diff
        den += w[j] / diff
    out = num / den
    out[~np.isnan(exact)] = exact[~np.isnan(exact)]
    return out
