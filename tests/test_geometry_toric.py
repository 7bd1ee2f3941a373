"""Interval backend: Chebyshev machinery, round-state exactness, oracles."""

import numpy as np
import pytest

from calabilab import geometry, presets
from calabilab.errors import NonKahler
from calabilab.geometry import toric


def perturbed(m, seed=1, amp=0.3):
    return presets.build_initial(
        "toric1d", m, {"preset": "random", "seed": seed, "amplitude": amp}
    )


class TestChebyshevTables:
    def test_nodes_include_exact_endpoints(self):
        o = toric.ops(33)
        assert o.x[0] == -1.0 and o.x[-1] == 1.0

    def test_derivative_exact_on_polynomials(self):
        o = toric.ops(32)
        p = o.x ** 5 - 3 * o.x ** 2 + o.x
        dp = 5 * o.x ** 4 - 6 * o.x + 1
        assert np.max(np.abs(o.d1 @ p - dp)) < 1e-10

    def test_derivative_annihilates_constants(self):
        o = toric.ops(64)
        assert np.max(np.abs(o.d1 @ np.ones(64))) < 1e-12

    def test_quadrature_weights(self):
        o = toric.ops(48)
        assert abs(o.weights.sum() - 2.0) < 1e-14
        assert abs(o.weights @ o.x ** 4 - 2.0 / 5.0) < 1e-14


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
        state = perturbed(96, seed=7, amp=0.3)
        s = geometry.scalar_curvature(state)
        total = geometry.grid_integral(state, s)
        assert abs(total - 4.0) < 1e-8


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
