"""Torus backend: conventions, conserved integrals, curvature norms."""

import numpy as np
import pytest
from scipy.integrate import quad

from calabilab import geometry
from calabilab.errors import NonKahler
from calabilab.geometry import torus


def grid(n):
    x = 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


def single_mode(n, eps, k=1):
    xx, _ = grid(n)
    phi = eps * np.cos(k * xx)
    return geometry.torus_state(phi - phi.mean())


class TestConformalFactor:
    def test_flat_is_one(self):
        h = geometry.base_field(geometry.flat_state(16))
        assert np.array_equal(h, np.ones((16, 16)))

    def test_single_mode_matches_symbolic(self):
        # lap0 cos x = -cos x, so h = 1 - eps cos x.
        state = single_mode(64, 0.1)
        xx, _ = grid(64)
        h = geometry.base_field(state)
        assert np.max(np.abs(h - (1.0 - 0.1 * np.cos(xx)))) < 1e-12

    def test_large_mode_leaves_cone(self):
        xx, _ = grid(32)
        phi = 2.0 * np.cos(xx)
        with pytest.raises(NonKahler):
            geometry.base_field(geometry.torus_state(phi - phi.mean()))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            phi = np.zeros((16, 16))
            phi[0, 0] = np.nan
            geometry.torus_state(phi)


class TestScalarCurvature:
    def test_flat_is_zero(self):
        s = geometry.scalar_curvature(geometry.flat_state(32))
        assert np.array_equal(s.values, np.zeros((32, 32)))

    def test_gauss_bonnet_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            state = _random_state(64, rng, amp=0.4)
            s = geometry.scalar_curvature(state).values
            assert abs(geometry.grid_integral(state, s)) < 1e-8

    def test_agrees_with_finite_differences(self):
        # Brute-force 1-d oracle: eighth-order centered stencils on a grid
        # eight times finer, compared at the shared nodes.
        eps, k, n = 0.1, 2, 64
        state = single_mode(n, eps, k)
        s = geometry.scalar_curvature(state).values[:, 0]
        m = 8 * n
        x = 2.0 * np.pi * np.arange(m) / m
        h = 1.0 - eps * k * k * np.cos(k * x)
        logh = np.log(h)
        dx = 2.0 * np.pi / m
        w = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                      8 / 5, -1 / 5, 8 / 315, -1 / 560])
        lap = sum(
            w[j] * np.roll(logh, 4 - j) for j in range(9)
        ) / (dx * dx)
        s_fd = -lap / h
        assert np.max(np.abs(s - s_fd[::8])) < 1e-8


class TestIntegrals:
    def test_flat_volume(self):
        assert geometry.volume(geometry.flat_state(32)) == (2 * np.pi) ** 2

    def test_volume_independent_of_potential(self):
        rng = np.random.default_rng(1)
        state = _random_state(32, rng, amp=0.5)
        assert abs(geometry.volume(state) - (2 * np.pi) ** 2) < 1e-10

    def test_flat_energy_zero(self):
        assert geometry.calabi_energy(geometry.flat_state(16)) == 0.0

    def test_energy_matches_quadrature_oracle(self):
        # One x-only mode keeps the integrand one-dimensional, so adaptive
        # quadrature of the closed-form integrand is an independent oracle.
        eps, k = 0.05, 1
        state = single_mode(64, eps, k)
        ca = geometry.calabi_energy(state)

        def integrand(x):
            h = 1.0 - eps * np.cos(x)
            num = eps * np.cos(x) * (1 - eps * np.cos(x)) \
                - eps ** 2 * np.sin(x) ** 2
            u2 = num / (1 - eps * np.cos(x)) ** 2
            s = -u2 / h
            return s * s * h

        ref, err = quad(integrand, 0, 2 * np.pi, limit=200, epsabs=1e-14)
        ref *= 2 * np.pi
        assert err < 1e-12
        assert abs(ca - ref) < 1e-10 * ref


class TestLaplacian:
    def test_constant_gives_zero(self):
        state = _random_state(32, np.random.default_rng(2), amp=0.3)
        out = torus.laplacian(geometry.base_field(state),
                              torus.spectrum(np.ones((32, 32))))
        assert np.max(np.abs(out)) < 1e-12

    def test_flat_eigenfunction(self):
        xx, _ = grid(32)
        flat = geometry.flat_state(32)
        out = torus.laplacian(geometry.base_field(flat),
                              torus.spectrum(np.cos(xx)))
        assert np.max(np.abs(out + np.cos(xx))) < 1e-12

    def test_divergence_theorem(self):
        rng = np.random.default_rng(3)
        state = _random_state(32, rng, amp=0.3)
        f = rng.standard_normal((32, 32))
        out = torus.laplacian(geometry.base_field(state), torus.spectrum(f))
        assert abs(geometry.grid_integral(state, out)) < 1e-8


class TestCurvatureNorms:
    def test_flat_all_zero(self):
        assert geometry.curvature_norms(geometry.flat_state(16)) == (0, 0, 0)

    def test_curvature_is_half_scalar(self):
        state = _random_state(32, np.random.default_rng(4), amp=0.4)
        sup_s, _, sup_rm = geometry.curvature_norms(state)
        assert sup_rm == 0.5 * sup_s

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_rescale_covariance(self, a):
        # Feeding A*h into the density-level formulas realizes g -> A g.
        state = _random_state(32, np.random.default_rng(5), amp=0.4)
        phi = state.values
        h = torus.base_field(torus.spectrum(phi))

        def norms(dens):
            s = torus.scalar_curvature(phi, dens)
            sup_s = np.max(np.abs(s))
            return (sup_s, 0.5 * np.max(np.abs(
                torus.laplacian(dens, torus.spectrum(s)))),
                    0.5 * sup_s)

        o1, p1, q1 = norms(h)
        o2, p2, q2 = norms(a * h)
        assert np.isclose(o2, o1 / a, rtol=1e-13)
        assert np.isclose(p2, p1 / a ** 2, rtol=1e-13)
        assert np.isclose(q2, q1 / a, rtol=1e-13)


def test_states_are_immutable():
    state = geometry.flat_state(16)
    with pytest.raises(ValueError):
        state.values[0, 0] = 1.0


def test_gauge_violation_rejected():
    with pytest.raises(ValueError):
        geometry.torus_state(np.ones((16, 16)))


def test_resolution_must_be_power_of_two():
    with pytest.raises(ValueError):
        geometry.torus_state(np.zeros((24, 24)))


def _random_state(n, rng, amp):
    from calabilab import presets

    return presets.build_initial(
        "torus", n,
        {"preset": "random", "seed": int(rng.integers(0, 2 ** 31)),
         "amplitude": amp},
    )
