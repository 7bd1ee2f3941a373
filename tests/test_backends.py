"""The backend contract: what every module in the backend table provides.

These tests run over every entry of ``geometry._MODULES``, so a new
reduction must pass them as soon as it is entered there.
"""

import ast
import pathlib

import numpy as np
import pytest

from calabilab import diagnostics, flow, geometry, presets, traceio
from calabilab.errors import BadParams, SchemaMismatch

INTERFACE = (
    "FLOW_SIGN", "FIELD_DIM", "ZERO_PRESET", "BASE_NAME",
    "EVOLUTION_READS_LAPLACIANS", "check_resolution",
    "grid_shape", "check_gauge", "spectrum", "base_field", "scalar_curvature",
    "average_scalar", "volume", "laplacian", "grad_norm", "integral",
    "scalar_evolution", "extremality_residual", "sobolev_gap",
    "futaki_pairing", "random_potential", "rough_potential",
    "decay_rates", "velocity_modes", "advance",
)

ENGINE = {"dt": 0.125, "streak": 0, "next_sample_t": 0.5,
          "next_checkpoint_t": 1.0, "checkpoint_index": 0}


def config(backend, resolution=16):
    return flow.FlowConfig(backend=backend, resolution=resolution,
                           dt_init=1e-3, dt_min=1e-6, dt_max=0.1, t_end=1.0,
                           sample_interval=0.1)


@pytest.fixture(params=geometry.BACKENDS)
def backend(request):
    return request.param


def test_module_provides_the_interface(backend):
    ops = geometry.backend_module(backend)
    assert [name for name in INTERFACE if not hasattr(ops, name)] == []
    assert ops.FLOW_SIGN in (1.0, -1.0)
    assert ops.ZERO_PRESET in presets.PRESETS


@pytest.mark.parametrize("name", ["plane", None, ["torus"]])
def test_unknown_backend_is_a_value_error(name):
    with pytest.raises(ValueError, match="unknown backend"):
        geometry.MetricState(name, np.zeros((8, 8)))


def test_zero_state_is_an_exact_fixed_point(backend):
    state = geometry.zero_state(backend, 16)
    assert state.backend == backend
    assert state.values.shape == geometry.backend_module(
        backend).grid_shape(16)
    s = geometry.scalar_curvature(state).values
    assert s.flat[0] in (0.0, 2.0)
    assert np.all(s == s.flat[0])
    assert geometry.calabi_energy(state) == 0.0
    res = flow.step(state, 1e-3)
    assert res.accepted
    assert res.new_state.values.tobytes() == state.values.tobytes()
    fields = diagnostics.basis_fields(backend)
    assert diagnostics.futaki(state, fields) == (0.0,) * len(fields)


@pytest.mark.parametrize("n", [4, 7, 8, 12, 16, 48, 2049, 2050, 4096, 8192])
def test_config_and_potential_share_the_resolution_check(backend, n):
    ops = geometry.backend_module(backend)
    try:
        ops.check_resolution(n)
        refused = False
    except ValueError:
        refused = True
    if refused:
        with pytest.raises(ValueError):
            config(backend, n)
    else:
        assert config(backend, n).resolution == n
    if n <= 64:
        if refused:
            with pytest.raises(ValueError):
                geometry.zero_state(backend, n)
        else:
            assert geometry.zero_state(backend, n).resolution == n


def test_entry_points_accept_exactly_the_table(tmp_path, edit_header):
    for backend in geometry.BACKENDS:
        assert config(backend).initial_state().backend == backend
        state = presets.build_initial(
            backend, 16, {"preset": "random", "seed": 1, "amplitude": 0.1})
        assert state.backend == backend
        path = tmp_path / f"{backend}.ckpt"
        traceio.write_checkpoint(state, ENGINE, "00", path)
        back = traceio.read_checkpoint(path, expect_backend=backend)
        assert back.state.values.tobytes() == state.values.tobytes()

    with pytest.raises(ValueError):
        config("plane")
    with pytest.raises(BadParams):
        presets.build_initial("plane", 16, {"preset": "random", "seed": 1})
    path = tmp_path / f"{geometry.TORUS}.ckpt"
    edit_header(path, lambda h: h.update(backend="plane"))
    with pytest.raises(SchemaMismatch):
        traceio.read_checkpoint(path)


@pytest.mark.parametrize("n", [4, 7, 12, 48, 2050, 4096, 8192])
def test_build_initial_refuses_what_the_backend_refuses(backend, n):
    ops = geometry.backend_module(backend)
    try:
        ops.check_resolution(n)
        refused = False
    except ValueError:
        refused = True
    for preset in (ops.ZERO_PRESET,) + presets.SEEDED_PRESETS:
        if refused:
            with pytest.raises(BadParams, match=f"resolution {n}"):
                presets.build_initial(backend, n, {"preset": preset})
        elif n <= 64:
            state = presets.build_initial(backend, n, {"preset": preset})
            assert state.resolution == n


def perturbed(backend):
    return presets.build_initial(
        backend, 16, {"preset": "random", "seed": 3, "amplitude": 0.3})


def test_derived_fields_are_cached_read_only_and_fresh(backend):
    state = perturbed(backend)
    twin = geometry.MetricState(state.backend, state.values, state.t)
    shown = repr(state)
    ca = geometry.calabi_energy(state)
    base = geometry.base_field(state)
    s = geometry.scalar_curvature(state).values
    assert repr(state) == shown
    assert state == twin
    for arr in (base, s):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert geometry.base_field(state) is base
    assert geometry.scalar_curvature(state).values is s
    fresh = geometry.MetricState(backend, state.values.copy(), state.t)
    assert geometry.base_field(fresh).tobytes() == base.tobytes()
    assert geometry.scalar_curvature(fresh).values.tobytes() == s.tobytes()
    assert geometry.calabi_energy(fresh) == ca
    assert ca > 0.0


def test_forgotten_quantities_are_derived_again_to_the_same_bits(backend):
    state = perturbed(backend)
    geometry.curvature_norms(state)
    geometry.scalar_probes(state)
    kept = [geometry.spectrum(state), geometry.base_field(state),
            geometry.scalar_spectrum(state), geometry.curvature_norms(state),
            geometry.scalar_probes(state)]
    geometry.forget(state, "base", "scalar_spectrum", "lap_scalar")
    again = [geometry.spectrum(state), geometry.base_field(state),
             geometry.scalar_spectrum(state), geometry.curvature_norms(state),
             geometry.scalar_probes(state)]
    assert again[0] is kept[0]
    assert again[1] is not kept[1]
    for old, new in zip(kept[1:3], again[1:3]):
        # A toric spectrum is a form that holds the field's values.
        assert (getattr(new, "values", new).tobytes()
                == getattr(old, "values", old).tobytes())
    assert again[3:] == kept[3:]
    with pytest.raises(ValueError, match="lap_s"):
        geometry.forget(state, "lap_s")


def test_evolution_derives_the_laplacians_only_where_it_reads_them(backend):
    # E of a state that is not sampled itself (a step's ``prev``) must not
    # derive lap_g S and lap_g(lap_g S) on a backend whose form of E does
    # not read them; its bits are those of E of a fully sampled state.
    state = perturbed(backend)
    e = geometry.scalar_evolution(state)
    reads = geometry.backend_module(backend).EVOLUTION_READS_LAPLACIANS
    derived = {"lap_scalar", "bilap_scalar"} & state._derived.keys()
    assert derived == ({"lap_scalar", "bilap_scalar"} if reads else set())
    twin = geometry.MetricState(backend, state.values, state.t)
    geometry.curvature_norms(twin)
    geometry.scalar_probes(twin)
    assert geometry.scalar_evolution(twin).tobytes() == e.tobytes()


def test_state_keeps_its_own_copy_of_the_grid(backend):
    # A state built from the caller's array, or from a view of it, holds
    # its own read-only copy: the caller's array stays writable, and later
    # writes to it or to its base reach neither the values nor the cache.
    base = perturbed(backend).values.copy()
    view = base[:]
    state = geometry.MetricState(backend, view)
    kept = state.values.copy()
    ca = geometry.calabi_energy(state)
    assert base.flags.writeable and view.flags.writeable
    view.flat[3] = 0.5
    base.flat[5] = -0.5
    assert np.array_equal(state.values, kept)
    assert geometry.calabi_energy(state) == ca
    fresh = geometry.MetricState(backend, kept)
    assert state == fresh
    assert geometry.calabi_energy(fresh) == ca


def test_scalar_field_leaves_the_callers_array_writable(backend):
    # A field built from the caller's writable array holds its own
    # read-only copy; only an array already read-only and owning its
    # memory, such as the cached S, is kept as it is.
    a = np.zeros(perturbed(backend).values.shape)
    field = geometry.ScalarField(a, backend)
    a.flat[0] = 1.0
    assert field.values.flat[0] == 0.0
    assert not field.values.flags.writeable
    view = a[:]
    view.setflags(write=False)
    assert geometry.ScalarField(view, backend).values is not view
    s = geometry.scalar_curvature(perturbed(backend)).values
    assert geometry.ScalarField(s, backend).values is s


def test_step_energies_are_the_states_energies(backend):
    state = perturbed(backend)
    res = flow.step(state, 1e-4)
    assert res.energy_before == geometry.calabi_energy(state)
    fresh = geometry.MetricState(backend, state.values, state.t)
    assert res.energy_before == geometry.calabi_energy(fresh)
    after = geometry.MetricState(backend, res.new_state.values,
                              res.new_state.t)
    assert res.energy_after == geometry.calabi_energy(res.new_state)
    assert res.energy_after == geometry.calabi_energy(after)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_step_refuses_a_dt_that_is_not_finite_and_positive(backend, dt):
    with pytest.raises(ValueError, match="dt"):
        flow.step(perturbed(backend), dt)


def test_torus_velocity_modes_are_the_dealiased_velocity():
    # S_hat, the transform of rhs, on the 2/3-rule modes; -k^4 phi_hat,
    # which cancels the implicit part, on the rest.
    state = perturbed(geometry.TORUS)
    ops = geometry.backend_module(geometry.TORUS)
    phi_hat = geometry.spectrum(state)
    got = ops.velocity_modes(phi_hat, geometry.scalar_spectrum(state),
                             geometry.base_field(state))
    mask = ops._ops(state.resolution)[3]
    want = np.fft.rfft2(flow.rhs(state).values)
    assert got[mask].tobytes() == want[mask].tobytes()
    rest = -ops.decay_rates(state.resolution) * phi_hat
    assert got[~mask].tobytes() == rest[~mask].tobytes()


def test_no_module_outside_geometry_imports_a_backend_module():
    # Backend code is reached through ``geometry.backend_module`` only, so
    # a new backend needs its module and one table entry.
    package = pathlib.Path(flow.__file__).parent
    names = {"torus", "toric"}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(set(m.split(".")) & names for m in mods):
                found.append((path.name, node.lineno))
    assert found == []


FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def test_torus_step_fft_budget(monkeypatch):
    # A step forms its update from the state's cached spectra of phi and
    # S and derives the new state's once: 1 transform for the state's
    # S_hat (a sample has usually derived it already), 1 for the update,
    # 1 for the new phi_hat, 1 for the new density and 2 for the new S.
    state = presets.build_initial(
        geometry.TORUS, 32, {"preset": "random", "seed": 3,
                             "amplitude": 0.3})
    geometry.calabi_energy(state)
    calls = []
    for name in FFT_FUNCTIONS:
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    res = flow.step(state, 1e-4)
    assert res.accepted
    assert len(calls) <= 6
