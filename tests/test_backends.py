"""The backend contract: what every module in the backend table provides.

These tests run over every entry of ``geometry._MODULES``, so a new
reduction must pass them as soon as it is entered there.
"""

import json

import numpy as np
import pytest

from calabilab import diagnostics, flow, geometry, presets, traceio
from calabilab.errors import BadParams, SchemaMismatch

INTERFACE = (
    "FLOW_SIGN", "FIELD_DIM", "ZERO_PRESET", "check_resolution",
    "grid_shape", "check_gauge", "scalar_curvature", "average_scalar",
    "volume", "calabi_energy", "laplacian", "norms", "scalar_probes",
    "integral", "scalar_evolution", "extremality_residual", "poisson_solve",
    "sobolev_gap", "futaki_pairing", "transport", "random_potential",
    "rough_potential",
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


def test_zero_state_is_an_exact_fixed_point(backend):
    state = geometry.zero_state(backend, 16)
    assert state.backend == backend
    assert state.values().shape == geometry.backend_module(
        backend).grid_shape(16)
    s = geometry.scalar_curvature(state).values
    assert s.flat[0] in (0.0, 2.0)
    assert np.all(s == s.flat[0])
    assert geometry.calabi_energy(state) == 0.0
    res = flow.step(state, 1e-3)
    assert res.accepted
    assert res.new_state.values().tobytes() == state.values().tobytes()
    for field in diagnostics.basis_fields(backend):
        assert diagnostics.futaki(state, field) == 0.0


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


def test_entry_points_accept_exactly_the_table(tmp_path):
    for backend in geometry.BACKENDS:
        assert config(backend).initial_state().backend == backend
        state = presets.build_initial(
            backend, 16, {"preset": "random", "seed": 1, "amplitude": 0.1})
        assert state.backend == backend
        path = tmp_path / f"{backend}.ckpt"
        traceio.write_checkpoint(state, ENGINE, "00", path)
        back = traceio.read_checkpoint(path, expect_backend=backend)
        assert back.state.values().tobytes() == state.values().tobytes()

    with pytest.raises(ValueError):
        config("plane")
    with pytest.raises(BadParams):
        presets.build_initial("plane", 16, {"preset": "random", "seed": 1})
    lines = (tmp_path / f"{geometry.TORUS}.ckpt").read_text().splitlines()
    head = json.loads(lines[0])
    head["backend"] = "plane"
    lines[0] = json.dumps(head, sort_keys=True)
    path = tmp_path / "plane.ckpt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch):
        traceio.read_checkpoint(path)
