import numpy as np
import pytest
import scipy.linalg

from flow_reference import ConservativeFlow, RealizabilityError
from qchain import core


def test_symplectic_form_blocks():
    form = core.build_symplectic(3)
    assert form.n_modes == 3
    assert form.dim == 6
    expected = np.zeros((6, 6))
    for k in range(3):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[0.0, 1.0], [-1.0, 0.0]]
    assert np.array_equal(form.matrix, expected)


def test_symplectic_identities_are_exact():
    form = core.build_symplectic(4)
    th = form.matrix
    assert np.array_equal(th.T, -th)
    assert np.array_equal(th @ th, -np.eye(8))


def test_build_symplectic_rejects_bad_counts():
    with pytest.raises(ValueError):
        core.build_symplectic(0)
    with pytest.raises(ValueError):
        core.build_symplectic(-2)


def test_commutation_preserved_for_realizable_drift():
    rng = np.random.default_rng(5)
    form = core.build_symplectic(3)
    R = rng.standard_normal((6, 6))
    R = 0.5 * (R + R.T)
    A = 2.0 * (form.matrix @ R)
    for t in (0.0, 0.3, 1.7, 12.0):
        residual = core.check_commutation_preservation(scipy.linalg.expm(A * t), form)
        assert residual <= 1e-10


def test_commutation_breaks_for_damped_drift():
    # uniform damping contracts phase space: E Theta E^T = exp(-0.6 t) Theta
    form = core.build_symplectic(1)
    damped = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    residual = core.check_commutation_preservation(scipy.linalg.expm(damped), form)
    assert residual == pytest.approx(1.0 - np.exp(-0.6), abs=1e-10)


def test_commutation_scale_never_overflows_into_a_pass():
    # ||E||^2 = 1e310 overflows; E Theta E^T = det(E) Theta misses Theta by
    # 1e305, so the scaled residual is 1e-5, not 1e305 / inf = 0
    form = core.build_symplectic(1)
    E = np.diag([1e155, 1e150])
    residual = core.check_commutation_preservation(E, form)
    assert residual == pytest.approx(1e-5, rel=1e-12)


def test_conservative_flow_matches_expm():
    rng = np.random.default_rng(17)
    for modes in (1, 2, 4):
        form = core.build_symplectic(modes)
        W = rng.standard_normal((form.dim, form.dim))
        R = W @ W.T + 0.5 * np.eye(form.dim)
        flow = ConservativeFlow(R, form)
        A = 2.0 * form.matrix @ R
        assert np.allclose(flow.matrix(0.0), np.eye(form.dim), atol=1e-12)
        for t in (0.37, 2.9):
            assert np.allclose(flow.matrix(t), scipy.linalg.expm(A * t), atol=1e-10)


def test_conservative_flow_propagate_matches_matrix():
    form = core.build_symplectic(2)
    rng = np.random.default_rng(23)
    W = rng.standard_normal((4, 4))
    R = W @ W.T + np.eye(4)
    flow = ConservativeFlow(R, form)
    x0 = rng.standard_normal(4)
    ts = np.linspace(0.0, 12.0, 97)
    states = flow.propagate(x0, ts, chunk=16)  # force several chunks
    direct = np.stack([flow.matrix(t) @ x0 for t in ts])
    assert np.allclose(states, direct, atol=1e-11)


def test_conservative_flow_energy_constant_over_long_horizons():
    """The spectral route must not pick up growth or decay even at t = 1e6."""
    form = core.build_symplectic(3)
    rng = np.random.default_rng(29)
    W = rng.standard_normal((6, 6))
    R = W @ W.T + 0.1 * np.eye(6)
    flow = ConservativeFlow(R, form)
    x0 = rng.standard_normal(6)
    states = flow.propagate(x0, np.array([0.0, 1.0, 1e2, 1e4, 1e6]))
    energies = 0.5 * np.einsum("ti,ij,tj->t", states, R, states)
    assert np.max(np.abs(energies - energies[0])) <= 1e-9 * abs(energies[0])


def test_conservative_flow_rejects_bad_hamiltonians():
    form = core.build_symplectic(1)
    with pytest.raises(ValueError):
        ConservativeFlow(np.diag([1.0, -1.0]), form)
    with pytest.raises(RealizabilityError):
        ConservativeFlow(np.array([[1.0, 0.4], [0.2, 1.0]]), form)
    with pytest.raises(ValueError):
        ConservativeFlow(np.eye(4), form)
