import numpy as np
import pytest
import scipy.linalg

from qchain import core
from qchain.errors import RealizabilityError


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
    assert np.array_equal(form.inverse(), -th)


def test_build_symplectic_rejects_bad_counts():
    with pytest.raises(ValueError):
        core.build_symplectic(0)
    with pytest.raises(ValueError):
        core.build_symplectic(-2)


def test_symplectic_form_rejects_foreign_matrix():
    with pytest.raises(ValueError):
        core.SymplecticForm(n_modes=2, matrix=np.eye(4))


def test_hamiltonian_round_trip_is_exact():
    """A -> R -> A involves only 0/+-1 shuffles, so it must be bit-exact."""
    rng = np.random.default_rng(11)
    for modes in (1, 2, 3, 5):
        form = core.build_symplectic(modes)
        R = rng.standard_normal((form.dim, form.dim))
        R = R + R.T
        A = 2.0 * (form.matrix @ R)
        assert np.array_equal(core.hamiltonian_from_drift(A, form), R)


def test_hamiltonian_from_drift_rejects_unrealizable():
    form = core.build_symplectic(1)
    with pytest.raises(RealizabilityError) as info:
        core.hamiltonian_from_drift(np.eye(2), form)
    assert info.value.asymmetry == pytest.approx(1.0)


def test_commutation_preserved_for_realizable_drift():
    rng = np.random.default_rng(5)
    form = core.build_symplectic(3)
    R = rng.standard_normal((6, 6))
    R = 0.5 * (R + R.T)
    A = 2.0 * (form.matrix @ R)
    report = core.check_commutation_preservation(A, form, [0.0, 0.3, 1.7, 12.0])
    assert report.passed
    assert report.max_residual <= 1e-10
    assert report.times.shape == report.residuals.shape == report.exp_norms.shape


def test_commutation_breaks_for_damped_drift():
    # uniform damping contracts phase space: E Theta E^T = exp(-0.6 t) Theta
    form = core.build_symplectic(1)
    damped = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    with pytest.raises(RealizabilityError):
        core.hamiltonian_from_drift(damped, form)
    report = core.check_commutation_preservation(damped, form, [1.0])
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0 - np.exp(-0.6), abs=1e-10)


def test_commutation_probe_times_validated():
    form = core.build_symplectic(1)
    A = 2.0 * form.matrix
    with pytest.raises(ValueError):
        core.check_commutation_preservation(A, form, [])
    with pytest.raises(ValueError):
        core.check_commutation_preservation(A, form, [-1.0])
    with pytest.raises(ValueError):
        core.check_commutation_preservation(np.eye(4), form, [1.0])


def test_conservative_flow_matches_expm():
    rng = np.random.default_rng(17)
    for modes in (1, 2, 4):
        form = core.build_symplectic(modes)
        W = rng.standard_normal((form.dim, form.dim))
        R = W @ W.T + 0.5 * np.eye(form.dim)
        flow = core.ConservativeFlow(R, form)
        A = 2.0 * form.matrix @ R
        assert np.allclose(flow.matrix(0.0), np.eye(form.dim), atol=1e-12)
        for t in (0.37, 2.9):
            assert np.allclose(flow.matrix(t), scipy.linalg.expm(A * t), atol=1e-10)


def test_conservative_flow_propagate_matches_matrix():
    form = core.build_symplectic(2)
    rng = np.random.default_rng(23)
    W = rng.standard_normal((4, 4))
    R = W @ W.T + np.eye(4)
    flow = core.ConservativeFlow(R, form)
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
    flow = core.ConservativeFlow(R, form)
    x0 = rng.standard_normal(6)
    states = flow.propagate(x0, np.array([0.0, 1.0, 1e2, 1e4, 1e6]))
    energies = 0.5 * np.einsum("ti,ij,tj->t", states, R, states)
    assert np.max(np.abs(energies - energies[0])) <= 1e-9 * abs(energies[0])


def test_conservative_flow_rejects_bad_hamiltonians():
    form = core.build_symplectic(1)
    with pytest.raises(ValueError):
        core.ConservativeFlow(np.diag([1.0, -1.0]), form)
    with pytest.raises(RealizabilityError):
        core.ConservativeFlow(np.array([[1.0, 0.4], [0.2, 1.0]]), form)
    with pytest.raises(ValueError):
        core.ConservativeFlow(np.eye(4), form)
