from dataclasses import replace

import numpy as np
import pytest

from qchain import observer
from qchain.analysis import detunings_from_gains, real_embedding
from qchain.core import J2, build_symplectic
from qchain.errors import ConstructionInconsistencyError


def test_plant_spec_validation():
    with pytest.raises(ValueError):
        observer.PlantSpec(alpha=np.zeros(2))
    with pytest.raises(ValueError):
        observer.PlantSpec(alpha=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        observer.PlantSpec(alpha=np.ones(3))
    assert observer.PlantSpec(alpha=np.array([3.0, 4.0])).norm_sq == 25.0


def test_chain_params_layout():
    params = observer.ChainParams(n_elements=3, mu_1=1.0, kappas=(1.0, 4.0, 9.0, 16.0))
    assert params.link_pair(2) == (1.0, 4.0)
    assert params.link_pair(3) == (9.0, 16.0)
    with pytest.raises(ValueError):
        params.link_pair(1)
    with pytest.raises(ValueError):
        params.link_pair(4)
    with pytest.raises(ValueError):
        observer.ChainParams(n_elements=2, mu_1=1.0, kappas=(1.0,))
    with pytest.raises(ValueError):
        observer.ChainParams(n_elements=1, mu_1=0.0)
    with pytest.raises(ValueError):
        observer.ChainParams(n_elements=2, mu_1=1.0, kappas=(1.0, -4.0))


def test_gains_from_kappas_literal():
    params = observer.ChainParams(n_elements=3, mu_1=1.0, kappas=(1.0, 4.0, 9.0, 16.0))
    assert np.allclose(observer.gains_from_kappas(params), [1.0, 0.5, 3.0])


def test_kappas_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        mu = rng.uniform(0.05, 5.0, size=n)
        spread = float(rng.uniform(0.25, 4.0))
        kappas = [k for g in mu[1:] for k in (4.0 * g * spread, 4.0 * g / spread)]
        params = observer.ChainParams(n_elements=n, mu_1=float(mu[0]), kappas=kappas)
        assert np.allclose(observer.gains_from_kappas(params), mu, rtol=1e-13)


def test_balanced_kappas_literal():
    params = observer.kappas_from_gains([2.0, 1.0, 0.5])
    assert params.mu_1 == 2.0
    assert params.kappas == (4.0, 4.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        observer.kappas_from_gains([2.0, 0.0])


def test_detuning_rule():
    assert np.array_equal(detunings_from_gains([2.0, 1.0, 0.5]), [3.0, 1.5, 0.5])
    assert np.array_equal(detunings_from_gains([4.0]), [4.0])


def test_chain_drift_literal():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    A = observer.build_observer(plant, [1.0, 1.0], omega_override=[2.0, 1.0]).drift
    expected = np.array(
        [
            [0.0, 4.0, -2.0, 0.0],
            [-4.0, 0.0, 0.0, -2.0],
            [2.0, 0.0, 0.0, 2.0],
            [0.0, 2.0, -2.0, 0.0],
        ]
    )
    assert np.array_equal(A, expected)


def test_build_observer_hand_case():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(plant, [1.0, 1.0])
    assert real.n_elements == 2
    assert real.state_dim == 4
    assert np.array_equal(real.omega, [2.0, 1.0])
    assert np.array_equal(real.input_vector, [0.0, 2.0, 0.0, 0.0])
    assert np.array_equal(
        real.readout, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
    )
    assert np.array_equal(real.coupling, [[-1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(
        real.steady_pattern, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-1.0, 0.0]]
    )


def test_build_observer_rejects_bad_gains():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        observer.build_observer(plant, [])
    with pytest.raises(ValueError):
        observer.build_observer(plant, [1.0, 0.0])
    with pytest.raises(ValueError):
        observer.build_observer(plant, [1.0, np.inf])
    with pytest.raises(ValueError):
        observer.build_observer(plant, [1.0, 1.0], omega_override=[1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_observer_rejects_non_finite_detunings(bad):
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        observer.build_observer(plant, [1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        observer.build_observer(plant, [1.0, 1.0], omega_override=[bad, 1.0])


def _block_loop_drift(mu, omega):
    """The chain drift assembled 2x2 block by 2x2 block, as the paper writes it."""
    n = len(mu)
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        s = slice(2 * i, 2 * i + 2)
        A[s, s] = 2.0 * omega[i] * J2
        if i + 1 < n:
            nxt = slice(2 * i + 2, 2 * i + 4)
            A[s, nxt] = -2.0 * mu[i + 1] * np.eye(2)
            A[nxt, s] = 2.0 * mu[i + 1] * np.eye(2)
    return A


@pytest.mark.parametrize("kind", ["design", "detuned", "indefinite"])
def test_every_chain_matrix_is_an_embedding_of_H(kind):
    """The drift, ``R`` and the augmented chain block all come from one ``H``.

    Each equals the block-by-block construction and ``-(1/2) Theta A`` in
    value exactly (the signs of zero entries may differ).
    """
    rng = np.random.default_rng({"design": 41, "detuned": 42, "indefinite": 43}[kind])
    for _ in range(40):
        n = int(rng.integers(1, 61))
        mu = rng.uniform(0.1, 3.0, size=n)
        design = detunings_from_gains(mu)
        omega = {
            "design": design,
            "detuned": design * rng.uniform(0.9, 1.1, size=n),
            "indefinite": design - rng.uniform(1.0, 3.0) * np.max(mu),
        }[kind]
        plant = observer.PlantSpec(alpha=rng.standard_normal(2))
        real = observer.build_observer(plant, mu, omega_override=omega)
        aug = observer.assemble_augmented(real, plant)
        ham = real.hamiltonian
        if kind != "detuned":  # a detuned chain may be either
            assert (ham.lam[0] < 0) == (kind == "indefinite")
        drift = real.drift
        assert drift.tobytes() == real_embedding(-2j * ham.H).tobytes()
        assert ham.matrix.tobytes() == real_embedding(ham.H).tobytes()
        assert aug.hamiltonian[2:, 2:].tobytes() == ham.matrix.tobytes()
        assert np.array_equal(drift, _block_loop_drift(mu, omega))
        theta = build_symplectic(n).matrix
        assert np.array_equal(ham.matrix, -0.5 * (theta @ drift))
        assert np.array_equal(2.0 * (theta @ ham.matrix), drift)


def test_steady_vector_solves_chain():
    plant = observer.PlantSpec(alpha=np.array([0.6, -0.8]))
    real = observer.build_observer(plant, [1.3, 0.7, 0.9, 0.4])
    x_bar, resid = observer.steady_vector(real, plant, z_p=2.5)
    assert resid <= 1e-12
    # agrees with the direct linear solve of the driven equilibrium
    direct = np.linalg.solve(real.drift, -real.input_vector * 2.5)
    assert np.allclose(x_bar, direct, atol=1e-9)


def test_steady_vector_scales_linearly():
    plant = observer.PlantSpec(alpha=np.array([1.0, 2.0]))
    real = observer.build_observer(plant, [0.5, 1.5])
    one, _ = observer.steady_vector(real, plant, 1.0)
    three, _ = observer.steady_vector(real, plant, 3.0)
    assert np.allclose(three, 3.0 * one, atol=1e-13)


def test_omega_override_breaks_steady_configuration():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(plant, [1.0, 1.0], omega_override=[2.0, 1.3])
    with pytest.raises(ConstructionInconsistencyError) as info:
        observer.steady_vector(real, plant, 1.0)
    assert info.value.residual > 1e-3
    _, resid = observer.steady_vector(real, plant, 1.0, tol=None)
    assert resid == pytest.approx(info.value.residual)


def test_consensus_readout_unit_gains():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        alpha = rng.standard_normal(2)
        if np.linalg.norm(alpha) < 0.3:
            alpha = np.array([1.0, 0.4])
        plant = observer.PlantSpec(alpha=alpha)
        real = observer.build_observer(plant, rng.uniform(0.1, 3.0, size=n))
        gains = observer.consensus_readout(real, plant)
        assert np.allclose(gains, 1.0, atol=1e-12)


def test_consensus_readout_detects_misorientation():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(plant, [1.0, 1.0])
    doctored = replace(real, readout=1.01 * real.readout)
    gains = observer.consensus_readout(doctored, plant)
    assert np.max(np.abs(gains - 1.0)) > 1e-3


def test_augmented_literal_single_element():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(plant, [1.0])
    aug = observer.assemble_augmented(real, plant)
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [2.0, 0.0, -2.0, 0.0],
        ]
    )
    assert np.array_equal(aug.drift, expected)
    assert aug.dim == 4
    assert np.array_equal(aug.plant_readout, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(aug.observer_readout, [[0.0, 0.0, 1.0, 0.0]])


def test_augmented_hamiltonian_generates_drift():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        alpha = rng.standard_normal(2)
        if np.linalg.norm(alpha) < 0.3:
            alpha = np.array([0.8, -0.6])
        plant = observer.PlantSpec(alpha=alpha)
        real = observer.build_observer(plant, rng.uniform(0.2, 2.5, size=n))
        aug = observer.assemble_augmented(real, plant)
        sym_gap = np.max(np.abs(aug.hamiltonian - aug.hamiltonian.T))
        assert sym_gap <= 1e-15 * max(1.0, np.max(np.abs(aug.hamiltonian)))
        assert (
            np.max(np.abs(aug.drift - 2.0 * aug.form.matrix @ aug.hamiltonian))
            <= 1e-13
        )
        # the observed plant quadrature is a conserved direction
        scale = np.max(np.abs(aug.drift))
        assert np.max(np.abs(alpha @ aug.drift[0:2, :])) <= 1e-13 * max(1.0, scale)


def test_augmented_plant_block_is_static():
    plant = observer.PlantSpec(alpha=np.array([0.3, 1.1]))
    real = observer.build_observer(plant, [0.9, 0.4, 0.7])
    aug = observer.assemble_augmented(real, plant)
    assert np.array_equal(aug.drift[0:2, 0:2], np.zeros((2, 2)))
    assert np.array_equal(aug.drift[0:2, 4:], np.zeros((2, 4)))
    assert np.array_equal(aug.drift[4:, 0:2], np.zeros((4, 2)))
    assert np.array_equal(aug.drift[2:, 2:], real.drift)
