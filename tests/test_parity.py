"""Parity of the Jacobi-spectrum routes with the dense route they replaced.

The reference is the earlier construction on the real ``2N x 2N`` chain
Hamiltonian ``R``: :class:`qchain.core.ConservativeFlow` for the error flow,
its antiderivative through ``R^{-1} Theta^{-1}`` by dense solves, the time
average ``(1/2) (exp(2 Theta R T) - I) R^{-1} Theta^{-1}``, and the
certificate from dense ``eigvalsh``.  That route needs ``R`` positive
definite, so a detuning override that makes a draw indefinite is shrunk
towards the design detunings until it is not.
"""

import numpy as np
import pytest

from qchain import analysis, observer, sim
from qchain.core import ConservativeFlow, build_symplectic

#: (elements, horizon, sample step) of each random draw.
CASES = [(1, 100.0, 0.01), (2, 1e3, 0.05), (5, 1e3, 0.05), (13, 300.0, 0.02),
         (50, 1e3, 0.1)]


def _draw(rng, n):
    """Random gains, plant direction and a PD detuning within 10 % of design."""
    mu = rng.uniform(0.5, 2.0, size=n)
    alpha = rng.standard_normal(2)
    design = observer.detunings_from_gains(mu)
    spread = rng.uniform(-1.0, 1.0, size=n)
    scale = 0.1
    while True:
        omega = design * (1.0 + scale * spread)
        if np.linalg.eigvalsh(analysis.observer_hamiltonian(mu, omega).matrix)[0] > 0:
            return mu, alpha, omega
        scale /= 2.0


def _reference_states(aug, cfg):
    real = aug.realization
    form = build_symplectic(real.n_elements)
    R = aug.hamiltonian[2:, 2:]
    times = cfg.times()
    z_p0 = float(aug.plant.alpha @ cfg.initial_plant)
    steady = np.linalg.solve(real.drift, -real.input_vector * z_p0)
    err0 = cfg.initial_observer - steady
    flow = ConservativeFlow(R, form)
    k_err = np.linalg.solve(R, form.inverse() @ err0)
    integral = 0.5 * (flow.propagate(k_err, times) - k_err)
    gain = aug.drift[0:2, 2:]
    x_p = cfg.initial_plant + np.outer(times, gain @ steady) + integral @ gain.T
    return np.hstack([x_p, steady + flow.propagate(err0, times)])


def _reference_time_average(ham, form, horizon):
    flow = ConservativeFlow(ham.matrix, form)
    k = np.linalg.solve(ham.matrix, form.inverse())
    return 0.5 * (flow.matrix(horizon) - np.eye(form.dim)) @ k


def _reference_certificate(ham, form):
    evals = np.linalg.eigvalsh(ham.matrix)
    lo, hi = evals[0], evals[-1]
    bound = np.sqrt(hi / lo)
    k = np.linalg.solve(ham.matrix, form.inverse())
    return lo, hi, bound, 0.5 * (bound + 1.0) * np.linalg.norm(k, 2)


@pytest.mark.parametrize("n,horizon,dt", CASES)
def test_simulate_matches_dense_flow(n, horizon, dt):
    rng = np.random.default_rng(1000 + n)
    mu, alpha, omega = _draw(rng, n)
    plant = observer.PlantSpec(alpha=alpha)
    real = observer.build_observer(plant, mu, omega_override=omega)
    aug = observer.assemble_augmented(real, plant)
    cfg = sim.SimulationConfig(
        initial_plant=rng.standard_normal(2),
        initial_observer=rng.standard_normal(real.state_dim),
        horizon_T=horizon,
        sample_dt=dt,
    )
    series = sim.simulate(aug, cfg, keep_states=True)
    ref = _reference_states(aug, cfg)
    z_p = ref @ aug.plant_readout
    z_o = ref @ aug.observer_readout.T
    assert np.all(np.abs(series.z_p - z_p) <= 1e-9 * (1.0 + np.abs(z_p)))
    assert np.all(np.abs(series.z_o - z_o) <= 1e-9 * (1.0 + np.abs(z_o)))
    assert np.all(np.abs(series.states - ref) <= 1e-9 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("n,horizon,dt", CASES)
def test_time_average_and_certificate_match_dense_route(n, horizon, dt):
    rng = np.random.default_rng(2000 + n)
    mu, _, omega = _draw(rng, n)
    ham = analysis.observer_hamiltonian(mu, omega)
    form = build_symplectic(n)
    for h in (0.5, 10.0 * dt, horizon):
        exact = analysis.time_average_integral(ham, form, h)
        ref = _reference_time_average(ham, form, h)
        assert np.max(np.abs(exact - ref)) <= 1e-10 * np.max(np.abs(ref))
    cert = analysis.convergence_certificate(ham, form)
    got = (cert.lambda_min, cert.lambda_max, cert.exp_bound, cert.avg_constant)
    for value, want in zip(got, _reference_certificate(ham, form)):
        assert value == pytest.approx(want, rel=1e-12)
