"""Parity of the Jacobi-spectrum routes with the dense routes they replaced.

The reference is the earlier construction on the real ``2N x 2N`` chain
Hamiltonian ``R``: ``ConservativeFlow`` (``tests/flow_reference.py``) for
the error flow, its antiderivative through ``R^{-1} Theta^{-1}`` by dense
solves, the time average ``(1/2) (exp(2 Theta R T) - I) R^{-1}
Theta^{-1}``, and the certificate from dense ``eigvalsh``.  That route needs ``R`` positive
definite, so a detuning override that makes a draw indefinite is shrunk
towards the design detunings until it is not.

``verify``'s checks are compared with the dense routes they replaced too:
the closed-form augmented flow with ``scipy.linalg.expm`` of the drift, and
the one-SVD norm bound with the SVD norm of the chain flow at each probe
time.
"""

import numpy as np
import pytest
import scipy.linalg

from flow_reference import ConservativeFlow
from qchain import analysis, observer, sim
from qchain.core import build_symplectic

#: (elements, horizon, sample step) of each random draw.
CASES = [(1, 100.0, 0.01), (2, 1e3, 0.05), (5, 1e3, 0.05), (13, 300.0, 0.02),
         (50, 1e3, 0.1)]


def _draw(rng, n):
    """Random gains, plant direction and a PD detuning within 10 % of design."""
    mu = rng.uniform(0.5, 2.0, size=n)
    alpha = rng.standard_normal(2)
    design = analysis.detunings_from_gains(mu)
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
    times = np.arange(cfg.n_steps + 1) * cfg.sample_dt
    z_p0 = float(aug.plant.alpha @ cfg.initial_plant)
    steady = np.linalg.solve(real.drift, -real.input_vector * z_p0)
    err0 = cfg.initial_observer - steady
    flow = ConservativeFlow(R, form)
    k_err = np.linalg.solve(R, -form.matrix @ err0)
    integral = 0.5 * (flow.propagate(k_err, times) - k_err)
    gain = aug.drift[0:2, 2:]
    x_p = cfg.initial_plant + np.outer(times, gain @ steady) + integral @ gain.T
    return np.hstack([x_p, steady + flow.propagate(err0, times)])


def _reference_time_average(ham, form, horizon):
    flow = ConservativeFlow(ham.matrix, form)
    k = np.linalg.solve(ham.matrix, -form.matrix)
    return 0.5 * (flow.matrix(horizon) - np.eye(form.dim)) @ k


def _reference_certificate(ham, form):
    evals = np.linalg.eigvalsh(ham.matrix)
    lo, hi = evals[0], evals[-1]
    bound = np.sqrt(hi / lo)
    k = np.linalg.solve(ham.matrix, -form.matrix)
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
        exact = analysis.time_average_integral(ham, h)
        ref = _reference_time_average(ham, form, h)
        assert np.max(np.abs(exact - ref)) <= 1e-10 * np.max(np.abs(ref))
    cert = analysis.convergence_certificate(ham)
    got = (cert.lambda_min, cert.lambda_max, cert.exp_bound, cert.avg_constant)
    for value, want in zip(got, _reference_certificate(ham, form)):
        assert value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# verify's checks from the chain spectrum

#: Elements of the chains the flow and norm-bound parity tests draw.
FLOW_SIZES = (1, 2, 3, 5, 10, 20, 30)


def _verify_chain(rng, n, kind):
    """Augmented system with a unit plant direction and gains in [0.5, 1.5].

    ``kind`` picks the detunings: the design rule, the design rule times
    1.1, or the design rule shifted down far enough to be indefinite.
    """
    mu = rng.uniform(0.5, 1.5, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    plant = observer.PlantSpec(alpha=np.array([np.cos(theta), np.sin(theta)]))
    design = analysis.detunings_from_gains(mu)
    omega = {
        "design": design,
        "detuned": 1.1 * design,
        "indefinite": design - rng.uniform(1.0, 3.0) * np.max(mu),
    }[kind]
    real = observer.build_observer(plant, mu, omega_override=omega)
    aug = observer.assemble_augmented(real, plant)
    return aug, real.hamiltonian


@pytest.mark.parametrize("kind", ["design", "detuned", "indefinite"])
def test_flow_matrix_matches_expm(kind):
    rng = np.random.default_rng({"design": 1, "detuned": 2, "indefinite": 3}[kind])
    for n in FLOW_SIZES:
        aug, ham = _verify_chain(rng, n, kind)
        assert (ham.lam[0] < 0) == (kind == "indefinite")
        for t in (0.1, 1.0, 10.0, 100.0):
            E = sim.flow_matrix(aug, t)
            ref = scipy.linalg.expm(aug.drift * t)
            assert np.max(np.abs(E - ref)) <= 1e-10 * max(1.0, np.max(np.abs(E)))


def test_flow_matrix_is_exact_on_a_stiff_draw():
    """A draw outside the expm test's family, where scipy 1.17's ``expm``
    errs by 3.8e-10 of max|E| at t = 100: the closed form still agrees with
    a 40-digit exponential to rounding."""
    mpmath = pytest.importorskip("mpmath")
    plant = observer.PlantSpec(alpha=np.array([1.3040000451301372, 0.9470809631292422]))
    real = observer.build_observer(plant, [1.7199053588004087, 1.8691333659165825])
    aug = observer.assemble_augmented(real, plant)
    E = sim.flow_matrix(aug, 100.0)
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(aug.drift.tolist()) * 100)
        exact = np.array(exact.tolist(), dtype=float)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(E - exact)) <= 1e-14 * scale


def test_flow_matrix_is_the_simulated_flow():
    rng = np.random.default_rng(4)
    for kind, n in (("design", 3), ("detuned", 10), ("indefinite", 30)):
        aug, _ = _verify_chain(rng, n, kind)
        x0 = rng.standard_normal(aug.dim)
        cfg = sim.SimulationConfig(
            initial_plant=x0[:2], initial_observer=x0[2:], horizon_T=100.0,
            sample_dt=0.1,
        )
        times = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        states = sim.states_at(aug, cfg, times)
        for t, state in zip(times, states):
            want = sim.flow_matrix(aug, t) @ x0
            assert np.all(np.abs(state - want) <= 1e-10 * (1.0 + np.abs(want)))


def test_one_svd_bounds_the_flow_at_every_probe_time():
    """``sigma_max(V)^2`` is at least the SVD norm of ``U(t)`` at each probe time.

    The computed ``U(t)`` carries the rounding of its own products, a few
    ulps times ``N``, which the bound on the exact product need not cover.
    """
    rng = np.random.default_rng(5)
    times = np.logspace(-2, 3, 50)
    eps = np.finfo(float).eps
    for kind in ("design", "detuned", "indefinite"):
        for n in FLOW_SIZES:
            _, ham = _verify_chain(rng, n, kind)
            bound = np.linalg.norm(ham.V, 2) ** 2
            if kind != "indefinite":
                report = analysis.exp_norm_bound(ham, times)
                assert np.all(report.norms == bound)
            for t in times:
                assert bound >= np.linalg.norm(ham.propagator(t), 2) - 4 * n * eps


# ---------------------------------------------------------------------------
# the horizon report's matrix residual from the chain spectrum

#: Horizons of the matrix-residual parity test.
RESIDUAL_HORIZONS = (0.1, 1.0, 10.0, 1e3, 1e5)


def _residual_chain(rng, detune):
    """A definite chain: N in 1..40, gains 10^+-1, |alpha| 10^+-2, design
    detunings or, for ``detune``, the design rule off by up to 1e-3 relative."""
    while True:
        n = int(rng.integers(1, 41))
        mu = 10.0 ** rng.uniform(-1.0, 1.0, n)
        omega = analysis.detunings_from_gains(mu)
        if detune:
            omega = omega * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, n))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        alpha = 10.0 ** rng.uniform(-2.0, 2.0) * np.array([np.cos(theta), np.sin(theta)])
        plant = observer.PlantSpec(alpha=alpha)
        real = observer.build_observer(plant, mu, omega_override=omega)
        if real.hamiltonian.lam[0] > 0:
            return plant, real


def test_matrix_residual_matches_the_dense_route():
    """``consensus_report``'s ``max_k |sin(lam_k T)| / (|lam_k| T |alpha|)``
    against the route it replaced, ``||R @ time_average_integral(ham, T) / T||_2``:
    the readout row of element i is one common phase times ``+-(D)_ii / |alpha|``
    in the amplitudes, so the averaged readout's singular values are the
    ``|sin(lam_k T)| / (|lam_k| T |alpha|)`` themselves."""
    rng = np.random.default_rng(26)
    for draw in range(210):
        plant, real = _residual_chain(rng, detune=draw % 3 == 0)
        ham, readout = real.hamiltonian, real.readout
        abs_alpha = np.sqrt(plant.norm_sq)
        assert np.linalg.norm(readout, 2) * abs_alpha == pytest.approx(1.0, rel=1e-15)
        aug = observer.assemble_augmented(real, plant)
        cfg = sim.SimulationConfig(
            initial_plant=rng.standard_normal(2),
            initial_observer=np.zeros(real.state_dim),
            horizon_T=RESIDUAL_HORIZONS[-1],
            sample_dt=0.01,
        )
        report = sim.consensus_report(aug, cfg, RESIDUAL_HORIZONS)
        for T, got in zip(RESIDUAL_HORIZONS, report.matrix_residual):
            singular = np.linalg.svd(
                readout @ analysis.time_average_integral(ham, T) / T, compute_uv=False
            )
            assert got == pytest.approx(singular[0], rel=1e-13)
            closed = np.abs(np.sin(ham.lam * T)) / (np.abs(ham.lam) * T * abs_alpha)
            assert np.all(np.abs(np.sort(closed)[::-1] - singular) <= 1e-13 * singular[0])
