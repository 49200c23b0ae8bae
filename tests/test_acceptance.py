"""Acceptance suite: every top-level guarantee of the package, one test each.

Each test prints a single ``[PASS]`` line once its criterion holds at the
stated tolerance, so ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist of the package's claims:

1. network elimination reproduces the closed-form drift, noise-free
2. the chain energy matrix is positive definite exactly when the head gain is
3. the complex reduction preserves quadratic forms and splits into squares
4. the augmented flow preserves the commutation form and the energy
5. propagator norms never exceed the spectral bound
6. the closed-form time average matches numerical quadrature
7. the canonical three-element run converges at the certified 1/T rate
8. detuning any single element breaks consensus detectably
9. simulation runs are bit-for-bit reproducible
"""

import json

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from qchain import analysis, cli, network, observer, sim
from flow_reference import ConservativeFlow
from qchain.core import build_symplectic


def _chain(mu, alpha=(1.0, 0.0)):
    plant = observer.PlantSpec(alpha=np.asarray(alpha, dtype=float))
    real = observer.build_observer(plant, mu)
    return plant, real, observer.assemble_augmented(real, plant)


def _phase_span(n):
    """Real 2n x 2 embedding of the complex span of (1, -i, -1, i, ...)."""
    v = (-1j) ** np.arange(n)
    cols = []
    for vec in (v, 1j * v):
        x = np.empty(2 * n)
        x[0::2] = vec.real
        x[1::2] = vec.imag
        cols.append(x)
    return np.stack(cols, axis=1)


def test_criterion_1_network_elimination():
    rng = np.random.default_rng(101)
    worst_drift = 0.0
    worst_noise = 0.0
    for n in range(2, 9):
        for _ in range(20):
            alpha = rng.standard_normal(2)
            alpha /= np.linalg.norm(alpha)
            mu_1 = float(rng.uniform(0.3, 2.5))
            kappas = tuple(rng.uniform(0.5, 8.0, size=2 * n - 2))
            params = observer.ChainParams(n_elements=n, mu_1=mu_1, kappas=kappas)
            mu = observer.gains_from_kappas(params)
            plant = observer.PlantSpec(alpha=alpha)
            real = observer.build_observer(plant, mu)
            augmented = observer.assemble_augmented(real, plant)

            systems, links = network.build_chain(
                alpha, -mu_1 * alpha, real.omega, kappas
            )
            reduced = network.connect(systems, links)
            drift_err = float(np.max(np.abs(reduced.drift - augmented.drift)))
            noise_err = network.verify_noise_cancellation(reduced)
            assert drift_err <= 1e-12
            assert noise_err <= 1e-12
            worst_drift = max(worst_drift, drift_err)
            worst_noise = max(worst_noise, noise_err)
    print(
        f"[PASS] criterion 1: elimination matches the closed-form drift for "
        f"N=2..8 (worst drift {worst_drift:.2e}, worst noise {worst_noise:.2e})"
    )


def test_criterion_2_positivity_boundary():
    rng = np.random.default_rng(102)
    min_seen = np.inf
    worst_zero = 0.0
    worst_angle = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        mu = rng.uniform(1e-2, 10.0, size=n)
        ok, lo, _ = analysis.check_positive_definite(analysis.observer_hamiltonian(mu))
        assert ok and lo > 0.0
        min_seen = min(min_seen, lo)

        detached = np.concatenate(([0.0], mu[1:]))
        ham0 = analysis.observer_hamiltonian(detached)
        evals, evecs = np.linalg.eigh(ham0.matrix)
        assert np.max(np.abs(evals[:2])) <= 1e-10
        angle = float(
            np.max(scipy.linalg.subspace_angles(evecs[:, :2], _phase_span(n)))
        )
        assert angle < 1e-8
        worst_zero = max(worst_zero, float(np.max(np.abs(evals[:2]))))
        worst_angle = max(worst_angle, angle)
    print(
        f"[PASS] criterion 2: positive definite for 100 random chains "
        f"(min eig {min_seen:.2e}); zero head gain degenerates exactly "
        f"(|eig| <= {worst_zero:.2e}, kernel angle <= {worst_angle:.2e})"
    )


def test_criterion_3_complex_reduction():
    rng = np.random.default_rng(103)
    worst_form = 0.0
    worst_split = 0.0
    for n in range(1, 9):
        mu = rng.uniform(0.2, 3.0, size=n)
        ham = analysis.observer_hamiltonian(mu)
        scale = 1.0 + float(np.max(np.abs(ham.H)))
        for _ in range(100):
            x = rng.standard_normal(2 * n)
            a = x[0::2] + 1j * x[1::2]
            real_form = float(x @ ham.matrix @ x)
            complex_form = float(np.real(np.conj(a) @ ham.H @ a))
            err = abs(real_form - complex_form) / max(1.0, abs(real_form))
            assert err < 1e-12
            squares = mu[0] * abs(a[0]) ** 2 + sum(
                mu[k + 1] * abs(1j * a[k] + a[k + 1]) ** 2 for k in range(n - 1)
            )
            split_err = abs(complex_form - squares) / max(1.0, abs(complex_form))
            assert split_err < 1e-12 * scale
            worst_form = max(worst_form, err)
            worst_split = max(worst_split, split_err)
    print(
        f"[PASS] criterion 3: quadratic forms survive the complex reduction "
        f"(worst {worst_form:.2e}) and equal the head-plus-squares split "
        f"(worst {worst_split:.2e})"
    )


def test_criterion_4_conservation():
    rng = np.random.default_rng(104)
    worst_comm = 0.0
    for n in range(1, 9):
        alpha = rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        _, _, augmented = _chain(rng.uniform(0.2, 2.0, size=n), alpha=alpha)
        theta = augmented.form.matrix
        for t in (0.1, 1.0, 10.0, 100.0):
            E = scipy.linalg.expm(augmented.drift * t)
            resid = float(np.max(np.abs(E @ theta @ E.T - theta)))
            assert resid < 1e-8
            worst_comm = max(worst_comm, resid)

    rng2 = np.random.default_rng(140)
    _, real, augmented = _chain([1.0, 1.0, 1.0])
    cfg = sim.SimulationConfig(
        initial_plant=np.array([1.0, -0.5]),
        initial_observer=rng2.standard_normal(real.state_dim),
        horizon_T=1000.0,
        sample_dt=0.05,
    )
    series = sim.simulate(augmented, cfg, keep_states=True)
    energies = 0.5 * np.einsum(
        "ti,ij,tj->t", series.states, augmented.hamiltonian, series.states
    )
    drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    assert drift <= 1e-9
    print(
        f"[PASS] criterion 4: commutation form preserved to {worst_comm:.2e} "
        f"and energy conserved to relative {drift:.2e} over t <= 1e3"
    )


def test_criterion_5_norm_bound():
    times = np.logspace(-2, 3, 50)
    rng = np.random.default_rng(105)
    reports = []
    for mu in ([1.0, 1.0, 1.0], rng.uniform(0.3, 2.0, size=5), [0.7]):
        ham = analysis.observer_hamiltonian(mu)
        report = analysis.exp_norm_bound(ham, times)
        assert np.all(report.norms <= report.bound * (1.0 + 1e-9))
        reports.append(report)
    two = analysis.convergence_certificate(analysis.observer_hamiltonian([1.0, 1.0]))
    assert two.exp_bound == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-6)
    margin = max(float(np.max(r.norms / r.bound)) for r in reports)
    print(
        f"[PASS] criterion 5: propagator norms within the spectral bound at 50 "
        f"log-spaced times (max norm/bound {margin:.6f}); two-element bound "
        f"matches (3+sqrt(5))/2"
    )


def test_criterion_6_average_integral():
    ham = analysis.observer_hamiltonian([1.0, 1.0, 1.0])
    form = build_symplectic(3)
    flow = ConservativeFlow(ham.matrix, form)
    worst = 0.0
    for T, points in ((1.0, 2001), (10.0, 20001), (100.0, 100001)):
        grid = np.linspace(0.0, T, points)
        stack = np.stack([flow.matrix(t) for t in grid])
        reference = scipy.integrate.simpson(stack, x=grid, axis=0)
        exact = analysis.time_average_integral(ham, T)
        err = float(
            np.max(np.abs(exact - reference)) / max(1.0, float(np.max(np.abs(reference))))
        )
        assert err <= 1e-8
        worst = max(worst, err)
    print(
        f"[PASS] criterion 6: closed-form time averages match Simpson quadrature "
        f"for T in {{1, 10, 100}} (worst relative error {worst:.2e})"
    )


def test_criterion_7_canonical_convergence():
    plant, real, augmented = _chain([1.0, 1.0, 1.0])
    cfg = sim.SimulationConfig(
        initial_plant=np.array([1.0, 0.0]),
        initial_observer=np.zeros(real.state_dim),
        horizon_T=100.0,
        sample_dt=0.01,
    )
    report = sim.consensus_report(augmented, cfg, [1e2, 1e3, 1e4])
    assert report.passed
    assert -1.15 <= report.slope <= -0.85
    assert report.z_p_drift < 1e-9
    x_bar, _ = observer.steady_vector(real, plant, report.z_p)
    gains = real.readout @ x_bar / report.z_p
    assert np.max(np.abs(gains - 1.0)) <= 1e-12
    print(
        f"[PASS] criterion 7: canonical three-element run converges "
        f"(slope {report.slope:.3f}, z drift {report.z_p_drift:.2e}, "
        f"steady readout gains all 1)"
    )


def test_criterion_8_detuning_detection():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    design = observer.build_observer(plant, [1.0, 1.0, 1.0])
    worst_resid = np.inf
    for i in range(3):
        omega = np.array(design.omega)
        omega[i] += 1e-3
        real = observer.build_observer(plant, [1.0, 1.0, 1.0], omega_override=omega)
        augmented = observer.assemble_augmented(real, plant)
        _, resid = observer.steady_vector(real, plant, 1.0, tol=None)
        assert resid > 1e-4
        worst_resid = min(worst_resid, resid)
        cfg = sim.SimulationConfig(
            initial_plant=np.array([1.0, 0.0]),
            initial_observer=np.zeros(real.state_dim),
            horizon_T=100.0,
            sample_dt=0.02,
        )
        report = sim.consensus_report(augmented, cfg, [1e4, 5e4])
        assert not report.passed
    print(
        f"[PASS] criterion 8: every single-element detuning of 1e-3 is caught "
        f"(steady residual >= {worst_resid:.2e}, consensus check fails)"
    )


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    raw = {
        "name": "repro",
        "plant": {"alpha": [1.0, 0.0]},
        "chain": {"mu": [1.0, 1.0, 1.0]},
        "initial": {"plant": [1.0, 0.0], "observer": "zero"},
        "horizons": [10.0, 100.0],
        "sample_dt": 0.01,
        "seed": 5,
        "csv_stride": 10,
    }
    config_path = tmp_path / "repro.json"
    config_path.write_text(json.dumps(raw))
    outputs = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = cli.main(
            [
                "simulate",
                str(config_path),
                "--csv",
                "series.csv",
                "--out",
                "report.json",
            ]
        )
        assert rc == 0
        outputs.append(
            (
                (workdir / "series.csv").read_bytes(),
                (workdir / "report.json").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    print(
        "[PASS] criterion 9: repeated simulate runs produce byte-identical "
        "CSV and report files"
    )
