"""Simulation-layer tests.

The exact route is checked against independent references throughout: scipy's
expm and trapezoid, the rk4 integrator, and the frozen certificate numbers of
the three-element design chain.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from qchain import observer, sim
from qchain.errors import IntegratorAccuracyError


def _make_system(mu, alpha=(1.0, 0.0)):
    plant = observer.PlantSpec(alpha=np.asarray(alpha, dtype=float))
    real = observer.build_observer(plant, mu)
    aug = observer.assemble_augmented(real, plant)
    return plant, real, aug


def _config(real, horizon, dt, plant_x=(1.0, 0.0), obs=None, method="exact"):
    if obs is None:
        obs = np.zeros(real.state_dim)
    return sim.SimulationConfig(
        initial_plant=np.asarray(plant_x, dtype=float),
        initial_observer=np.asarray(obs, dtype=float),
        horizon_T=horizon,
        sample_dt=dt,
        method=method,
    )


# ---------------------------------------------------------------------------
# configuration and small helpers


def test_config_grid():
    _, real, _ = _make_system([1.0])
    cfg = _config(real, 1.0, 0.01)
    assert cfg.n_steps == 100
    times = cfg.times()
    assert times.shape == (101,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_config_validation():
    z2 = np.zeros(2)
    with pytest.raises(ValueError):
        sim.SimulationConfig(np.zeros(3), z2, 1.0, 0.01)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(3), 1.0, 0.01)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(0), 1.0, 0.01)
    with pytest.raises(ValueError):
        sim.SimulationConfig(np.array([1.0, np.inf]), np.zeros(2), 1.0, 0.01)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(2), 0.0, 0.01)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(2), 1.0, 1.0)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(2), 1.0, 0.01, method="euler")
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(2), 1e6, 0.01)  # over the sample cap


def test_default_sample_dt():
    assert sim.default_sample_dt([2.0, 1.0, 0.5]) == 0.01
    assert sim.default_sample_dt([200.0]) == pytest.approx(5e-4)
    assert sim.default_sample_dt([]) == 0.01


# ---------------------------------------------------------------------------
# running averages


def test_running_average_constant_and_linear():
    t = np.linspace(0.0, 4.0, 41)
    assert np.allclose(sim.running_average(t, np.full(41, 3.5)), 3.5, atol=1e-14)
    ramp = sim.running_average(t, t)
    assert np.allclose(ramp, t / 2.0, atol=1e-13)
    two_col = sim.running_average(t, np.stack([np.full(41, 3.5), t], axis=1))
    assert two_col.shape == (41, 2)
    assert np.allclose(two_col[:, 0], 3.5, atol=1e-14)
    assert np.allclose(two_col[:, 1], t / 2.0, atol=1e-13)
    with pytest.raises(ValueError):
        sim.running_average(t, np.zeros(40))


def test_running_average_matches_scipy_trapezoid():
    rng = np.random.default_rng(19)
    t = np.linspace(0.0, 7.0, 201)
    v = rng.standard_normal((201, 3))
    avg = sim.running_average(t, v)
    for k in (1, 57, 200):
        ref = scipy.integrate.trapezoid(v[: k + 1], x=t[: k + 1], axis=0) / t[k]
        assert np.max(np.abs(avg[k] - ref)) <= 1e-9


# ---------------------------------------------------------------------------
# full simulation


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    A = 0.4 * rng.standard_normal((6, 6))
    x0 = rng.standard_normal(6)
    dt, n_steps = 0.01, 400
    out = sim._rk4_loop(A, x0, dt, n_steps)
    assert out.shape == (n_steps + 1, 6)
    assert np.array_equal(out[0], x0)
    exact = scipy.linalg.expm(A * dt * n_steps) @ x0
    assert np.max(np.abs(out[-1] - exact)) <= 1e-8


def test_exact_and_rk4_routes_agree():
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    obs0 = np.linspace(-0.5, 0.5, real.state_dim)
    cfg = _config(real, 20.0, 0.002, plant_x=(0.7, -0.2), obs=obs0)
    exact = sim.simulate(aug, cfg)
    stepped = sim.simulate(aug, replace(cfg, method="rk4"))
    assert np.max(np.abs(exact.z_p - stepped.z_p)) <= 1e-6
    assert np.max(np.abs(exact.z_o - stepped.z_o)) <= 1e-6
    # rk4 averages are trapezoidal, so compare them with the trapezoid of the
    # exact samples; the exact averages differ from both by the trapezoid error
    trapezoid = sim.running_average(exact.times, exact.z_o)
    assert np.max(np.abs(trapezoid - stepped.running_avg_z_o)) <= 1e-6


def test_rk4_power_stepping_matches_plain_loop():
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(aug.dim)
    dt, n_steps = 0.01, 200_000
    blocked = sim._rk4_loop(aug.drift, x0, dt, n_steps)
    A = aug.drift
    plain = np.empty_like(blocked)
    plain[0] = x = x0.copy()
    for k in range(n_steps):
        k1 = A @ x
        k2 = A @ (x + 0.5 * dt * k1)
        k3 = A @ (x + 0.5 * dt * k2)
        k4 = A @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        plain[k + 1] = x
    assert np.max(np.abs(blocked - plain)) <= 1e-9


def test_exact_averages_match_van_loan_reference():
    _, real, aug = _make_system([1.0, 0.8, 1.3])
    rng = np.random.default_rng(23)
    obs0 = rng.standard_normal(real.state_dim)
    cfg = _config(real, 3.0, 0.01, plant_x=(1.4, -0.6), obs=obs0)
    series = sim.simulate(aug, cfg)
    x0 = np.concatenate([cfg.initial_plant, cfg.initial_observer])
    d = aug.dim
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = aug.drift
    block[:d, d:] = np.eye(d)
    z = series.z_p[0]
    assert np.array_equal(series.running_avg_z_o[0], series.z_o[0])
    for k in range(1, series.times.size):
        t = series.times[k]
        integral = scipy.linalg.expm(block * t)[:d, d:] @ x0
        ref = aug.observer_readout @ integral / t
        assert np.max(np.abs(series.running_avg_z_o[k] - ref)) <= 1e-9 * (1 + abs(z))


def test_long_run_conserves_energy_and_plant_observable():
    rng = np.random.default_rng(17)
    _, real, aug = _make_system([1.0, 0.8, 1.3, 0.6])
    obs0 = rng.standard_normal(real.state_dim)
    cfg = _config(real, 500.0, 0.01, plant_x=(1.2, 0.3), obs=obs0)
    series = sim.simulate(aug, cfg, keep_states=True)
    assert series.states is not None
    assert series.z_p_drift <= sim.Z_DRIFT_TOL * (1.0 + abs(series.z_p[0]))
    energies = 0.5 * np.einsum(
        "ti,ij,tj->t", series.states, aug.hamiltonian, series.states
    )
    assert abs(energies[0]) > 0.1
    assert np.max(np.abs(energies - energies[0])) <= 1e-9 * abs(energies[0])
    # the readouts stored on the series match the kept raw states
    assert np.allclose(series.z_p, series.states @ aug.plant_readout, atol=1e-12)
    assert np.allclose(
        series.z_o, series.states @ aug.observer_readout.T, atol=1e-12
    )


def test_integrator_accuracy_guard_trips():
    _, real, aug = _make_system([1.0, 1.0])
    doctored_drift = aug.drift.copy()
    doctored_drift[0, 0] = 1e-3  # leak energy into the conserved quadrature
    doctored = replace(aug, drift=doctored_drift)
    cfg = _config(real, 50.0, 0.01, method="rk4")
    with pytest.raises(IntegratorAccuracyError) as info:
        sim.simulate(doctored, cfg)
    assert info.value.drift > 1e-3


def test_exact_route_drift_guard_needs_no_samples(monkeypatch):
    # one mode with lam = pi/2, so every phase is back to 1 at t = 2 and 4
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(plant, [1.0], omega_override=[np.pi / 2])
    aug = observer.assemble_augmented(real, plant)
    steady, _ = observer.steady_vector(real, plant, 1.0, tol=None)
    # couple the chain into z itself, across the steady offset so that z does
    # not ramp: it only oscillates, and is back at z(0) at both horizons
    doctored_drift = aug.drift.copy()
    doctored_drift[0, 2:] += 1e-3 * np.array([-steady[1], steady[0]])
    doctored = replace(aug, drift=doctored_drift)
    cfg = _config(real, 4.0, 0.01)

    def no_sampling(*args, **kwargs):
        raise AssertionError("the exact route sampled the series")

    monkeypatch.setattr(sim, "simulate", no_sampling)
    monkeypatch.setattr(sim, "running_average", no_sampling)
    z_p = sim._exact_series(doctored, cfg, np.array([0.0, 2.0, 4.0]), False)[0]
    assert np.max(np.abs(z_p - 1.0)) <= 1e-12  # invisible at the horizons
    with pytest.raises(IntegratorAccuracyError) as info:
        sim.consensus_report(doctored, real, cfg, [2.0, 4.0])
    assert info.value.drift > 1e-4


def test_observer_length_mismatch():
    _, real, aug = _make_system([1.0, 1.0])
    cfg = _config(real, 1.0, 0.01, obs=np.zeros(real.state_dim))
    bad = replace(cfg, initial_observer=np.zeros(real.state_dim + 2))
    with pytest.raises(ValueError):
        sim.simulate(aug, bad)


def test_steady_start_is_stationary():
    plant, real, aug = _make_system([1.0, 1.0, 1.0])
    z0 = 2.0
    x_bar, _ = observer.steady_vector(real, plant, z0)
    cfg = _config(real, 50.0, 0.01, plant_x=(z0, -0.4), obs=x_bar)
    series = sim.simulate(aug, cfg)
    assert np.max(np.abs(series.z_o - z0)) <= 1e-9
    assert np.max(np.abs(series.running_avg_z_o - z0)) <= 1e-9


# ---------------------------------------------------------------------------
# consensus reporting


def test_consensus_report_canonical():
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 100.0, 0.01)
    report = sim.consensus_report(aug, real, cfg, [1e2, 1e3, 1e4])
    assert report.passed
    assert report.method == "exact"
    assert report.z_p == pytest.approx(1.0, abs=1e-12)
    assert report.z_p_drift <= sim.Z_DRIFT_TOL * 2.0
    # frozen values for the exactly-evaluated averaged deviation operator
    assert report.matrix_residual[0] == pytest.approx(0.041263665170766198, rel=1e-9)
    assert report.matrix_residual[1] == pytest.approx(0.00071417450463042592, rel=1e-9)
    assert report.certificate_envelope[0] == pytest.approx(0.12745783150664494, rel=1e-12)
    assert report.certificate_envelope[2] == pytest.approx(1.2745783150664494e-3, rel=1e-12)
    assert report.certificate.avg_constant == pytest.approx(12.745783150664494, rel=1e-12)
    # each decade of horizon shrinks every element error roughly tenfold
    ratios = report.per_element_error[:-1] / report.per_element_error[1:]
    assert np.all(ratios >= 8.0)
    assert np.all(report.per_element_error[0] / report.per_element_error[-1] >= 250.0)
    assert report.slope == pytest.approx(-0.9586872371909245, abs=1e-6)


def test_consensus_report_matches_series_averages():
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 1e3, 0.01, plant_x=(0.8, 0.5))
    series = sim.simulate(aug, cfg)
    horizons = [1e2, 5e2, 1e3]
    report = sim.consensus_report(aug, real, cfg, horizons)
    z = series.z_p[0]
    ks = [int(round(h / cfg.sample_dt)) for h in horizons]
    want = np.abs(series.running_avg_z_o[ks] - z)
    assert np.max(np.abs(report.per_element_error - want)) <= 1e-12 * (1 + abs(z))
    assert report.trajectory_envelope.shape == want.shape
    assert report.z_p == pytest.approx(z, abs=1e-12)


def test_consensus_report_horizon_validation():
    _, real, aug = _make_system([1.0, 1.0])
    cfg = _config(real, 10.0, 0.01)
    with pytest.raises(ValueError):
        sim.consensus_report(aug, real, cfg, [])
    with pytest.raises(ValueError):
        sim.consensus_report(aug, real, cfg, [10.0, 10.0])
    with pytest.raises(ValueError):
        sim.consensus_report(aug, real, cfg, [33.333])  # off the 0.01 grid


def test_consensus_report_flags_detuned_chain():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(
        plant, [1.0, 1.0, 1.0], omega_override=[2.0, 2.0, 1.0 + 5e-3]
    )
    aug = observer.assemble_augmented(real, plant)
    cfg = _config(real, 100.0, 0.05)
    report = sim.consensus_report(aug, real, cfg, [1e3, 5e3])
    assert not report.passed
    assert np.max(report.per_element_error[-1] / report.trajectory_envelope[-1]) > 1.5


# ---------------------------------------------------------------------------
# CSV output


def test_csv_layout_and_round_trip(tmp_path):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 10.0, 0.1, plant_x=(0.3, 0.9))
    series = sim.simulate(aug, cfg)
    path = tmp_path / "run.csv"
    sim.write_timeseries_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,z_p,z_o_1,z_o_2,z_o_3,avg_z_o_1,avg_z_o_2,avg_z_o_3"
    assert len(lines) == 102
    last = np.array([float(v) for v in lines[-1].split(",")])
    assert last[0] == 10.0  # .17g formatting round-trips the grid exactly
    assert last[1] == series.z_p[-1]
    assert np.array_equal(last[5:8], series.running_avg_z_o[-1])


def test_csv_stride_keeps_final_row(tmp_path):
    _, real, aug = _make_system([1.0, 1.0])
    cfg = _config(real, 10.0, 0.1)
    path = tmp_path / "strided.csv"
    sim.write_timeseries_csv(sim.simulate(aug, cfg, stride=40), path)
    lines = path.read_text().splitlines()
    # header + samples 0, 40, 80 + forced final sample 100
    assert len(lines) == 5
    assert float(lines[-1].split(",")[0]) == 10.0
    with pytest.raises(ValueError):
        sim.simulate(aug, cfg, stride=0)


def test_memory_budget_refuses_before_allocating(monkeypatch):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 100.0, 0.01)
    # 10001 rows; 8 columns of readouts, averages and times, 16 with states
    monkeypatch.setattr(sim, "MAX_SERIES_BYTES", 8 * 10001 * 8)
    assert sim.simulate(aug, cfg).times.size == 10001
    with pytest.raises(ValueError, match="10001 samples of a chain with N = 3"):
        sim.simulate(aug, cfg, keep_states=True)
    with pytest.raises(ValueError, match="over the limit of 640064"):
        sim.simulate(aug, replace(cfg, method="rk4"), stride=100)
    assert sim.simulate(aug, cfg, keep_states=True, stride=4).times.size == 2501


def test_strided_series_rows_match_full_series(tmp_path):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 10.0, 0.01, plant_x=(0.3, 0.9))
    full = tmp_path / "full.csv"
    strided = tmp_path / "strided.csv"
    sim.write_timeseries_csv(sim.simulate(aug, cfg), full)
    sim.write_timeseries_csv(sim.simulate(aug, cfg, stride=7), strided)
    full_rows = np.loadtxt(full, delimiter=",", skiprows=1)
    strided_rows = np.loadtxt(strided, delimiter=",", skiprows=1)
    keep = list(range(0, 1001, 7)) + [1000]
    assert strided_rows.shape == (len(keep), 8)
    assert np.max(np.abs(strided_rows - full_rows[keep])) <= 1e-12


def test_block_writer_matches_per_value_format(tmp_path):
    table = np.array(
        [
            [0.0, -0.0, 1e-300, 1e300, 3.0, -7.0],
            [0.1, 2.0, -1e300, -1e-300, 1.0 / 3.0, 12345678901234567.0],
            [1e-3, 5e-324, -2.5, 0.0, -0.0, 42.0],
        ]
    )
    table = np.tile(table, (2000, 1))  # more rows than one block
    series = sim.TimeSeries(
        times=table[:, 0],
        z_p=table[:, 1],
        z_o=table[:, 2:4],
        running_avg_z_o=table[:, 4:6],
        z_p_drift=0.0,
        method="exact",
    )
    path = tmp_path / "block.csv"
    sim.write_timeseries_csv(series, path)
    lines = ["t,z_p,z_o_1,z_o_2,avg_z_o_1,avg_z_o_2"]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in table]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
