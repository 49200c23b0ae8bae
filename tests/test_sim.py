"""Simulation-layer tests.

The exact route is checked against independent references throughout: scipy's
expm, the rk4 integrator, and the frozen certificate numbers of the
three-element design chain.
"""

import concurrent.futures
import itertools
import json
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain import _fmt17, cli, observer, sim
from qchain.analysis import time_average_integral
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
    _, real, aug = _make_system([1.0])
    cfg = _config(real, 1.0, 0.01)
    assert cfg.n_steps == 100
    times = sim.simulate(aug, cfg).times
    assert times.shape == (101,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_grid_ends_at_a_horizon_off_it(tmp_path):
    # 0.35 does not divide 1: the grid keeps every k dt < 1 and ends at 1
    # itself, whatever the stride, on either route
    _, real, aug = _make_system([1.0, 1.0])
    cfg = _config(real, 1.0, 0.35)
    at_end = sim.states_at(aug, cfg, [1.0])[0]
    for stride, steps in ((1, [0, 1, 2]), (2, [0, 2]), (3, [0])):
        series = sim.simulate(aug, cfg, keep_states=True, stride=stride)
        assert series.times.tolist() == [k * 0.35 for k in steps] + [1.0]
        assert np.max(np.abs(series.states[-1] - at_end)) <= 1e-14
    path = tmp_path / "series.csv"
    sim.write_timeseries_csv(aug, cfg, path, stride=2)
    assert [row.split(",")[0] for row in path.read_text().splitlines()[1:]] == [
        "0", "0.69999999999999996", "1"
    ]
    stepped = sim.simulate(aug, replace(cfg, method="rk4"))
    assert stepped.times.tolist() == [0.0, 0.35, 0.7, 1.0]


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
        sim.SimulationConfig(z2, np.zeros(2), 1.0, 0.0)
    with pytest.raises(ValueError):
        sim.SimulationConfig(z2, np.zeros(2), 1.0, 0.01, method="euler")
    # the grid rules are checked where the grid is read, by n_steps, so
    # these configs construct
    same = sim.SimulationConfig(z2, np.zeros(2), 1.0, 1.0)
    with pytest.raises(ValueError, match="sample_dt must be smaller than horizon_T"):
        same.n_steps
    # no sample cap, but every step must have a 64-bit index
    assert sim.SimulationConfig(z2, np.zeros(2), 1e6, 0.01).n_steps == 10**8
    # the rk4 route steps its whole grid, so its step count stays capped
    rk4 = sim.SimulationConfig(z2, np.zeros(2), 1e5, 0.01, method="rk4")
    assert rk4.n_steps == sim.MAX_RK4_STEPS
    over = sim.SimulationConfig(z2, np.zeros(2), 1e5 + 0.01, 0.01, method="rk4")
    with pytest.raises(ValueError, match="rk4 route would take over 10000000 steps"):
        over.n_steps
    for dt in (1e-10, 1e-300):
        unindexed = sim.SimulationConfig(z2, np.zeros(2), 1e10, dt)
        with pytest.raises(ValueError, match="too many steps"):
            unindexed.n_steps


def test_default_sample_dt():
    assert sim.default_sample_dt([2.0, 1.0, 0.5]) == 0.01
    assert sim.default_sample_dt([200.0]) == pytest.approx(5e-4)
    assert sim.default_sample_dt([]) == 0.01


# ---------------------------------------------------------------------------
# full simulation


def _rk4_rows(A, x0, dt, n_steps, rows):
    """``rows @ x`` at steps ``0..n_steps``, stepped in ``sim._rk4_blocks``' blocks.

    Each block reads its steps, up to ``n_steps``, in one product.
    """
    P, step_block = sim._rk4_blocks(A, dt, n_steps, rows)
    (B, m, _), out, x = P.shape, [], x0
    for start in range(0, n_steps + 1, B):
        c = min(B, n_steps + 1 - start)
        out.append((P[:c].reshape(c * m, -1) @ x).reshape(c, m))
        x = step_block @ x
    return np.vstack(out)


def _rk4_frame(aug):
    """The rk4 route's stepped drift and its plant frame, built independently.

    The state is ``(x_u, x_r, x_o, y)``: the plant quadratures along ``u =
    alpha / |alpha|`` and ``J^T u``, the chain, and ``N`` rows ``y' = z_o``.
    The ``x_u`` row and the ``x_r`` column of the rotated drift are zeroed.
    """
    n, d = aug.realization.n_elements, aug.dim
    u = aug.plant.alpha / np.linalg.norm(aug.plant.alpha)
    frame = np.eye(d)
    frame[0:2, 0:2] = [[u[0], u[1]], [-u[1], u[0]]]
    K = np.zeros((d + n, d + n))
    K[:d, :d] = frame @ aug.drift @ frame.T
    K[0], K[:, 1] = 0.0, 0.0
    K[d:, :d] = aug.observer_readout
    return K, frame


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    A = 0.4 * rng.standard_normal((6, 6))
    x0 = rng.standard_normal(6)
    dt, n_steps = 0.01, 400
    out = _rk4_rows(A, x0, dt, n_steps, np.eye(6))
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
    assert np.array_equal(exact.z_p, stepped.z_p)
    assert np.max(np.abs(exact.z_o - stepped.z_o)) <= 1e-6
    # rk4 integrates the averages with the state, at the same order
    assert np.max(np.abs(exact.running_avg_z_o - stepped.running_avg_z_o)) <= 1e-9


def test_rk4_reaches_off_grid_times_at_its_orders():
    # each horizon is off every grid below, and the route ends it with one
    # short step: as dt halves, the state and the average at it, integrated
    # with the state, converge to the exact ones at RK4's O(dt^4) (a ratio of 16)
    _, real, aug = _make_system([1.0, 0.8, 1.3])
    rng = np.random.default_rng(43)
    cfg = _config(real, 1.0, 0.04, plant_x=(0.4, 1.1),
                  obs=rng.standard_normal(real.state_dim), method="rk4")
    for horizon in (3.3333, 7.777, 41.2345):
        run = replace(cfg, horizon_T=horizon)
        exact = sim.simulate(aug, replace(run, method="exact"), keep_states=True,
                             stride=10**6)
        gaps = []
        for dt in (0.04, 0.02, 0.01):
            stepped = sim.simulate(aug, replace(run, sample_dt=dt), keep_states=True,
                                   stride=10**6)
            assert stepped.times[-1] == horizon
            gaps.append([
                np.max(np.abs(stepped.states[-1] - exact.states[-1])),
                np.max(np.abs(stepped.running_avg_z_o[-1] - exact.running_avg_z_o[-1])),
            ])
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 12.0)
        assert np.max(gaps[-1]) < 1e-4


def test_rk4_power_stepping_matches_plain_loop():
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(aug.dim)
    dt, n_steps = 0.01, 200_000
    blocked = _rk4_rows(aug.drift, x0, dt, n_steps, np.eye(aug.dim))
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
    assert np.all(series.z_p == aug.plant.alpha @ cfg.initial_plant)
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
    with pytest.raises(IntegratorAccuracyError, match="its ramp by 1.000e-03 "):
        sim.simulate(doctored, cfg)


def test_rk4_nan_drift_fails_the_check():
    # a nan in the plant observable's row is not a leak within tolerance
    _, real, aug = _make_system([1.0, 1.0])
    A = aug.drift.copy()
    A[0, 0] = np.nan
    cfg = _config(real, 5.0, 0.01, method="rk4")
    with pytest.raises(IntegratorAccuracyError, match="its ramp by nan "):
        sim.simulate(replace(aug, drift=A), cfg)


@pytest.mark.parametrize("leak", [(0, 0), (0, 3)], ids=["doctored", "oscillating"])
def test_rk4_drift_covers_every_step(monkeypatch, leak):
    # the frame check reads the drift itself, so it covers every step of any
    # grid: (0, 0) is the doctored drift above, and the oscillating leak
    # (0, 3), which drifts z most at step 418, where no row of this report
    # lies, fails as the route is set up, before a step is taken
    _, real, aug = _make_system([1.0, 1.0])
    A = aug.drift.copy()
    A[leak] = 1e-3
    cfg = _config(real, 50.0, 0.01, method="rk4")

    def no_steps(*args):
        raise AssertionError("stepped a drift that fails the frame check")

    monkeypatch.setattr(sim, "_rk4_blocks", no_steps)
    with pytest.raises(IntegratorAccuracyError, match="its ramp by 1.000e-03 "):
        sim.consensus_report(replace(aug, drift=A), cfg, [10.0, 50.0])


@pytest.mark.parametrize("n", [3, 100])
def test_exact_route_admits_horizon_1e9(n):
    # z_p is alpha @ x_p(0) by construction and the averages are closed
    # forms, so nothing grows with the horizon
    rng = np.random.default_rng(n)
    mu = [1.0, 1.0, 1.0] if n == 3 else rng.uniform(0.5, 1.5, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    _, real, aug = _make_system(mu, alpha=(np.cos(theta), np.sin(theta)))
    T = 1e9
    cfg = _config(
        real, T, T / 1e4, plant_x=rng.standard_normal(2),
        obs=rng.normal(0.0, 0.5, size=real.state_dim),
    )
    report = sim.consensus_report(aug, cfg, [1e5, 1e7, T])
    assert report.passed
    assert np.all(report.per_element_error <= report.trajectory_envelope)
    assert report.z_p_drift == 0.0


def test_rk4_streams_the_full_grid_rows(monkeypatch):
    # 89-step blocks give the numbers of stepping the whole grid at once in
    # the plant frame and reading each block in one product, in chunks of
    # 5461 rows (the whole series) and of 21 rows, whose edges fall inside,
    # on (step 1869) and across the block edges; the average at step k is
    # the integrated readouts y over k dt
    _, real, aug = _make_system([1.0, 0.8, 1.3])
    rng = np.random.default_rng(31)
    cfg = _config(real, 20.0, 0.01, plant_x=(0.4, 1.1),
                  obs=rng.standard_normal(real.state_dim), method="rk4")
    K, frame = _rk4_frame(aug)
    d = aug.dim
    x0 = np.concatenate([cfg.initial_plant, cfg.initial_observer])
    rows = np.zeros((6 + d, d + 3))  # z_o, y, then the states
    rows[:3, :d], rows[3:6, d:], rows[6:, :d] = aug.observer_readout, np.eye(3), frame.T
    P, _ = sim._rk4_blocks(K, 0.01, cfg.n_steps, rows)
    assert len(P) == 89
    stepped = _rk4_rows(K, np.concatenate([frame @ x0, np.zeros(3)]), 0.01,
                        cfg.n_steps, rows)
    assert stepped.shape == (cfg.n_steps + 1, 6 + d)
    z_o, states = stepped[:, :3], stepped[:, 6:]
    with np.errstate(invalid="ignore"):
        avg = stepped[:, 3:6] / (np.arange(cfg.n_steps + 1) * cfg.sample_dt)[:, None]
    avg[0] = z_o[0]
    for entries, stride in itertools.product((2**14, 64), (1, 7, 256, 2000)):
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", entries)
        series = sim.simulate(aug, cfg, keep_states=True, stride=stride)
        rows, times_of = sim._grid(cfg, stride)
        idx = np.rint(times_of(0, rows) / cfg.sample_dt).astype(int)
        assert np.array_equal(series.times, idx * cfg.sample_dt)
        assert np.array_equal(series.states, states[idx])
        assert np.array_equal(series.z_o, z_o[idx])
        assert np.array_equal(series.running_avg_z_o, avg[idx])
    report = sim.consensus_report(aug, cfg, [2.56, 5.0, 20.0])
    errors = np.abs(avg[[256, 500, 2000]] - report.z_p)
    assert np.array_equal(report.per_element_error, errors)


@pytest.mark.parametrize(
    "horizons, entries",
    [
        ([0.5, 0.89, 1.78, 20.0], 2**14),
        ([2.67, 8.9, 19.99], 2**14),
        ([0.004, 0.89, 2.675, 19.995], 64),
        ([0.004, 0.02], 2**14),
    ],
    ids=["on", "across", "off", "below"],
)
def test_rk4_report_reads_the_simulated_rows(monkeypatch, horizons, entries):
    # t = 0 and the horizons, read alone, have the bytes of the same rows of
    # the whole series: horizons inside, on (steps 89, 178, 890) and either
    # side of (267, 1999) the 89-step blocks of a 2000-step grid.  A horizon
    # off the grid is no row of it, so it is read among the grid's rows: one
    # short step past steps 0, 267 and 1999, at 64 entries five blocks a batch,
    # and past step 0 of a 2-step grid, where the report reads step 0 twice
    monkeypatch.setattr(sim, "_CHUNK_ENTRIES", entries)
    _, real, aug = _make_system([1.0, 0.8, 1.3])
    rng = np.random.default_rng(37)
    cfg = _config(real, 20.0, 0.01, plant_x=(0.4, 1.1),
                  obs=rng.standard_normal(real.state_dim), method="rk4")
    run = replace(cfg, horizon_T=horizons[-1])
    series = sim.simulate(aug, run)
    on = sim._grid_steps(np.array(horizons), 0.01)[1]
    if on.all():
        idx = [round(h / 0.01) for h in horizons]
    else:
        times = np.union1d(series.times, horizons)
        series = sim._evaluate(aug, run, times, False)
        idx = np.searchsorted(times, horizons)
    report = sim.consensus_report(aug, cfg, horizons)
    averages = series.running_avg_z_o[idx]
    assert np.array_equal(report.per_element_error, np.abs(averages - report.z_p))
    assert np.all(series.z_p == report.z_p)
    assert report.z_p_drift == 0.0


def test_rk4_strided_rows_are_the_full_series_rows_off_the_grid():
    # with an off-grid horizon the last row is read at the grid's last step
    # and moved on, so a stride may read that step twice (steps 0, 2, 2 for
    # T = 0.025 at stride 2); every row is still the stride-1 series' row
    _, real, aug = _make_system([1.0, 0.8, 1.3])
    rng = np.random.default_rng(41)
    cfg = _config(real, 1.0, 0.01, plant_x=(0.4, 1.1),
                  obs=rng.standard_normal(real.state_dim), method="rk4")
    for horizon in (0.025, 0.045, 0.515, 2.995):
        run = replace(cfg, horizon_T=horizon)
        full = sim.simulate(aug, run, keep_states=True)
        assert full.times[-1] == horizon
        for stride in (2, 3, 7, 17):
            series = sim.simulate(aug, run, keep_states=True, stride=stride)
            idx = np.searchsorted(full.times, series.times)
            for name in ("z_p", "z_o", "running_avg_z_o", "states"):
                assert np.array_equal(getattr(series, name), getattr(full, name)[idx])


def test_observer_length_mismatch():
    _, real, aug = _make_system([1.0, 1.0])
    cfg = _config(real, 1.0, 0.01, obs=np.zeros(real.state_dim))
    bad = replace(cfg, initial_observer=np.zeros(real.state_dim + 4))
    named = "initial_observer has length 8, chain needs 4"
    for method in ("exact", "rk4"):
        run = replace(bad, method=method)
        with pytest.raises(ValueError, match=named):
            sim.simulate(aug, run)
        with pytest.raises(ValueError, match=named):
            sim.consensus_report(aug, run, [0.5, 1.0])
    with pytest.raises(ValueError, match=named):
        sim.states_at(aug, bad, [0.0, 1.0])


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
    report = sim.consensus_report(aug, cfg, [1e2, 1e3, 1e4])
    assert report.passed
    assert report.method == "exact"
    assert report.z_p == pytest.approx(1.0, abs=1e-12)
    assert report.z_p_drift == 0.0
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
    report = sim.consensus_report(aug, cfg, horizons)
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
        sim.consensus_report(aug, cfg, [])
    with pytest.raises(ValueError):
        sim.consensus_report(aug, cfg, [10.0, 10.0])
    # off the 0.01 grid: the rk4 route reaches it with one short step
    report = sim.consensus_report(aug, replace(cfg, method="rk4"), [33.333])
    assert report.horizons.tolist() == [33.333]
    assert np.all(np.isfinite(report.per_element_error))


def test_exact_report_reads_horizons_off_the_grid():
    # the exact route evaluates each horizon itself, so sample_dt plays no
    # part: each element's error is the averaged flow on the initial error
    plant, real, aug = _make_system([1.0, 1.0, 1.0])
    rng = np.random.default_rng(41)
    obs0 = rng.standard_normal(real.state_dim)
    cfg = _config(real, 100.0, 0.01, plant_x=(0.8, 0.5), obs=obs0)
    horizons = [33.333, 77.7777]
    report = sim.consensus_report(aug, cfg, horizons)
    target, _ = observer.steady_vector(real, plant, 0.8)
    for h, errors in zip(horizons, report.per_element_error):
        averaged = time_average_integral(real.hamiltonian, h) / h
        want = np.abs(real.readout @ averaged @ (obs0 - target))
        assert np.max(np.abs(errors - want)) <= 1e-12


def test_consensus_report_flags_detuned_chain():
    plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
    real = observer.build_observer(
        plant, [1.0, 1.0, 1.0], omega_override=[2.0, 2.0, 1.0 + 5e-3]
    )
    aug = observer.assemble_augmented(real, plant)
    cfg = _config(real, 100.0, 0.05)
    report = sim.consensus_report(aug, cfg, [1e3, 5e3])
    assert not report.passed
    assert np.max(report.per_element_error[-1] / report.trajectory_envelope[-1]) > 1.5


def test_a_small_alpha_chain_keeps_its_envelope(tmp_path):
    # readout row i has norm 1/|alpha|, so the per-element envelope is
    # C/T ||r_i|| ||err0|| + floor; without ||r_i|| this chain reads 2.63
    config = tmp_path / "small_alpha.json"
    config.write_text(json.dumps({
        "plant": {"alpha": [0.05, 0.0]}, "chain": {"mu": [1.0, 1.0, 1.0]},
        "initial": {"plant": [1.0, 0.0], "observer": "zero"}, "horizons": [10.0, 100.0],
    }))
    out = tmp_path / "report.json"
    assert cli.main(["simulate", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    ratio = np.divide(report["per_element_error"], report["trajectory_envelope"])
    assert np.max(ratio) == pytest.approx(0.1317, abs=1e-4)


def test_design_chains_never_break_their_envelope():
    """A seeded census of design chains: N <= 30, gains 10^+-1, |alpha| 10^+-3,
    a zero or random initial observer and three horizons between 1 and 1000."""
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 31))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        alpha = 10.0 ** rng.uniform(-3, 3) * np.array([np.cos(theta), np.sin(theta)])
        plant, real, aug = _make_system(10.0 ** rng.uniform(-1, 1, n), alpha)
        obs = rng.standard_normal(2 * n) if rng.random() < 0.5 else None
        horizons = np.sort(10.0 ** rng.uniform(0, 3, 3))
        cfg = _config(real, horizons[-1], 0.01, rng.standard_normal(2), obs)
        report = sim.consensus_report(aug, cfg, horizons)
        assert report.passed
        worst = max(worst, np.max(report.per_element_error / report.trajectory_envelope))
    assert 0.5 < worst <= 1.0


def test_rk4_reads_design_chains_at_their_default_step():
    """A seeded census of design chains on the rk4 route: N <= 10, gains in
    [1, 10], the default sample_dt and horizons 10 and 100, which that step
    seldom divides.  Each off-grid horizon takes one short step, so no run
    is refused, and none raises."""
    rng = np.random.default_rng(30)
    off = 0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        _, real, aug = _make_system(rng.uniform(1.0, 10.0, n))
        dt = sim.default_sample_dt(real.omega)
        cfg = _config(real, 100.0, dt, rng.standard_normal(2), method="rk4")
        off += not sim._grid_steps(10.0, dt)[1]
        report = sim.consensus_report(aug, cfg, [10.0, 100.0])
        assert np.all(np.isfinite(report.per_element_error))
    assert off >= 25


def test_rk4_census_at_any_plant_gain_matches_the_exact_route():
    """A seeded census of 60 design chains on the rk4 route: N <= 10, gains
    10^+-1, |alpha| 10^+-3, the default sample_dt and horizons 10 and 100.
    In the plant frame z stays put at any |alpha|, so none raises, every
    verdict is the exact route's, and each element's error is within 2 % of
    its trajectory envelope of the exact one.  The worst, 1.3 %, is RK4's
    phase error at the default step on an N = 1 chain at T = 100."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 11))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        alpha = 10.0 ** rng.uniform(-3, 3) * np.array([np.cos(theta), np.sin(theta)])
        _, real, aug = _make_system(10.0 ** rng.uniform(-1, 1, n), alpha)
        obs = rng.standard_normal(2 * n) if rng.random() < 0.5 else None
        dt = sim.default_sample_dt(real.omega)
        cfg = _config(real, 100.0, dt, rng.standard_normal(2), obs, method="rk4")
        stepped = sim.consensus_report(aug, cfg, [10.0, 100.0])
        exact = sim.consensus_report(aug, replace(cfg, method="exact"), [10.0, 100.0])
        assert stepped.z_p == exact.z_p
        assert stepped.passed == exact.passed
        gap = np.abs(stepped.per_element_error - exact.per_element_error)
        worst = max(worst, np.max(gap / exact.trajectory_envelope))
    assert worst <= 0.02


# ---------------------------------------------------------------------------
# CSV output


def _table_stream(table):
    """``N`` and the tasks of ``table``'s rows (``t, z_p``, then ``N`` pairs)."""
    n = (table.shape[1] - 2) // 2
    rows = sim._chunk_rows(n)
    chunks = [table[i : i + rows] for i in range(0, len(table), rows)]
    return n, [lambda c=c: c for c in chunks]


def test_csv_layout_and_round_trip(tmp_path):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 10.0, 0.1, plant_x=(0.3, 0.9))
    series = sim.simulate(aug, cfg)
    path = tmp_path / "run.csv"
    sim.write_timeseries_csv(aug, cfg, path)
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
    sim.write_timeseries_csv(aug, cfg, path, stride=40)
    lines = path.read_text().splitlines()
    # header + samples 0, 40, 80 + forced final sample 100
    assert len(lines) == 5
    assert float(lines[-1].split(",")[0]) == 10.0
    with pytest.raises(ValueError):
        sim.simulate(aug, cfg, stride=0)
    unwritten = tmp_path / "unwritten.csv"
    with pytest.raises(ValueError):
        sim.write_timeseries_csv(aug, cfg, unwritten, stride=0)
    assert not unwritten.exists()


def test_memory_budget_refuses_before_allocating(monkeypatch):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 100.0, 0.01)
    # 10001 rows; 8 columns of readouts, averages and times, 16 with states
    monkeypatch.setattr(sim, "MAX_SERIES_BYTES", 8 * 10001 * 8)
    assert sim.simulate(aug, cfg).times.size == 10001
    with pytest.raises(ValueError, match="10001 samples of a chain with N = 3"):
        sim.simulate(aug, cfg, keep_states=True)
    # rk4 streams its grid, so only the rows it keeps count
    with pytest.raises(ValueError, match="over the limit of 640064"):
        sim.simulate(aug, replace(cfg, method="rk4"), keep_states=True)
    assert sim.simulate(aug, replace(cfg, method="rk4"), stride=100).times.size == 101
    assert sim.simulate(aug, cfg, keep_states=True, stride=4).times.size == 2501


def test_exact_report_has_no_sample_cap(monkeypatch):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 2e5, 0.01, plant_x=(0.3, 0.9))  # 20,000,001 samples
    report = sim.consensus_report(aug, cfg, [2e3, 2e4, 2e5])
    assert report.passed
    assert report.horizons.tolist() == [2e3, 2e4, 2e5]

    # the stride-1 series (1.28 GB) is still refused by the byte budget,
    # before anything is evaluated or allocated
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a series over the budget")

    monkeypatch.setattr(sim, "MAX_SERIES_BYTES", 2**30)
    monkeypatch.setattr(sim, "_evaluate", no_evaluation)
    with pytest.raises(ValueError, match="20000001 samples of a chain with N = 3"):
        sim.simulate(aug, cfg)


def test_strided_series_rows_match_full_series(tmp_path):
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 10.0, 0.01, plant_x=(0.3, 0.9))
    full = tmp_path / "full.csv"
    strided = tmp_path / "strided.csv"
    sim.write_timeseries_csv(aug, cfg, full)
    sim.write_timeseries_csv(aug, cfg, strided, stride=7)
    full_rows = np.loadtxt(full, delimiter=",", skiprows=1)
    strided_rows = np.loadtxt(strided, delimiter=",", skiprows=1)
    keep = list(range(0, 1001, 7)) + [1000]
    assert strided_rows.shape == (len(keep), 8)
    assert np.max(np.abs(strided_rows - full_rows[keep])) <= 1e-12


def test_stream_writes_in_the_memory_of_a_few_chunks(tmp_path, monkeypatch):
    # 100,001 rows of 22 values: the series alone would take 17.6 MB
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    _, real, aug = _make_system(np.linspace(0.5, 1.5, 10))
    cfg = _config(real, 1000.0, 0.01, plant_x=(0.3, 0.9))
    path = tmp_path / "stream.csv"
    tracemalloc.start()
    try:
        sim.write_timeseries_csv(aug, cfg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == 100002
    assert peak <= 12e6


@pytest.mark.parametrize("n, horizon", [(1, 1000.0), (100, 100.0)])
def test_stream_memory_at_one_and_a_hundred_elements(tmp_path, monkeypatch, n, horizon):
    # a kernel call takes a whole chunk: 65,536 values at N = 1, the most of
    # any chain, and 32,926 at N = 100, against 36,036 at N = 10
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    _, real, aug = _make_system(np.linspace(0.5, 1.5, n))
    cfg = _config(real, horizon, 0.01, plant_x=(0.3, 0.9))
    path = tmp_path / "stream.csv"
    tracemalloc.start()
    try:
        sim.write_timeseries_csv(aug, cfg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == round(horizon / 0.01) + 2
    assert peak <= 20e6


def test_rk4_stream_writes_in_the_memory_of_a_few_chunks(tmp_path, monkeypatch):
    # the rk4 route steps as its chunks are pulled, so, like the exact
    # route, it never holds the 17.6 MB series
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    _, real, aug = _make_system(np.linspace(0.5, 1.5, 10))
    cfg = _config(real, 1000.0, 0.01, plant_x=(0.3, 0.9), method="rk4")
    path = tmp_path / "stream.csv"
    tracemalloc.start()
    try:
        sim.write_timeseries_csv(aug, cfg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == 100002
    assert peak <= 12e6


def test_rk4_drift_failure_mid_stream_leaves_no_file_and_no_thread(
    tmp_path, monkeypatch
):
    # y = 2 dt max|lam| = 2.854 is just past RK4's stability limit 2 sqrt(2):
    # |R(iy)|^2 = 1 - y^6/72 + y^8/576 = 1.135, so the state overflows a
    # few 4096-row chunks into the run
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    baseline = threading.active_count()
    _, real, aug = _make_system(34.0 * np.linspace(0.5, 1.5, 4), alpha=(0.6, 0.8))
    assert 2.83 < 2 * 0.01 * np.max(real.hamiltonian.lam) < 2.86
    cfg = _config(real, 1000.0, 0.01, plant_x=(0.3, 0.9), method="rk4")
    written = []

    def counted(task):
        def run():
            block = task()
            written.append(block[0, 0])
            return block

        return run

    tasks = sim._tasks
    monkeypatch.setattr(sim, "_tasks", lambda *args: map(counted, tasks(*args)))
    path = tmp_path / "drifting.csv"
    with pytest.raises(IntegratorAccuracyError, match="the rk4 state overflows past step"):
        sim.write_timeseries_csv(aug, cfg, path)
    assert 0 < len(written) < -(-100001 // sim._chunk_rows(4))
    assert not path.exists()
    assert threading.active_count() == baseline


def test_one_chunk_export_starts_no_thread(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool for one chunk")

    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    _, real, aug = _make_system([1.0, 1.0, 1.0])
    cfg = _config(real, 10.0, 0.01)
    path = tmp_path / "one.csv"
    sim.write_timeseries_csv(aug, cfg, path, stride=5)
    assert path.read_bytes().count(b"\n") == 202


def test_block_writer_matches_per_value_format(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    table = np.array(
        [
            [0.0, -0.0, 1e-300, 1e300, 3.0, -7.0],
            [0.1, 2.0, -1e300, -1e-300, 1.0 / 3.0, 12345678901234567.0],
            [1e-3, 5e-324, -2.5, 0.0, -0.0, 42.0],
        ]
    )
    # 18,000 rows: two chunks of 8,192 and a short last one, so a thread's
    # scratch is reused, once for a shorter call
    table = np.tile(table, (6000, 1))
    assert len(table) % sim._chunk_rows(2) and len(table) > 2 * sim._chunk_rows(2)
    path = tmp_path / "block.csv"
    sim._write_csv(*_table_stream(table), path)
    lines = ["t,z_p,z_o_1,z_o_2,avg_z_o_1,avg_z_o_2"]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in table]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_export_formats_each_chunk_in_one_kernel_call(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    calls = []

    def counted(values, seps, scratch):
        calls.append(values.shape)  # list.append holds the interpreter lock
        return _fmt17._format_17g(values, seps, scratch)

    monkeypatch.setattr(sim, "_format_17g", counted)
    _, real, aug = _make_system(np.linspace(0.5, 1.5, 10))
    sim.write_timeseries_csv(aug, _config(real, 100.0, 0.01), tmp_path / "run.csv")
    rows = sim._chunk_rows(10)  # 10,001 rows: six chunks of 1,638 and one of 173
    assert sorted(calls) == [(173, 22)] + [(rows, 22)] * 6



# ---------------------------------------------------------------------------
# the exact %.17g kernel of the CSV writer


def _used_scratch(size):
    """A scratch for ``size`` values that has already formatted other values.

    The block it formatted mixes every layout group, the longest fixed and
    fallback texts, zeros and non-finite values, so stale bytes would show.
    """
    rng = np.random.default_rng(size)
    kinds = [
        -1.2345678901234567e-308, -1.2345678901234567e16, -0.00012345678901234567,
        -1.2345678901234567, 0.0, -0.0, np.nan, -np.inf, 5e-324,
    ]
    block = rng.choice(kinds, size) * 10.0 ** rng.integers(-4, 17, size)
    scratch = _fmt17._Scratch(size)
    _assert_formats_like_percent(block, scratch)
    return scratch


def _assert_formats_like_percent(values, scratch=None):
    values = np.asarray(values, dtype=float).ravel()
    if scratch is None:
        scratch = _used_scratch(values.size)
    seps = np.full(values.size, ord(","), dtype=np.uint8)
    out = _fmt17._format_17g(values, seps, scratch).tobytes()
    assert out.split(b",") == [b"%.17g" % v for v in values.tolist()] + [b""]


def _ulps_around_powers_of_ten():
    """+-20 ulps around every power of ten from 1e-6 to 1e18."""
    bits = np.array([float(f"1e{m}") for m in range(-6, 19)]).view(np.int64)
    return (bits[:, None] + np.arange(-20, 21)).ravel().view(np.float64)


def _halfway_ties():
    """Doubles exactly halfway between two 17-digit decimals, from 1e-4 to 1e16.

    ``x 10^(16-k)`` is an odd multiple of 1/2 for ``x = o / 2^(17-k)`` with
    ``o`` odd, so both rounding directions of a tie occur.
    """
    rng = np.random.default_rng(5)
    ties = []
    for k in range(-4, 16):
        scale = 2 ** (17 - k)
        lo, hi = 10.0**k * scale, min(10.0 ** (k + 1) * scale, 2.0**53)
        ties += [(o | 1) / scale for o in rng.integers(int(lo), int(hi), 200).tolist()]
    for x in ties:
        num, den = x.as_integer_ratio()
        scaled = num * 10 ** (16 - int(("%.16e" % x).split("e")[1]))
        assert 2 * scaled % den == 0 and scaled % den != 0, x
    return ties


_EDGE_VALUES = {
    "powers of ten": _ulps_around_powers_of_ten(),
    "halfway ties": _halfway_ties(),
    # the nearest any double comes to rounding up to a power of ten
    "below powers of ten": [np.nextafter(float(f"1e{m}"), 0.0) for m in range(-8, 25)],
    "zeros, subnormals, extremes": [
        0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-300,
        1e300, 1.7976931348623157e308, 9.999999999999999e-05, 1e-4, 1e17,
        99999999999999984.0,
    ],
    # a block with nothing for the kernel: every value takes the % fallback
    "fallback only": [
        5e-324, 1e-300, 3.3e-05, 9.999999999999999e-05, 1e17, 1.25e20, 1e300,
    ],
    "every layout group": [
        m * 10.0**k
        for k in range(-4, 17)
        for m in (1.0, 1.5, 1.2345678901234567, 9.87654321, 3.0000000000000004)
    ],
}


@pytest.mark.parametrize("name", sorted(_EDGE_VALUES))
def test_format_kernel_matches_percent_format_on_edges(name):
    values = np.asarray(_EDGE_VALUES[name], dtype=float)
    _assert_formats_like_percent(np.concatenate([values, -values]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_format_kernel_matches_percent_format_on_floats(values):
    _assert_formats_like_percent(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_format_kernel_matches_percent_format_on_bit_patterns(bits):
    _assert_formats_like_percent(np.array(bits, dtype=np.uint64).view(np.float64))


def _in_range_block(size, seed):
    """``size`` values with ``1e-4 <= |v| < 1e17``: both signs, every layout group."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size)
    return signs * rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-4, 17, size)


def test_reused_scratch_leaks_no_stale_bytes():
    scratch = _fmt17._Scratch(2**15)
    blocks = [
        _in_range_block(2**15, 7),
        _EDGE_VALUES["fallback only"],
        [3.0],
        [np.inf, np.nan, -0.0, 5e-324],
    ]
    for block in blocks:
        _assert_formats_like_percent(block, scratch)


def test_kernel_allocates_little_with_a_warm_scratch():
    # the sort key and order take 9 bytes per value and the text about 20; a
    # kernel that made its temporaries afresh would take over 130
    values = _in_range_block(2**15, 8)
    seps = np.full(values.size, ord(","), dtype=np.uint8)
    scratch = _fmt17._Scratch(values.size)
    _fmt17._format_17g(values, seps, scratch)
    tracemalloc.start()
    try:
        _fmt17._format_17g(values, seps, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * values.size


def test_threads_with_their_own_scratch_format_the_serial_bytes():
    fallback = np.asarray(_EDGE_VALUES["fallback only"])
    blocks = [
        np.concatenate([_in_range_block(2**13, seed), fallback, [0.0, -0.0]])
        for seed in range(4)  # four threads, more than the writer ever starts
    ]
    seps = np.full(blocks[0].size, ord(","), dtype=np.uint8)
    want = [
        _fmt17._format_17g(b, seps, _fmt17._Scratch(b.size)).tobytes() for b in blocks
    ]
    got = [[] for _ in blocks]

    def work(j):
        scratch = _fmt17._Scratch(blocks[j].size)
        for _ in range(5):
            got[j].append(_fmt17._format_17g(blocks[j], seps, scratch).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(blocks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]


def test_csv_writer_raises_no_warnings(tmp_path):
    table = np.array([[0.0, -0.0, 5e-324, 1e300], [np.inf, np.nan, -1e-310, -2.5]])
    path = tmp_path / "extremes.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim._write_csv(*_table_stream(table), path)
    rows = [",".join("%.17g" % v for v in row) for row in table.tolist()]
    assert path.read_text().splitlines()[1:] == rows
