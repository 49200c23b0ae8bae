"""Trajectory simulation and consensus reporting for the augmented system.

The augmented drift is *not* diagonalizable: the plant quadrature conjugate to
the observed one grows linearly in time (a genuine Jordan block at eigenvalue
zero), so naive spectral propagation and long sequential stepping both lose
accuracy over the horizons of interest (1e4 time units and beyond).  The
default simulation route instead exploits the exact structure of the closed
loop:

* the plant observable ``z`` is a conserved quantity of the augmented drift,
  identically along every trajectory;
* the observer chain is driven by the constant ``z`` and splits into a steady
  offset plus an error governed by the conservative chain flow, which is
  evaluated spectrally without drift;
* the plant state is recovered by integrating the observer trajectory in
  closed form.

Every sample, and every running time average, is therefore exact to
rounding at any horizon, and only the times a caller reads are evaluated.  A
fixed-step RK4 route over the raw augmented drift, with trapezoidal running
averages, is available as an independent diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    ConvergenceCertificate,
    convergence_certificate,
    observer_hamiltonian,
    time_average_integral,
)
from .core import build_symplectic
from .errors import IntegratorAccuracyError
from .observer import AugmentedSystem, ObserverRealization, steady_vector

#: Hard cap on the number of stored samples in one simulation.
MAX_SAMPLES = 10_000_001

#: Largest float64 sample storage, in bytes, that one simulation may hold.
MAX_SERIES_BYTES = 2 * 2**30

#: Largest default sample step.
DEFAULT_DT_CAP = 0.01

#: Relative tolerance on conservation of the plant observable.
Z_DRIFT_TOL = 1e-9

#: Phase-table entries (samples times chain elements) evaluated per chunk.
#: A 256 KB table keeps each chunk's temporaries cache-sized and reusable.
_CHUNK_ENTRIES = 2**14

#: Rows formatted per write of a CSV export.
_CSV_BLOCK_ROWS = 4096

#: Steps per block of RK4 power stepping.
_RK4_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Initial conditions and sampling grid for one run.

    ``method`` selects the trajectory route: ``"exact"`` (structured spectral
    evaluation, the default) or ``"rk4"`` (fixed-step diagnostic integrator).
    """

    initial_plant: np.ndarray
    initial_observer: np.ndarray
    horizon_T: float
    sample_dt: float
    method: str = "exact"

    def __post_init__(self):
        xp = np.asarray(self.initial_plant, dtype=float)
        xo = np.asarray(self.initial_observer, dtype=float)
        if xp.shape != (2,):
            raise ValueError("initial_plant must be a length-2 vector")
        if xo.ndim != 1 or xo.size < 2 or xo.size % 2 != 0:
            raise ValueError("initial_observer must be 1-D with even positive length")
        if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(xo))):
            raise ValueError("initial conditions must be finite")
        if not self.horizon_T > 0:
            raise ValueError("horizon_T must be positive")
        if not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive")
        if not self.sample_dt < self.horizon_T:
            raise ValueError("sample_dt must be smaller than horizon_T")
        if self.method not in ("exact", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if round(self.horizon_T / self.sample_dt) + 1 > MAX_SAMPLES:
            raise ValueError(
                f"grid would exceed {MAX_SAMPLES} samples; increase sample_dt"
            )
        object.__setattr__(self, "initial_plant", xp)
        object.__setattr__(self, "initial_observer", xo)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_T / self.sample_dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.sample_dt


def default_sample_dt(omega) -> float:
    """A sample step resolving the fastest detuning, capped at ``DEFAULT_DT_CAP``."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    fastest = float(np.max(np.abs(om))) if om.size else 0.0
    if fastest <= 0.0:
        return DEFAULT_DT_CAP
    return min(DEFAULT_DT_CAP, 0.1 / fastest)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled readouts of one augmented-system run.

    ``z_p`` is the plant observable (constant up to rounding), ``z_o`` the
    per-element instantaneous estimates, ``running_avg_z_o`` their time
    averages from 0 to each sample: exact on the ``exact`` route, trapezoidal
    over the full step grid on the ``rk4`` route.  ``states`` holds the full
    augmented state only when requested.
    """

    times: np.ndarray
    z_p: np.ndarray
    z_o: np.ndarray
    running_avg_z_o: np.ndarray
    z_p_drift: float
    method: str
    states: np.ndarray | None = None

    @property
    def n_elements(self) -> int:
        return self.z_o.shape[1]


def running_average(times, values) -> np.ndarray:
    """Trapezoidal running time-average of sampled values.

    ``avg[k] = (1/t_k) * integral_0^{t_k} v dt`` with ``avg[0] = v[0]``.
    Accepts ``(T,)`` or ``(T, k)`` values and preserves the shape.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    if t.ndim != 1 or v.shape[0] != t.size:
        raise ValueError("values must have one row per time sample")
    increments = 0.5 * (v[1:] + v[:-1]) * np.diff(t)[:, None]
    cum = np.vstack([np.zeros((1, v.shape[1])), np.cumsum(increments, axis=0)])
    avg = np.empty_like(cum)
    avg[0] = v[0]
    avg[1:] = cum[1:] / t[1:, None]
    return avg[:, 0] if squeeze else avg


def _sample_indices(n_samples: int, stride: int) -> np.ndarray:
    """Every ``stride``-th sample index, always ending with the final one."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    idx = np.arange(0, n_samples, stride)
    if idx[-1] != n_samples - 1:
        idx = np.append(idx, n_samples - 1)
    return idx


def _check_drift(drift: float, z_p0: float) -> None:
    tol = Z_DRIFT_TOL * (1.0 + abs(z_p0))
    if drift > tol:
        raise IntegratorAccuracyError(
            f"plant observable drifted by {drift:.3e} over the run "
            f"(tolerance {tol:.3e})",
            drift=drift,
        )


def simulate(
    augmented: AugmentedSystem,
    config: SimulationConfig,
    keep_states: bool = False,
    stride: int = 1,
) -> TimeSeries:
    """Run the augmented system and return sampled readouts.

    The series holds every ``stride``-th sample of the ``sample_dt`` grid
    plus the final one.  The default exact route evaluates only those
    samples and never accumulates integration error; the ``rk4`` route steps
    the raw augmented drift over the full grid with classical RK4 and keeps
    the same samples.  Both routes verify that the plant observable stayed
    within ``Z_DRIFT_TOL * (1 + |z(0)|)`` over the whole run and raise
    otherwise.

    Raises
    ------
    ValueError
        If the samples the route holds (times, readouts and averages, plus
        the full state for ``keep_states`` or ``rk4``) would exceed
        ``MAX_SERIES_BYTES``; the rk4 route holds its full step grid.
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    realization = augmented.realization
    if config.initial_observer.size != realization.state_dim:
        raise ValueError(
            f"initial_observer has length {config.initial_observer.size}, "
            f"chain needs {realization.state_dim}"
        )
    idx = _sample_indices(config.n_steps + 1, stride)
    n = realization.n_elements
    rk4 = config.method == "rk4"
    rows = config.n_steps + 1 if rk4 else idx.size
    columns = 2 + 2 * n + (2 + 2 * n if keep_states or rk4 else 0)
    if 8 * rows * columns > MAX_SERIES_BYTES:
        raise ValueError(
            f"{rows} samples of a chain with N = {n} would hold "
            f"{8 * rows * columns} bytes, over the limit of {MAX_SERIES_BYTES}; "
            "increase sample_dt or csv_stride, or shorten the horizons"
        )
    times = idx * config.sample_dt
    x0 = np.concatenate([config.initial_plant, config.initial_observer])
    z_p0 = float(augmented.plant_readout @ x0)

    if rk4:
        states = _rk4_loop(
            augmented.drift, x0, float(config.sample_dt), config.n_steps
        )
        z_p = states @ augmented.plant_readout
        z_o = states @ augmented.observer_readout.T
        drift = float(np.max(np.abs(z_p - z_p0)))
        _check_drift(drift, z_p0)
        avg = running_average(config.times(), z_o)[idx]
        z_p, z_o = z_p[idx], z_o[idx]
        kept = states[idx] if keep_states else None
    else:
        z_p, z_o, avg, kept, drift = _exact_series(
            augmented, config, times, keep_states
        )
        _check_drift(drift, z_p0)
    return TimeSeries(
        times=times,
        z_p=z_p,
        z_o=z_o,
        running_avg_z_o=avg,
        z_p_drift=drift,
        method=config.method,
        states=kept,
    )


def _rk4_loop(A, x0, dt, n_steps):
    """Fixed-step classical RK4 for ``dx/dt = A x``; returns all samples.

    On a linear drift one RK4 step is exactly ``x -> M x`` with ``M`` the
    degree-4 Taylor polynomial of ``exp(A dt)``.  The powers ``M^0..M^{B-1}``
    are stacked once, so each block of ``B`` samples is one product with the
    block's first state, which then advances by ``M^B``.
    """
    n = x0.shape[0]
    eye = np.eye(n)
    hA = dt * A
    M = eye + hA @ (eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0)))
    B = min(_RK4_BLOCK, n_steps + 1)
    pows = np.empty((B, n, n))
    pows[0] = eye
    for b in range(1, B):
        pows[b] = M @ pows[b - 1]
    step_block = M @ pows[B - 1]
    stacked = pows.reshape(B * n, n)
    out = np.empty((n_steps + 1, n))
    x = np.array(x0, dtype=float)
    for start in range(0, n_steps + 1, B):
        k = min(B, n_steps + 1 - start)
        out[start : start + k] = (stacked[: k * n] @ x).reshape(k, n)
        x = step_block @ x
    return out


def _exact_series(augmented, config, times, keep_states):
    """Structured exact evaluation; see the module docstring for the split.

    In the chain amplitudes ``a = q + i p`` the error is ``a(t) = M exp(-2i
    lam t)`` with ``M = ObserverHamiltonian.modes(err0)``, and its
    antiderivative replaces each phase by ``(1 - phase) / (2i lam)``.  A real
    row ``r`` reads ``r . x = Re(r_c . a)`` with ``r_c = r[0::2] - i r[1::2]``,
    so the readouts, their antiderivatives and the plant quadratures are
    projected onto the modes first and each chunk of ``times`` evaluates one
    phase table for all of them.  The running average at ``t > 0`` is the
    readouts' antiderivative over ``t``; at ``t = 0`` it is the readout.

    Returns ``z_p, z_o, avg, states, drift`` at ``times``.  ``drift`` is the
    larger of the drift seen at ``times`` and a bound on ``|z_p(t) - z_p(0)|``
    over all of ``[0, max(times)]``: ``z_p`` moves by ``(alpha . rate) t``
    plus ``Re(c_k (e^{-2i lam_k t} - 1))`` per mode, each at most ``2 |c_k|``.
    """
    realization = augmented.realization
    n = realization.n_elements
    x_p0 = config.initial_plant
    alpha = augmented.plant.alpha
    z_p0 = float(alpha @ x_p0)

    try:
        steady = np.linalg.solve(
            realization.drift, -realization.input_vector * z_p0
        )
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "chain drift is singular; the driven steady offset does not exist"
        ) from exc
    err0 = config.initial_observer - steady
    ham = observer_hamiltonian(realization.mu, realization.omega)
    lam = ham.lam
    modes = ham.modes(err0)

    def project(rows):
        return (rows[:, 0::2] - 1j * rows[:, 1::2]) @ modes

    plant_gain = augmented.drift[0:2, 2:]
    rate = plant_gain @ steady  # constant plant velocity at the steady offset
    readout_w = project(realization.readout)
    # antiderivatives, less their constants
    integral_w = -readout_w / (2j * lam)
    plant_w = -project(plant_gain) / (2j * lam)
    integral_base = -integral_w.real.sum(axis=1)
    x_p_base = x_p0 - plant_w.real.sum(axis=1)
    # Re(w . phase) for all rows at once: the interleaved real view of the
    # phase table times the real rows (Re w, -Im w) per mode.
    rows = np.vstack([readout_w, integral_w, plant_w])
    weights = np.empty((2 * n, 2 * n + 2))
    weights[0::2] = rows.real.T
    weights[1::2] = -rows.imag.T

    T = times.size
    z_p = np.empty(T)
    z_o = np.empty((T, n))
    avg = np.empty((T, n))
    kept = np.empty((T, 2 + realization.state_dim)) if keep_states else None
    z_o_steady = realization.readout @ steady
    chunk = max(1, _CHUNK_ENTRIES // n)

    for start in range(0, T, chunk):
        tt = times[start : start + chunk]
        sl = slice(start, start + tt.size)
        phases = np.exp(np.outer(tt, -2j * lam))  # (samples, n)
        values = phases.view(np.float64) @ weights
        x_p = x_p_base + rate * tt[:, None] + values[:, 2 * n :]
        z_p[sl] = x_p @ alpha
        z_o[sl] = z_o_steady + values[:, :n]
        with np.errstate(divide="ignore", invalid="ignore"):
            avg[sl] = z_o_steady + (integral_base + values[:, n : 2 * n]) / tt[:, None]
        if keep_states:
            kept[sl, 0:2] = x_p
            kept[sl, 2:] = steady + (phases @ modes.T).view(np.float64)
    at_zero = times == 0.0
    avg[at_zero] = z_o[at_zero]

    c = alpha @ plant_w
    bound = abs(float(alpha @ rate)) * float(np.max(times)) + 2.0 * float(
        np.sum(np.abs(c))
    )
    drift = max(bound, float(np.max(np.abs(z_p - z_p0))))
    return z_p, z_o, avg, kept, drift


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Measured consensus errors against their certified envelopes.

    ``per_element_error[h, i]`` is the deviation of element ``i``'s running
    average from the plant observable at ``horizons[h]``;
    ``certificate_envelope`` holds the raw ``C/T`` values at the same
    horizons, and ``trajectory_envelope`` scales them by the initial error
    norm (plus a rounding floor) to bound the per-element errors.
    ``matrix_residual`` is the exact norm of the averaged readout-deviation
    operator, bounded by ``C/T`` times the readout norm, and ``slope`` the
    fitted log-log decay rate of that residual (NaN, and ``null`` in
    :meth:`to_dict`, when there is nothing to fit).
    """

    horizons: np.ndarray
    z_p: float
    z_p_drift: float
    per_element_error: np.ndarray
    trajectory_envelope: np.ndarray
    matrix_residual: np.ndarray
    certificate_envelope: np.ndarray
    slope: float
    certificate: ConvergenceCertificate
    method: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "horizons": [float(h) for h in self.horizons],
            "z_p": self.z_p,
            "z_p_drift": self.z_p_drift,
            "per_element_error": self.per_element_error.tolist(),
            "trajectory_envelope": self.trajectory_envelope.tolist(),
            "matrix_residual": self.matrix_residual.tolist(),
            "certificate_envelope": self.certificate_envelope.tolist(),
            "slope": self.slope if np.isfinite(self.slope) else None,
            "certificate": {
                "lambda_min": self.certificate.lambda_min,
                "lambda_max": self.certificate.lambda_max,
                "exp_bound": self.certificate.exp_bound,
                "avg_constant": self.certificate.avg_constant,
            },
            "method": self.method,
            "passed": self.passed,
        }


def consensus_report(
    augmented: AugmentedSystem,
    realization: ObserverRealization,
    config: SimulationConfig,
    horizons,
) -> ConsensusReport:
    """Measure consensus convergence at several horizons and check envelopes.

    Compares each element's running average at every horizon against the
    plant observable, and checks both those errors and the exactly-evaluated
    averaged deviation operator against the ``C/T`` certificate.  The exact
    route evaluates the averages at the horizons alone; the ``rk4`` route
    steps the full grid out to the largest horizon.

    Every requested horizon must land on the sample grid.

    Raises
    ------
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs <= 0) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be positive and strictly increasing")
    run_cfg = replace(config, horizon_T=float(hs[-1]))
    dt = run_cfg.sample_dt
    indices = []
    for h in hs:
        k = int(round(h / dt))
        if abs(k * dt - h) > 1e-9 * max(1.0, h):
            raise ValueError(f"horizon {h} does not land on the sample grid")
        indices.append(k)

    plant = augmented.plant
    z_p0 = float(plant.alpha @ config.initial_plant)
    if config.method == "rk4":
        series = simulate(augmented, run_cfg)
        averages = series.running_avg_z_o[indices]
        drift = series.z_p_drift
    else:
        times = np.array([0, *indices]) * dt
        _, _, avg, _, drift = _exact_series(augmented, run_cfg, times, False)
        _check_drift(drift, z_p0)
        averages = avg[1:]

    chain_form = build_symplectic(realization.n_elements)
    ham = observer_hamiltonian(realization.mu, realization.omega)
    cert = convergence_certificate(ham, chain_form)

    target, _ = steady_vector(realization, plant, z_p0, tol=None)
    err0_norm = float(np.linalg.norm(config.initial_observer - target))
    readout_norm = float(np.linalg.norm(realization.readout, 2))
    floor = 1e-12 * (1.0 + abs(z_p0))

    per_element = np.abs(averages - z_p0)
    traj_env = np.empty_like(per_element)
    mat_resid = np.empty(hs.size)
    cert_env = np.empty(hs.size)
    for j, h in enumerate(hs):
        cert_env[j] = cert.avg_constant / h
        traj_env[j] = cert_env[j] * err0_norm + floor
        averaged = time_average_integral(ham, chain_form, h) / h
        mat_resid[j] = np.linalg.norm(realization.readout @ averaged, 2)

    slope = float("nan")
    if hs.size >= 2 and np.all(mat_resid > 0):
        slope = float(np.polyfit(np.log10(hs), np.log10(mat_resid), 1)[0])

    passed = bool(
        np.all(per_element <= traj_env)
        and np.all(mat_resid <= cert_env * readout_norm * (1.0 + 1e-9))
    )
    return ConsensusReport(
        horizons=hs,
        z_p=z_p0,
        z_p_drift=drift,
        per_element_error=per_element,
        trajectory_envelope=traj_env,
        matrix_residual=mat_resid,
        certificate_envelope=cert_env,
        slope=slope,
        certificate=cert,
        method=config.method,
        passed=passed,
    )


def write_timeseries_csv(series: TimeSeries, path) -> None:
    """Write every sample of the series as CSV.

    Columns: ``t, z_p, z_o_1..z_o_N, avg_z_o_1..avg_z_o_N``.  Thin the rows
    with ``simulate(..., stride=k)``.  Values are formatted with 17
    significant digits so the file round-trips exactly; rows are formatted a
    block at a time.
    """
    n = series.n_elements
    header = (
        ["t", "z_p"]
        + [f"z_o_{i}" for i in range(1, n + 1)]
        + [f"avg_z_o_{i}" for i in range(1, n + 1)]
    )
    columns = (series.times, series.z_p, series.z_o, series.running_avg_z_o)
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, series.times.size, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([c[rows] for c in columns])
            f.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))
