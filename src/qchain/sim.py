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

Every sample is therefore exact to rounding, at any horizon.  A fixed-step
RK4 route over the raw augmented drift is available as an independent
diagnostic.
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

#: Relative tolerance on conservation of the plant observable.
Z_DRIFT_TOL = 1e-9

#: Phase-table entries (samples times chain elements) evaluated per chunk.
_CHUNK_ENTRIES = 2**21


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


def default_sample_dt(omega, cap: float = 0.01) -> float:
    """A sample step resolving the fastest detuning, capped at ``cap``."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    fastest = float(np.max(np.abs(om))) if om.size else 0.0
    if fastest <= 0.0:
        return cap
    return min(cap, 0.1 / fastest)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled readouts of one augmented-system run.

    ``z_p`` is the plant observable (constant up to rounding), ``z_o`` the
    per-element instantaneous estimates, ``running_avg_z_o`` their trapezoidal
    time averages from 0 to each sample.  ``states`` holds the full augmented
    state only when requested.
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


def simulate(
    augmented: AugmentedSystem, config: SimulationConfig, keep_states: bool = False
) -> TimeSeries:
    """Run the augmented system and return sampled readouts.

    The default exact route never accumulates integration error; the ``rk4``
    route steps the raw augmented drift with classical RK4.  Both routes
    verify that the plant observable stayed constant to within
    ``Z_DRIFT_TOL * (1 + |z(0)|)`` and raise otherwise.

    Raises
    ------
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    realization = augmented.realization
    if config.initial_observer.size != realization.state_dim:
        raise ValueError(
            f"initial_observer has length {config.initial_observer.size}, "
            f"chain needs {realization.state_dim}"
        )
    times = config.times()
    x0 = np.concatenate([config.initial_plant, config.initial_observer])
    z_p0 = float(augmented.plant_readout @ x0)

    if config.method == "rk4":
        states = _rk4_loop(
            augmented.drift, x0, float(config.sample_dt), config.n_steps
        )
        z_p = states @ augmented.plant_readout
        z_o = states @ augmented.observer_readout.T
        kept = states if keep_states else None
    else:
        z_p, z_o, kept = _exact_series(augmented, config, times, keep_states)

    drift = float(np.max(np.abs(z_p - z_p0)))
    if drift > Z_DRIFT_TOL * (1.0 + abs(z_p0)):
        raise IntegratorAccuracyError(
            f"plant observable drifted by {drift:.3e} over the run "
            f"(tolerance {Z_DRIFT_TOL * (1.0 + abs(z_p0)):.3e})",
            drift=drift,
        )
    avg = running_average(times, z_o)
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
    """Fixed-step classical RK4 for ``dx/dt = A x``; returns all samples."""
    n = x0.shape[0]
    out = np.empty((n_steps + 1, n))
    out[0, :] = x0
    x = x0.copy()
    for k in range(n_steps):
        k1 = A @ x
        k2 = A @ (x + 0.5 * dt * k1)
        k3 = A @ (x + 0.5 * dt * k2)
        k4 = A @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1, :] = x
    return out


def _exact_series(augmented, config, times, keep_states):
    """Structured exact evaluation; see the module docstring for the split.

    In the chain amplitudes ``a = q + i p`` the error is ``a(t) = M exp(-2i
    lam t)`` with ``M = ObserverHamiltonian.modes(err0)``, and its
    antiderivative replaces each phase by ``(1 - phase) / (2i lam)``.  A real
    row ``r`` reads ``r . x = Re(r_c . a)`` with ``r_c = r[0::2] - i r[1::2]``,
    so every readout and plant quadrature is projected onto the modes first
    and each chunk evaluates one phase table for all of them.
    """
    realization = augmented.realization
    n = realization.n_elements
    x_p0 = config.initial_plant
    z_p0 = float(augmented.plant.alpha @ x_p0)

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
    plant_w = -project(plant_gain) / (2j * lam)  # antiderivative, less its constant
    x_p_base = x_p0 - plant_w.real.sum(axis=1)
    # Re(w . phase) for all rows at once: the interleaved real view of the
    # phase table times the real rows (Re w, -Im w) per mode.
    rows = np.vstack([readout_w, plant_w])
    weights = np.empty((2 * n, n + 2))
    weights[0::2] = rows.real.T
    weights[1::2] = -rows.imag.T

    T = times.size
    z_p = np.empty(T)
    z_o = np.empty((T, n))
    kept = np.empty((T, 2 + realization.state_dim)) if keep_states else None
    z_o_steady = realization.readout @ steady
    alpha = augmented.plant.alpha
    chunk = max(1, _CHUNK_ENTRIES // n)

    for start in range(0, T, chunk):
        tt = times[start : start + chunk]
        sl = slice(start, start + tt.size)
        phases = np.exp(np.outer(tt, -2j * lam))  # (samples, n)
        values = phases.view(np.float64) @ weights
        x_p = x_p_base + rate * tt[:, None] + values[:, n:]
        z_p[sl] = x_p @ alpha
        z_o[sl] = z_o_steady + values[:, :n]
        if keep_states:
            kept[sl, 0:2] = x_p
            kept[sl, 2:] = steady + (phases @ modes.T).view(np.float64)
    return z_p, z_o, kept


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Measured consensus errors against their certified envelopes.

    ``per_element_error[h, i]`` is the deviation of element ``i``'s running
    average from the plant observable at ``horizons[h]``;
    ``certificate_envelope`` holds the raw ``C/T`` values at the same
    horizons, and ``trajectory_envelope`` scales them by the initial error
    norm (plus a rounding floor) to bound the sampled errors.
    ``matrix_residual`` is the exact norm of the averaged readout-deviation
    operator, bounded by ``C/T`` times the readout norm, and ``slope`` the
    fitted log-log decay rate of that residual.
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
            "slope": self.slope,
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
    series: TimeSeries | None = None,
) -> ConsensusReport:
    """Measure consensus convergence at several horizons and check envelopes.

    Simulates out to the largest horizon (or reuses a supplied series),
    compares each element's running average against the plant observable, and
    checks both the sampled errors and the exactly-evaluated averaged
    deviation operator against the ``C/T`` certificate.

    Every requested horizon must land on the sample grid.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs <= 0) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be positive and strictly increasing")
    run_cfg = replace(config, horizon_T=float(hs[-1]))
    if series is None:
        series = simulate(augmented, run_cfg)
    dt = series.times[1] - series.times[0]
    indices = []
    for h in hs:
        k = int(round(h / dt))
        if k >= series.times.size or abs(series.times[k] - h) > 1e-9 * max(1.0, h):
            raise ValueError(f"horizon {h} does not land on the sample grid")
        indices.append(k)

    plant = augmented.plant
    chain_form = build_symplectic(realization.n_elements)
    ham = observer_hamiltonian(realization.mu, realization.omega)
    cert = convergence_certificate(ham, chain_form)

    z_p0 = float(series.z_p[0])
    target, _ = steady_vector(realization, plant, z_p0, tol=None)
    err0_norm = float(np.linalg.norm(config.initial_observer - target))
    readout_norm = float(np.linalg.norm(realization.readout, 2))
    floor = 1e-12 * (1.0 + abs(z_p0))

    per_element = np.empty((hs.size, realization.n_elements))
    traj_env = np.empty_like(per_element)
    mat_resid = np.empty(hs.size)
    cert_env = np.empty(hs.size)
    for j, (h, k) in enumerate(zip(hs, indices)):
        cert_env[j] = cert.avg_constant / h
        per_element[j] = np.abs(series.running_avg_z_o[k] - z_p0)
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
        z_p_drift=series.z_p_drift,
        per_element_error=per_element,
        trajectory_envelope=traj_env,
        matrix_residual=mat_resid,
        certificate_envelope=cert_env,
        slope=slope,
        certificate=cert,
        method=series.method,
        passed=passed,
    )


def write_timeseries_csv(series: TimeSeries, path, stride: int = 1) -> None:
    """Write the sampled readouts as CSV.

    Columns: ``t, z_p, z_o_1..z_o_N, avg_z_o_1..avg_z_o_N``.  With a stride,
    every ``stride``-th sample is written and the final sample is always
    included.  Values are formatted with 17 significant digits so the file
    round-trips exactly.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n = series.n_elements
    idx = list(range(0, series.times.size, stride))
    if idx[-1] != series.times.size - 1:
        idx.append(series.times.size - 1)
    header = (
        ["t", "z_p"]
        + [f"z_o_{i}" for i in range(1, n + 1)]
        + [f"avg_z_o_{i}" for i in range(1, n + 1)]
    )
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for k in idx:
            row = [series.times[k], series.z_p[k]]
            row.extend(series.z_o[k])
            row.extend(series.running_avg_z_o[k])
            f.write(",".join(format(float(v), ".17g") for v in row) + "\n")
