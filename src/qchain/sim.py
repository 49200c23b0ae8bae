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
rounding at any horizon, and only the times a caller reads are evaluated.
The same split gives the whole propagator in closed form
(:func:`flow_matrix`), which ``qchain verify`` checks for commutation
preservation.  A fixed-step RK4 route over the raw augmented drift, with
trapezoidal running averages, is available as an independent diagnostic; it
steps in blocks and keeps only the rows a caller reads.

:func:`_tasks` is the one source of rows for both routes: it cuts the times
into chunks, lays out each chunk's block, sets the average at ``t = 0`` and
checks the drift of ``z``; a route only fills the columns of a block it is
given.  Every reader of the series goes through it, so a row has the same
bytes whichever reads it, and :func:`write_timeseries_csv` streams either
route.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from ._fmt17 import _format_17g, _Scratch
from .analysis import (
    ConvergenceCertificate,
    convergence_certificate,
    real_embedding,
    time_average_integral,
)
from .errors import IntegratorAccuracyError
from .observer import AugmentedSystem, steady_vector

#: Largest float64 sample storage, in bytes, that one :func:`simulate` may return.
MAX_SERIES_BYTES = 2 * 2**30

#: Most steps the rk4 route may take: it steps the whole grid, whatever it keeps.
MAX_RK4_STEPS = 10_000_000

#: Largest default sample step.
DEFAULT_DT_CAP = 0.01

#: Relative tolerance on conservation of the plant observable.
Z_DRIFT_TOL = 1e-9

#: Phase-table entries (samples times chain elements) evaluated per chunk.
#: A 256 KB table keeps each chunk's temporaries cache-sized and reusable.
_CHUNK_ENTRIES = 2**14

#: Threads that make and format the chunks of a CSV export: the CPUs this
#: process may run on, up to two.
if hasattr(os, "sched_getaffinity"):
    _CSV_WORKERS = min(2, len(os.sched_getaffinity(0)))
else:
    _CSV_WORKERS = min(2, os.cpu_count() or 1)

#: Most values per :func:`_format_17g` call, so about two per chunk.  Each
#: CSV worker's scratch takes 137 bytes per value of its largest call;
#: halving a chunk halves it, and smaller calls pay more interpreter time.
_FORMAT_VALUES = 2**15

#: Steps per block of RK4 power stepping.
_RK4_BLOCK = 256

#: Values (samples times yielded rows) per group of RK4 blocks: 64 KB.
_RK4_GROUP_ENTRIES = 2**13


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Initial conditions and sampling grid for one run.

    ``method`` selects the trajectory route: ``"exact"`` (structured spectral
    evaluation, the default) or ``"rk4"`` (fixed-step diagnostic integrator).
    The grid's rules are checked by :attr:`n_steps`, which every grid reader
    reads, so a run that reads only ``t = 0`` and the horizons needs no grid.
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
        if self.method not in ("exact", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "initial_plant", xp)
        object.__setattr__(self, "initial_observer", xo)

    @property
    def n_steps(self) -> int:
        """Steps of the ``sample_dt`` grid to ``horizon_T``.

        Raises ``ValueError`` unless ``sample_dt < horizon_T``, the steps are
        under ``2^62`` and, on the ``rk4`` route, at most ``MAX_RK4_STEPS``.
        """
        if not self.sample_dt < self.horizon_T:
            raise ValueError("sample_dt must be smaller than horizon_T")
        steps = self.horizon_T / self.sample_dt
        if not steps < 2.0**62:
            raise ValueError(
                "the sample grid has too many steps to index; increase sample_dt"
            )
        if self.method == "rk4" and round(steps) > MAX_RK4_STEPS:
            raise ValueError(
                f"the rk4 route would take over {MAX_RK4_STEPS} steps; "
                "increase sample_dt or use the exact method"
            )
        return int(round(steps))


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


def _chunk_rows(n: int) -> int:
    """Rows per chunk of ``n`` elements: about ``_CHUNK_ENTRIES`` phase-table entries."""
    return max(1, _CHUNK_ENTRIES // n)


def _columns(augmented, keep_states: bool) -> int:
    """Columns of a block: ``t, z_p, z_o, avg``, then the state for ``keep_states``."""
    n = augmented.realization.n_elements
    return 2 + 2 * n + (augmented.dim if keep_states else 0)


def _grid(config, stride: int):
    """``rows, times_of``: every ``stride``-th step of the grid, and its last.

    ``times_of(a, b)`` makes entries ``a..b-1``.  Raises ``ValueError`` as
    :attr:`SimulationConfig.n_steps` does, or if ``stride < 1``.
    """
    n_steps = config.n_steps
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = n_steps // stride + 1 + (n_steps % stride != 0)

    def times_of(a, b):
        return np.minimum(np.arange(a, b) * stride, n_steps) * config.sample_dt

    return rows, times_of


def _check_drift(drift: float, z_p0: float) -> None:
    """Raise unless ``drift <= Z_DRIFT_TOL * (1 + |z_p0|)``."""
    tol = Z_DRIFT_TOL * (1.0 + abs(z_p0))
    if drift > tol:
        raise IntegratorAccuracyError(
            f"plant observable drifted by {drift:.3e} over the run "
            f"(tolerance {tol:.3e})",
            drift=drift,
        )


def _tasks(augmented, config, times_of, count, keep_states):
    """The one source of a series' rows: a task per chunk of ``count`` times.

    ``times_of(a, b)`` returns the times ``a..b-1``, and the tasks come in
    order, one per ``_chunk_rows(N)`` times.  Each returns ``block, drift``:
    the chunk's columns (:func:`_columns`), with the average at ``t = 0`` the
    readout itself, and the largest ``|z_p - z_p(0)|`` up to its last time.
    A task raises :class:`IntegratorAccuracyError` if that drift exceeds
    ``Z_DRIFT_TOL * (1 + |z_p(0)|)``; on the exact route, whose bound
    covers every time, so does this call, before any task is pulled.
    Exact tasks may run on any thread.  The ``rk4`` route steps its grid in
    order as the tasks are pulled, so its times must be ascending grid
    samples.  Raises :class:`ValueError` if the initial observer state does
    not fit the chain.
    """
    state_dim = augmented.realization.state_dim
    if config.initial_observer.size != state_dim:
        raise ValueError(
            f"initial_observer has length {config.initial_observer.size}, "
            f"chain needs {state_dim}"
        )
    z_p0 = float(augmented.plant.alpha @ config.initial_plant)
    if config.method == "rk4":
        route = _Rk4Route(augmented, config, keep_states)
    else:
        route = _ExactRoute(augmented, config, z_p0, keep_states)
        _check_drift(route.bound, z_p0)
    n = augmented.realization.n_elements
    columns = _columns(augmented, keep_states)

    def task(start, stop):
        block = np.empty((stop - start, columns))
        block[:, 0] = times_of(start, stop)
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = route.fill(block)
        at_zero = block[:, 0] == 0.0
        block[at_zero, n + 2 : 2 * n + 2] = block[at_zero, 2 : n + 2]
        _check_drift(drift, z_p0)
        return block, drift

    size = _chunk_rows(n)
    tasks = (partial(task, a, min(a + size, count)) for a in range(0, count, size))
    if config.method == "rk4":
        return (lambda done=run(): done for run in tasks)  # run as pulled
    return tasks


def _evaluate(augmented, config, times, keep_states) -> TimeSeries:
    """The rows of :func:`_tasks` at ``times``, copied into one table as they are made.

    Raises as :func:`_tasks` and its tasks do.
    """
    tasks = _tasks(augmented, config, lambda a, b: times[a:b], times.size, keep_states)
    table = np.empty((times.size, _columns(augmented, keep_states)))
    start, drift = 0, 0.0
    for task in tasks:
        block, seen = task()
        table[start : start + len(block)] = block
        start += len(block)
        drift = max(drift, seen)
    n = augmented.realization.n_elements
    return TimeSeries(
        times=table[:, 0],
        z_p=table[:, 1],
        z_o=table[:, 2 : n + 2],
        running_avg_z_o=table[:, n + 2 : 2 * n + 2],
        z_p_drift=drift,
        method=config.method,
        states=table[:, 2 * n + 2 :] if keep_states else None,
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
        As :attr:`SimulationConfig.n_steps` does, if ``stride < 1``, or if
        the samples kept (times, readouts and averages, plus the full state
        for ``keep_states``) would exceed ``MAX_SERIES_BYTES``, all before
        anything is evaluated; or if the initial observer does not fit.
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    rows, times_of = _grid(config, stride)
    size = 8 * rows * _columns(augmented, keep_states)
    if size > MAX_SERIES_BYTES:
        raise ValueError(
            f"{rows} samples of a chain with N = {augmented.realization.n_elements} "
            f"would hold {size} bytes, over the limit of {MAX_SERIES_BYTES}; "
            "increase sample_dt or stride, or shorten horizon_T"
        )
    return _evaluate(augmented, config, times_of(0, rows), keep_states)


def states_at(augmented: AugmentedSystem, config: SimulationConfig, times):
    """Full augmented states at any ``times`` on the exact route.

    Returns an array of shape ``(len(times), augmented.dim)``.

    Raises
    ------
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    return _evaluate(augmented, replace(config, method="exact"), ts, True).states


def flow_matrix(augmented: AugmentedSystem, t: float) -> np.ndarray:
    """Closed-form propagator ``exp(A t)`` of the augmented drift ``A``.

    The split of :class:`_ExactRoute`, applied to every initial state at
    once.  With ``P(t)`` the chain flow, ``I(t)`` its integral over ``[0,
    t]`` (both real embeddings of the Jacobi-spectrum forms), ``G`` the
    plant's gain on the chain and ``s`` the steady offset per unit ``z``::

        E(t) = [[I_2 + G (s t - I s) alpha^T,  G I],
                [(s - P s) alpha^T,             P  ]]

    It needs a nonsingular chain (``lam != 0``), not a positive definite
    one.

    Raises
    ------
    ValueError
        If the chain drift is singular.
    """
    realization = augmented.realization
    ham = realization.hamiltonian
    s = _steady_offset(realization, 1.0)
    P = real_embedding(ham.propagator(t))
    integral = real_embedding(ham.integral(t))
    G = augmented.drift[0:2, 2:]
    alpha = augmented.plant.alpha
    E = np.empty((augmented.dim, augmented.dim))
    E[0:2, 0:2] = np.eye(2) + np.outer(G @ (s * float(t) - integral @ s), alpha)
    E[0:2, 2:] = G @ integral
    E[2:, 0:2] = np.outer(s - P @ s, alpha)
    E[2:, 2:] = P
    return E


def _rk4_blocks(A, x0, dt, n_steps, rows):
    """Fixed-step classical RK4 for ``dx/dt = A x``, yielding ``rows @ x``.

    On a linear drift one RK4 step is exactly ``x -> M x`` with ``M`` the
    degree-4 Taylor polynomial of ``exp(A dt)``.  The products
    ``rows M^0 .. rows M^{B-1}`` are stacked once, so each block of ``B``
    samples is one product with the block's first state, which then
    advances by ``M^B``; the blocks of a group share one product.  Yields
    ``rows @ x`` for the ``n_steps + 1`` samples, as consecutive groups of
    at most ``_RK4_GROUP_ENTRIES`` values.
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
    pows = rows @ pows
    m = pows.shape[1]
    stacked = pows.reshape(B * m, n)
    per_group = B * max(1, _RK4_GROUP_ENTRIES // (B * m))
    x = np.array(x0, dtype=float)
    for start in range(0, n_steps + 1, per_group):
        k = min(per_group, n_steps + 1 - start)
        firsts = np.empty((n, -(-k // B)))  # the state at each block's start
        for j in range(firsts.shape[1]):
            firsts[:, j] = x
            x = step_block @ x
        out = (stacked @ firsts).reshape(B, m, -1).transpose(2, 0, 1)
        yield out.reshape(-1, m)[:k]


class _Rk4Route:
    """RK4 over the full ``sample_dt`` grid; :meth:`fill` reads it in order.

    :meth:`fill` steps as far as its block's times, a group of
    :func:`_rk4_blocks` at a time.  Each group extends the trapezoid sums of
    the running averages, so they are the trapezoid rule's over the whole
    grid, and ``drift``, the largest ``|z_p - z_p(0)|`` over every step so
    far.  Memory is one group, whatever the grid length.
    """

    def __init__(self, augmented, config, keep_states):
        self.dt = float(config.sample_dt)
        self.n = n = augmented.realization.n_elements
        x0 = np.concatenate([config.initial_plant, config.initial_observer])
        readouts = [augmented.plant_readout[None, :], augmented.observer_readout]
        if keep_states:
            readouts.append(np.eye(augmented.dim))
        self.groups = _rk4_blocks(
            augmented.drift, x0, self.dt, config.n_steps, np.vstack(readouts)
        )
        self.keep_states = keep_states
        # z(0) read from the full state, as every step reads z; alpha @ x_p(0)
        # can differ from it by rounding
        self.z_p0 = float(augmented.plant_readout @ x0)
        self.drift = 0.0
        self.start = self.stop = 0  # the group in hand holds the steps start..stop-1
        self.last = 0.0, np.zeros(n), np.zeros(n)  # a zero-length step ending at t = 0

    def fill(self, block):
        """Fill a block of :func:`_tasks` after its ``t`` column; returns ``drift``."""
        n = self.n
        idx = np.rint(block[:, 0] / self.dt).astype(np.int64)
        lo = 0
        while lo < idx.size:
            while idx[lo] >= self.stop:
                self._step()
            hi = int(np.searchsorted(idx, self.stop))
            local = idx[lo:hi] - self.start
            rows = block[lo:hi]
            rows[:, 1 : n + 2] = self.group[local, : n + 1]  # z_p, z_o
            rows[:, n + 2 : 2 * n + 2] = self.sums[local + 1] / self.t[local + 1, None]
            if self.keep_states:
                rows[:, 2 * n + 2 :] = self.group[local, n + 1 :]
            lo = hi
        return self.drift

    def _step(self):
        """Take the next group of steps: extend ``drift`` and the trapezoid sums."""
        group = next(self.groups)
        n, start, stop = self.n, self.stop, self.stop + group.shape[0]
        self.drift = max(self.drift, float(np.max(np.abs(group[:, 0] - self.z_p0))))
        # row 0 is the step before the group: its time, readouts and sums
        t = np.arange(start - 1, stop) * self.dt
        v = np.empty((stop - start + 1, n))
        sums = np.empty_like(v)
        t[0], v[0], sums[0] = self.last
        v[1:] = group[:, 1 : n + 1]
        sums[1:] = 0.5 * (v[1:] + v[:-1]) * np.diff(t)[:, None]
        np.cumsum(sums, axis=0, out=sums)
        self.last = t[-1], v[-1], sums[-1]
        self.start, self.stop, self.group = start, stop, group
        self.t, self.sums = t, sums


def _steady_offset(realization, z):
    """Chain state held steady by the plant observable ``z``."""
    try:
        return np.linalg.solve(realization.drift, -realization.input_vector * z)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "chain drift is singular; the driven steady offset does not exist"
        ) from exc


class _ExactRoute:
    """The exact route's set-up for one run; :meth:`fill` reads it at any times.

    In the chain amplitudes ``a = q + i p`` the error is ``a(t) = M exp(-2i
    lam t)`` with ``M = ObserverHamiltonian.modes(err0)``, and its
    antiderivative replaces each phase by ``(1 - phase) / (2i lam)``.  A real
    row ``r`` reads ``r . x = Re(r_c . a)`` with ``r_c = r[0::2] - i r[1::2]``,
    so the readouts, their antiderivatives and the plant observable (plus
    the plant quadratures for ``keep_states``) are projected onto the modes
    once, here, and each chunk of times evaluates one phase table for all of
    them.  The running average is the readouts' antiderivative over ``t``.

    The plant moves by the constant ``rate`` times ``t`` plus the modes'
    oscillation, and ``alpha . rate = 0`` identically, since the plant's
    gain rows are ``2 J alpha beta^T`` and ``alpha^T J alpha = 0``.  So
    ``z_p`` is read from the oscillation alone, ``z_p(t) = z_p(0) + Re(c .
    (e^{-2i lam t} - 1))`` with ``c = alpha @ plant_w``, and never picks up
    the ramp's rounding times ``t``.  ``bound = 2 sum_k |c_k|`` bounds
    ``|z_p(t) - z_p(0)|`` over every ``t``, before any time is evaluated.

    :func:`_tasks` splits the times into chunks of ``_chunk_rows(N)``, so
    every chunk is one phase table of about ``_CHUNK_ENTRIES`` entries and a
    time gives the same bytes whichever caller reads it.
    """

    def __init__(self, augmented, config, z_p0, keep_states):
        realization = augmented.realization
        n = realization.n_elements
        x_p0 = config.initial_plant
        alpha = augmented.plant.alpha
        self.z_p0 = z_p0

        steady = _steady_offset(realization, z_p0)
        err0 = config.initial_observer - steady
        ham = realization.hamiltonian
        self.lam = ham.lam
        modes = ham.modes(err0)

        def project(rows):
            return (rows[:, 0::2] - 1j * rows[:, 1::2]) @ modes

        plant_gain = augmented.drift[0:2, 2:]
        readout_w = project(realization.readout)
        # antiderivatives, less their constants
        integral_w = -readout_w / (2j * self.lam)
        plant_w = -project(plant_gain) / (2j * self.lam)
        c = alpha @ plant_w
        self.bound = 2.0 * float(np.sum(np.abs(c)))
        self.integral_base = -integral_w.real.sum(axis=1)
        self.z_p_base = z_p0 - float(c.real.sum())
        # Re(w . phase) for all rows at once: the interleaved real view of the
        # phase table times the real rows (Re w, -Im w) per mode.
        rows = [readout_w, integral_w, c[None, :]]
        if keep_states:
            # constant plant velocity at the steady offset
            self.rate = plant_gain @ steady
            self.x_p_base = x_p0 - plant_w.real.sum(axis=1)
            self.steady, self.modes = steady, modes
            rows.append(plant_w)
        rows = np.vstack(rows)
        self.weights = np.empty((2 * n, rows.shape[0]))
        self.weights[0::2] = rows.real.T
        self.weights[1::2] = -rows.imag.T
        self.z_o_steady = realization.readout @ steady
        self.n = n
        self.keep_states = keep_states

    def fill(self, block):
        """Fill a block of :func:`_tasks` after its ``t`` column; returns its drift."""
        n = self.n
        kept = block[:, 2 + 2 * n :] if self.keep_states else None
        self.evaluate(block[:, 0], block[:, 1 : 2 + 2 * n], kept)
        return max(self.bound, float(np.max(np.abs(block[:, 1] - self.z_p0))))

    def evaluate(self, tt, out, kept=None):
        """Fill ``out`` with the ``z_p, z_o, avg`` columns at the times ``tt``.

        ``tt`` is one chunk, at most ``_chunk_rows(N)`` times, and ``out`` has
        ``1 + 2 N`` columns; ``kept`` receives the full states when the
        route was set up with ``keep_states``.
        """
        n = self.n
        phases = np.exp(np.outer(tt, -2j * self.lam))  # (samples, n)
        values = phases.view(np.float64) @ self.weights
        out[:, 0] = self.z_p_base + values[:, 2 * n]
        out[:, 1 : n + 1] = self.z_o_steady + values[:, :n]
        integral = self.integral_base + values[:, n : 2 * n]
        out[:, n + 1 :] = self.z_o_steady + integral / tt[:, None]  # _tasks sets t = 0
        if kept is not None:
            ramp = self.rate * tt[:, None]
            kept[:, 0:2] = self.x_p_base + ramp + values[:, 2 * n + 1 :]
            kept[:, 2:] = self.steady + (phases @ self.modes.T).view(np.float64)


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
        """Every field as JSON values: arrays as lists, the certificate as a dict."""
        out = {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(self).items()
        }
        if not np.isfinite(self.slope):
            out["slope"] = None
        return out


def consensus_report(
    augmented: AugmentedSystem, config: SimulationConfig, horizons
) -> ConsensusReport:
    """Measure consensus convergence at several horizons and check envelopes.

    Compares each element's running average at every horizon against the
    plant observable, and checks both those errors and the exactly-evaluated
    averaged deviation operator against the ``C/T`` certificate.  Both
    routes keep the averages at the horizons alone.  The exact route
    evaluates each at the horizon itself, so ``sample_dt`` plays no part.
    The ``rk4`` route steps the full grid out to the largest horizon to get
    its trapezoid averages, so there every horizon must land on the grid.

    Raises
    ------
    ValueError
        For bad horizons, an ``rk4`` grid that misses one or breaks a rule
        of :attr:`~SimulationConfig.n_steps`, or a ``C/T`` that overflows.
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs <= 0) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be positive and strictly increasing")
    run_cfg, times = config, np.concatenate(([0.0], hs))
    if config.method == "rk4":
        run_cfg = replace(config, horizon_T=float(hs[-1]))
        dt = run_cfg.sample_dt
        # the grid's rules first; its last step is the last horizon's
        indices = [int(round(h / dt)) for h in hs[:-1]] + [run_cfg.n_steps]
        for h, k in zip(hs, indices):
            if abs(k * dt - h) > 1e-9 * max(1.0, h):
                raise ValueError(f"horizon {h} does not land on the sample grid")
        times = np.array([0, *indices]) * dt
    series = _evaluate(augmented, run_cfg, times, False)

    plant, realization = augmented.plant, augmented.realization
    z_p0 = float(plant.alpha @ config.initial_plant)
    ham = realization.hamiltonian
    averages = series.running_avg_z_o[1:]

    cert = convergence_certificate(ham)
    with np.errstate(over="ignore"):
        cert_env = cert.avg_constant / hs
    if not np.all(np.isfinite(cert_env)):
        raise ValueError(f"the C/T envelope overflows at horizon {hs[0]}")

    target, _ = steady_vector(realization, plant, z_p0, tol=None)
    err0_norm = float(np.linalg.norm(config.initial_observer - target))
    readout_norm = float(np.linalg.norm(realization.readout, 2))
    floor = 1e-12 * (1.0 + abs(z_p0))

    per_element = np.abs(averages - z_p0)
    traj_env = np.empty_like(per_element)
    mat_resid = np.empty(hs.size)
    for j, h in enumerate(hs):
        traj_env[j] = cert_env[j] * err0_norm + floor
        averaged = time_average_integral(ham, h) / h
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
        method=config.method,
        passed=passed,
    )


def write_timeseries_csv(
    augmented: AugmentedSystem, config: SimulationConfig, path, stride: int = 1
) -> None:
    """Write the rows of ``simulate(augmented, config, stride=stride)`` as CSV.

    Columns: ``t, z_p, z_o_1..z_o_N, avg_z_o_1..avg_z_o_N``.  The rows come
    from the chunk source :func:`simulate` reads, so the bytes are the same,
    and the export holds a few chunks at a time whatever the row count (see
    :func:`_write_csv`), so ``MAX_SERIES_BYTES`` does not bound it.  Values
    are written as ``"%.17g" % v`` writes them (:func:`_format_17g`).

    Raises
    ------
    ValueError
        As :attr:`SimulationConfig.n_steps` does, if ``stride < 1``, or if
        the initial observer does not fit, before the file is opened.
    IntegratorAccuracyError
        Before the file is opened if the exact route's drift bound
        ``2 sum_k |c_k|`` exceeds the tolerance, and from the first chunk
        whose drift does; the partial file is then deleted.
    """
    rows, times_of = _grid(config, stride)
    tasks = _tasks(augmented, config, times_of, rows, False)
    _write_csv(augmented.realization.n_elements, tasks, path)


def _write_csv(n: int, tasks, path) -> None:
    """Write the blocks of ``tasks``, as :func:`_tasks` makes them, as CSV.

    The tasks are pulled on the calling thread, run and formatted on
    ``_CSV_WORKERS`` threads and written in order (:func:`_write_in_order`).
    Each thread formats in its own scratch buffers, made for the first
    values it formats and freed when the export returns.  If a task raises,
    the tasks not yet started are cancelled, the partial file is deleted and
    the error propagates.
    """
    header = (
        ["t", "z_p"]
        + [f"z_o_{i}" for i in range(1, n + 1)]
        + [f"avg_z_o_{i}" for i in range(1, n + 1)]
    )

    seps = np.full((_chunk_rows(n), 2 + 2 * n), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    local = threading.local()  # each thread's scratch

    def formatted(task):
        block, _ = task()
        parts = -(-block.size // _FORMAT_VALUES)
        out = []
        for values, part_seps in zip(
            np.array_split(block, parts), np.array_split(seps[: len(block)], parts)
        ):
            # a chunk's first part is its largest, and only the last chunk
            # is short, so a thread's scratch is made once
            scratch = getattr(local, "scratch", None)
            if scratch is None or scratch.size < values.size:
                scratch = local.scratch = _Scratch(values.size)
            out.append(_format_17g(values, part_seps, scratch))
        return out

    f = open(path, "wb")
    try:
        with f:
            f.write((",".join(header) + "\n").encode())
            _write_in_order(f, formatted, tasks)
    except BaseException:
        # the partial CSV; never a device or a link such as /dev/stdout
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def _write_in_order(f, work, tasks) -> None:
    """Write the buffers of ``work(task)`` for each of ``tasks`` to ``f``, in order.

    The tasks are pulled here, on the calling thread.  A single task runs
    inline.  More run on ``_CSV_WORKERS`` threads, at most two per worker in
    flight (numpy releases the interpreter lock for most of the work).  If
    pulling or running a task raises, the tasks not yet started are
    cancelled, and every thread is joined before the error propagates.
    """
    tasks = iter(tasks)
    head = list(itertools.islice(tasks, 2))
    tasks = itertools.chain(head, tasks)
    if len(head) < 2 or _CSV_WORKERS <= 1:
        for task in tasks:
            f.writelines(work(task))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_CSV_WORKERS, thread_name_prefix="qchain-csv") as pool:
        pending = deque()
        try:
            for task in tasks:
                pending.append(pool.submit(work, task))
                if len(pending) == 2 * _CSV_WORKERS:
                    f.writelines(pending.popleft().result())
            while pending:
                f.writelines(pending.popleft().result())
        except BaseException:
            for future in pending:
                future.cancel()
            raise
