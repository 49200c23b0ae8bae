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

Each route is one in-order source of chunks of rows (:func:`_tasks`).  Every
reader of the series goes through it, so a row has the same bytes whichever
makes it, and :func:`write_timeseries_csv` streams either route.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterator
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

#: Largest float64 sample storage, in bytes, that one simulation may hold.
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
        object.__setattr__(self, "initial_plant", xp)
        object.__setattr__(self, "initial_observer", xo)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_T / self.sample_dt))


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


@dataclass(frozen=True, eq=False)
class SeriesStream:
    """A sampled series made one chunk of rows at a time, as it is written.

    ``tasks`` yields ``n_chunks`` zero-argument tasks in row order, once;
    pull them on one thread, since the ``rk4`` route steps its grid there.
    A task may run on any thread and returns a chunk of ``_chunk_rows(N)``
    rows (the last may hold fewer) with the columns ``t, z_p,
    z_o_1..z_o_N, avg_z_o_1..avg_z_o_N``.
    """

    n_elements: int
    n_chunks: int
    tasks: Iterator[Callable[[], np.ndarray]]


def _chunk_rows(n: int) -> int:
    """Rows per chunk of ``n`` elements: about ``_CHUNK_ENTRIES`` phase-table entries."""
    return max(1, _CHUNK_ENTRIES // n)


def _sample_count(n_samples: int, stride: int) -> int:
    """How many indices :func:`_sample_indices` returns."""
    return (n_samples - 1) // stride + 1 + ((n_samples - 1) % stride != 0)


def _sample_indices(n_samples: int, stride: int, start: int = 0, stop=None):
    """Every ``stride``-th sample index, always ending with the final one.

    Only entries ``start:stop`` of that list are made.
    """
    if stop is None:
        stop = _sample_count(n_samples, stride)
    return np.minimum(np.arange(start, stop) * stride, n_samples - 1)


def _series_rows(augmented, config, stride: int, keep_states: bool) -> int:
    """Rows of the ``stride``-thinned series, refused over ``MAX_SERIES_BYTES``.

    Counted before anything is evaluated or allocated.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = _sample_count(config.n_steps + 1, stride)
    n = augmented.realization.n_elements
    columns = 2 + 2 * n + (2 + 2 * n if keep_states else 0)
    if 8 * rows * columns > MAX_SERIES_BYTES:
        raise ValueError(
            f"{rows} samples of a chain with N = {n} would hold "
            f"{8 * rows * columns} bytes, over the limit of {MAX_SERIES_BYTES}; "
            "increase sample_dt or csv_stride, or shorten the horizons"
        )
    return rows


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
    """The route's chunk source: ``bound, tasks`` at ``count`` times.

    ``times_of(a, b)`` returns the times ``a..b-1``.  ``tasks`` yields a
    zero-argument task per ``_chunk_rows(N)`` times, in order.  Each returns
    ``block, drift``: the chunk's columns ``t, z_p, z_o, avg`` (then the
    full state for ``keep_states``), and the z drift up to its last time,
    which ``bound`` bounds beforehand (0 on the ``rk4`` route).  The ``rk4``
    route steps its grid, so its times must be grid samples, ascending, that
    end at the last step.  Raises :class:`ValueError` if the initial
    observer state does not fit the chain.
    """
    state_dim = augmented.realization.state_dim
    if config.initial_observer.size != state_dim:
        raise ValueError(
            f"initial_observer has length {config.initial_observer.size}, "
            f"chain needs {state_dim}"
        )
    if config.method == "rk4":
        return 0.0, _rk4_tasks(augmented, config, times_of, count, keep_states)
    route = _ExactRoute(augmented, config, keep_states)
    size = _chunk_rows(route.n)
    return route.bound, (
        partial(route.chunk, times_of, a, min(a + size, count))
        for a in range(0, count, size)
    )


def _evaluate(augmented, config, times, keep_states):
    """``z_p, z_o, avg, states, drift`` at ``times`` on the config's route.

    Copies each chunk of :func:`_tasks` into one table as it is made.
    Raises as :func:`_tasks` does, and :class:`IntegratorAccuracyError` if
    the plant observable drifted beyond ``Z_DRIFT_TOL * (1 + |z(0)|)``.
    """
    _, tasks = _tasks(
        augmented, config, lambda a, b: times[a:b], times.size, keep_states
    )
    n = augmented.realization.n_elements
    table = np.empty((times.size, 2 + 2 * n + (augmented.dim if keep_states else 0)))
    start, drift = 0, 0.0
    for task in tasks:
        block, seen = task()
        table[start : start + len(block)] = block
        start += len(block)
        drift = max(drift, seen)
    _check_drift(drift, float(augmented.plant.alpha @ config.initial_plant))
    states = table[:, 2 + 2 * n :] if keep_states else None
    return table[:, 1], table[:, 2 : n + 2], table[:, n + 2 : 2 * n + 2], states, drift


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
        If the samples kept (times, readouts and averages, plus the full
        state for ``keep_states``) would exceed ``MAX_SERIES_BYTES``, or if
        the initial observer state does not fit the chain.
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    _series_rows(augmented, config, stride, keep_states)
    times = _sample_indices(config.n_steps + 1, stride) * config.sample_dt
    z_p, z_o, avg, kept, drift = _evaluate(augmented, config, times, keep_states)
    return TimeSeries(
        times=times,
        z_p=z_p,
        z_o=z_o,
        running_avg_z_o=avg,
        z_p_drift=drift,
        method=config.method,
        states=kept,
    )


def stream_series(
    augmented: AugmentedSystem, config: SimulationConfig, stride: int = 1
) -> SeriesStream:
    """The rows of ``simulate(augmented, config, stride=stride)``, as a stream.

    The chunks come from the source :func:`simulate` reads, so the bytes
    are the same, and memory is a few chunks whatever the row count.  An
    exact chunk is evaluated when its task runs, on whichever thread runs
    it; the ``rk4`` route steps its grid as the tasks are pulled.

    Raises
    ------
    ValueError
        As :func:`simulate` does, before anything is evaluated.
    IntegratorAccuracyError
        Before any row is evaluated if the exact route's drift bound
        ``2 sum_k |c_k|`` exceeds the tolerance, and from a task if the drift
        up to its chunk does.
    """
    rows = _series_rows(augmented, config, stride, False)

    def grid(a, b):
        return _sample_indices(config.n_steps + 1, stride, a, b) * config.sample_dt

    bound, tasks = _tasks(augmented, config, grid, rows, False)
    z_p0 = float(augmented.plant.alpha @ config.initial_plant)
    _check_drift(bound, z_p0)
    n = augmented.realization.n_elements
    checked = (partial(_checked, task, z_p0) for task in tasks)
    return SeriesStream(n, -(-rows // _chunk_rows(n)), checked)


def _checked(task, z_p0):
    """The block of a task of :func:`_tasks`, raising if its drift is too large."""
    block, drift = task()
    _check_drift(drift, z_p0)
    return block


def states_at(augmented: AugmentedSystem, config: SimulationConfig, times):
    """Full augmented states at any ``times`` on the exact route.

    Returns an array of shape ``(len(times), augmented.dim)``.

    Raises
    ------
    IntegratorAccuracyError
        If the conserved plant observable drifted beyond tolerance.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    exact = replace(config, method="exact")
    return _evaluate(augmented, exact, ts, True)[3]


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


def _rk4_tasks(augmented, config, times_of, count, keep_states):
    """RK4 over the full ``sample_dt`` grid, as :func:`_tasks` for the kept times.

    The steps run as the tasks are pulled, a group of :func:`_rk4_blocks`
    at a time.  Each group extends the trapezoid sums of the running
    averages, so they are the trapezoid rule's over the whole grid, and the
    drift, the largest ``|z_p - z_p(0)|`` over every step so far.  Memory is
    one group plus the chunks not yet written, whatever the grid length.
    """
    dt = float(config.sample_dt)
    x0 = np.concatenate([config.initial_plant, config.initial_observer])
    n = augmented.realization.n_elements
    readouts = [augmented.plant_readout[None, :], augmented.observer_readout]
    if keep_states:
        readouts.append(np.eye(augmented.dim))
    groups = _rk4_blocks(augmented.drift, x0, dt, config.n_steps, np.vstack(readouts))
    z_p0 = float(augmented.plant_readout @ x0)
    drift = 0.0
    start = stop = 0  # the group in hand holds the steps start..stop-1
    last = 0.0, np.zeros(n), np.zeros(n)  # a zero-length step ending at t = 0
    size = _chunk_rows(n)
    for first in range(0, count, size):
        tt = times_of(first, min(first + size, count))
        idx = np.rint(tt / dt).astype(np.int64)
        block = np.empty((tt.size, 2 + 2 * n + (augmented.dim if keep_states else 0)))
        block[:, 0] = tt
        lo = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while lo < idx.size:
                while idx[lo] >= stop:
                    group = next(groups)
                    start, stop = stop, stop + group.shape[0]
                    drift = max(drift, float(np.max(np.abs(group[:, 0] - z_p0))))
                    # row 0 is the step before the group: its time, readouts and sums
                    t = np.arange(start - 1, stop) * dt
                    v = np.empty((stop - start + 1, n))
                    sums = np.empty_like(v)
                    t[0], v[0], sums[0] = last
                    v[1:] = group[:, 1 : n + 1]
                    sums[1:] = 0.5 * (v[1:] + v[:-1]) * np.diff(t)[:, None]
                    np.cumsum(sums, axis=0, out=sums)
                    last = t[-1], v[-1], sums[-1]
                hi = int(np.searchsorted(idx, stop))
                local = idx[lo:hi] - start
                rows = block[lo:hi]
                rows[:, 1 : n + 2] = group[local, : n + 1]  # z_p, z_o
                rows[:, n + 2 : 2 * n + 2] = sums[local + 1] / t[local + 1, None]
                if keep_states:
                    rows[:, 2 * n + 2 :] = group[local, n + 1 :]
                lo = hi
        at_zero = idx == 0
        block[at_zero, n + 2 : 2 * n + 2] = block[at_zero, 2 : n + 2]
        yield lambda block=block, drift=drift: (block, drift)  # bound now, not when run


def _steady_offset(realization, z):
    """Chain state held steady by the plant observable ``z``."""
    try:
        return np.linalg.solve(realization.drift, -realization.input_vector * z)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "chain drift is singular; the driven steady offset does not exist"
        ) from exc


class _ExactRoute:
    """The exact route's set-up for one run; :meth:`chunk` reads it at any times.

    In the chain amplitudes ``a = q + i p`` the error is ``a(t) = M exp(-2i
    lam t)`` with ``M = ObserverHamiltonian.modes(err0)``, and its
    antiderivative replaces each phase by ``(1 - phase) / (2i lam)``.  A real
    row ``r`` reads ``r . x = Re(r_c . a)`` with ``r_c = r[0::2] - i r[1::2]``,
    so the readouts, their antiderivatives and the plant observable (plus
    the plant quadratures for ``keep_states``) are projected onto the modes
    once, here, and each chunk of times evaluates one phase table for all of
    them.  The running average at ``t > 0`` is the readouts' antiderivative
    over ``t``; at ``t = 0`` it is the readout.

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

    def __init__(self, augmented, config, keep_states):
        realization = augmented.realization
        n = realization.n_elements
        x_p0 = config.initial_plant
        alpha = augmented.plant.alpha
        self.z_p0 = float(alpha @ x_p0)

        steady = _steady_offset(realization, self.z_p0)
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
        self.z_p_base = self.z_p0 - float(c.real.sum())
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
        self.state_columns = augmented.dim if keep_states else 0

    def chunk(self, times_of, start, stop):
        """The task of :func:`_tasks` for the times ``times_of(start, stop)``."""
        tt = times_of(start, stop)
        n = self.n
        block = np.empty((tt.size, 2 + 2 * n + self.state_columns))
        block[:, 0] = tt
        kept = block[:, 2 + 2 * n :] if self.state_columns else None
        self.evaluate(tt, block[:, 1 : 2 + 2 * n], kept)
        seen = float(np.max(np.abs(block[:, 1] - self.z_p0)))
        return block, max(self.bound, seen)

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
        with np.errstate(divide="ignore", invalid="ignore"):
            out[:, n + 1 :] = self.z_o_steady + integral / tt[:, None]
        at_zero = tt == 0.0
        out[at_zero, n + 1 :] = out[at_zero, 1 : n + 1]
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
    routes keep the averages at the horizons alone; the ``rk4`` route steps
    the full grid out to the largest horizon to get them.

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

    plant, realization = augmented.plant, augmented.realization
    z_p0 = float(plant.alpha @ config.initial_plant)
    ham = realization.hamiltonian
    times = np.array([0, *indices]) * dt
    _, _, avg, _, drift = _evaluate(augmented, run_cfg, times, False)
    averages = avg[1:]

    cert = convergence_certificate(ham)

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


def write_timeseries_csv(series: SeriesStream, path) -> None:
    """Write every row of a stream as CSV.

    Columns: ``t, z_p, z_o_1..z_o_N, avg_z_o_1..avg_z_o_N``.  Make the
    stream with :func:`stream_series`, thinned with ``stride=k``.  Every
    value is written as ``"%.17g" % v`` writes it (:func:`_format_17g`), so
    the file round-trips exactly.  The tasks of a stream of more than one
    chunk are pulled on the calling thread, run and formatted on
    ``_CSV_WORKERS`` threads and written in order, so the export holds a few
    chunks at a time.  Each thread formats in its own scratch buffers, made
    for the first values it formats and freed when the export returns.  If
    a task raises, the tasks not yet started are cancelled, the partial file
    is deleted and the error propagates.  A stream is written once: one that
    yields fewer than ``n_chunks`` tasks, such as a stream already written,
    raises ``ValueError`` the same way.
    """
    n = series.n_elements
    header = (
        ["t", "z_p"]
        + [f"z_o_{i}" for i in range(1, n + 1)]
        + [f"avg_z_o_{i}" for i in range(1, n + 1)]
    )

    seps = np.full((_chunk_rows(n), 2 + 2 * n), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    local = threading.local()  # each thread's scratch

    def formatted(task):
        block = task()
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
            written = _write_in_order(f, formatted, series.tasks, series.n_chunks)
            if written < series.n_chunks:
                raise ValueError(
                    f"stream gave {written} of its {series.n_chunks} chunks; "
                    "a stream is written once"
                )
    except BaseException:
        # the partial CSV; never a device or a link such as /dev/stdout
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def _write_in_order(f, work, tasks, count: int) -> int:
    """Write the buffers of ``work(task)`` for ``count`` ``tasks`` to ``f``, in order.

    The tasks are pulled here, on the calling thread.  One runs inline.
    More run on ``_CSV_WORKERS`` threads, at most two per worker in flight
    (numpy releases the interpreter lock for most of the work).  If pulling
    or running a task raises, the tasks not yet started are cancelled, and
    every thread is joined before the error propagates.  Returns how many
    tasks were written.
    """
    written = 0
    if count <= 1 or _CSV_WORKERS <= 1:
        for written, task in enumerate(tasks, 1):
            f.writelines(work(task))
        return written
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_CSV_WORKERS, thread_name_prefix="qchain-csv") as pool:
        pending = deque()
        try:
            for written, task in enumerate(tasks, 1):
                pending.append(pool.submit(work, task))
                if len(pending) == 2 * _CSV_WORKERS:
                    f.writelines(pending.popleft().result())
            while pending:
                f.writelines(pending.popleft().result())
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return written
