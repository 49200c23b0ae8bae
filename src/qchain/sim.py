"""Trajectory simulation and consensus reporting for the augmented system.

The augmented drift is *not* diagonalizable: the plant quadrature conjugate to
the observed one grows linearly in time (a genuine Jordan block at eigenvalue
zero), so naive spectral propagation and long sequential stepping both lose
accuracy over the horizons of interest (1e4 time units and beyond).  The
default simulation route instead exploits the exact structure of the closed
loop:

* the plant observable ``z`` is a conserved quantity of the augmented drift,
  identically along every trajectory, so the route holds it by construction;
* the observer chain is driven by the constant ``z`` and splits into a steady
  offset plus an error governed by the conservative chain flow, both read
  from the chain spectrum;
* the plant state is recovered by integrating the observer trajectory in
  closed form.

Every sample, and every running time average, is therefore exact to
rounding at any horizon, and only the times a caller reads are evaluated.
The same split gives the whole propagator in closed form
(:func:`flow_matrix`).  A fixed-step RK4 route over the raw augmented drift,
with trapezoidal running averages and a check that ``z`` stays constant at
every step, is an independent diagnostic.  It steps its grid in blocks, one
product per block, and evaluates readouts only in the blocks a caller reads.

:func:`_tasks` is the one source of rows for both routes: it cuts the times
into chunks, lays out each chunk's block and sets the average at ``t = 0``;
a route only fills the columns of a block it is given.  Every reader of
the series goes through it, so a row has the same bytes whichever reads it,
and :func:`write_timeseries_csv` streams either route.
"""

from __future__ import annotations

import itertools
import math
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
from .observer import AugmentedSystem

#: Largest float64 sample storage, in bytes, that one :func:`simulate` may return.
MAX_SERIES_BYTES = 2 * 2**30

#: Most steps the rk4 route may take: it steps the whole grid, whatever it keeps.
MAX_RK4_STEPS = 10_000_000

#: Largest default sample step.
DEFAULT_DT_CAP = 0.01

#: Relative tolerance on conservation of the plant observable on the rk4 route.
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

#: Most steps per block of RK4 power stepping.
_RK4_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Initial conditions and sampling grid for one run.

    ``method`` selects the trajectory route: ``"exact"`` (structured spectral
    evaluation, the default) or ``"rk4"`` (fixed-step diagnostic integrator).
    The sample grid runs from 0 to ``horizon_T``.  Its rules are checked by
    :attr:`n_steps`, which every grid reader reads, so a run that reads only
    ``t = 0`` and the horizons needs no grid.
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
        """Steps of the ``sample_dt`` grid to ``horizon_T`` (:func:`_grid_steps`).

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
        return int(_grid_steps(self.horizon_T, self.sample_dt)[0])


def _grid_steps(t, dt: float):
    """Steps of the ``dt`` grid to each time ``t``, and whether it is on the grid.

    ``t`` is on it when ``k = rint(t / dt)`` has ``|k dt - t| <= 1e-9
    max(1, t)``, and is then ``k`` steps away.  Off it, both routes take
    ``ceil(t / dt)`` steps, the last one shorter and ending at ``t`` itself
    (:func:`_grid`, :class:`_Rk4Route`).  ``t`` is a float or an array.
    """
    k = np.rint(t / dt)
    on = np.abs(k * dt - t) <= 1e-9 * np.maximum(1.0, t)
    return np.where(on, k, np.ceil(t / dt)).astype(np.int64), on


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

    ``z_p`` is the plant observable (``alpha @ x_p(0)`` on the exact route,
    so ``z_p_drift``, its largest ``|z_p - z_p(0)|``, is 0 there), ``z_o``
    the per-element instantaneous estimates, ``running_avg_z_o`` their time
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

    The last step ends at ``n_steps * sample_dt`` if ``horizon_T`` is on
    the grid, and at ``horizon_T`` itself if not (:func:`_grid_steps`).
    ``times_of(a, b)`` makes entries ``a..b-1``.  Raises ``ValueError`` as
    :attr:`SimulationConfig.n_steps` does, or if ``stride < 1``.
    """
    n_steps = config.n_steps
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = n_steps // stride + 1 + (n_steps % stride != 0)
    dt, horizon = config.sample_dt, config.horizon_T
    end = n_steps * dt if _grid_steps(horizon, dt)[1] else horizon

    def times_of(a, b):
        steps = np.minimum(np.arange(a, b) * stride, n_steps)
        return np.where(steps == n_steps, end, steps * dt)

    return rows, times_of


def _tasks(augmented, config, times_of, count, keep_states, horizon=None):
    """The one source of a series' rows: a task per chunk of ``count`` times.

    ``times_of(a, b)`` returns the times ``a..b-1``, and the tasks come in
    order, one per ``_chunk_rows(N)`` times.  Each returns ``block, drift``:
    the chunk's columns (:func:`_columns`), with the average at ``t = 0`` the
    readout itself, and the route's ``drift`` (:class:`TimeSeries`) up to
    at least its last time.  Exact tasks may run on any thread.  The
    ``rk4`` route steps its grid in order as the tasks are pulled, so its
    times must ascend, up to ``horizon`` (``horizon_T`` if None), and its
    tasks raise as :class:`_Rk4Route` does.
    Raises :class:`ValueError` if the initial observer state does not fit
    the chain, or on the exact route if the chain is singular.
    """
    state_dim = augmented.realization.state_dim
    if config.initial_observer.size != state_dim:
        raise ValueError(
            f"initial_observer has length {config.initial_observer.size}, "
            f"chain needs {state_dim}"
        )
    if config.method == "rk4":
        route = _Rk4Route(augmented, config, keep_states, horizon)
    else:
        route = _ExactRoute(augmented, config, keep_states)
    n = augmented.realization.n_elements
    columns = _columns(augmented, keep_states)

    def task(start, stop):
        block = np.empty((stop - start, columns))
        block[:, 0] = times_of(start, stop)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            drift = route.fill(block)
        at_zero = block[:, 0] == 0.0
        block[at_zero, n + 2 : 2 * n + 2] = block[at_zero, 2 : n + 2]
        return block, drift

    size = _chunk_rows(n)
    tasks = (partial(task, a, min(a + size, count)) for a in range(0, count, size))
    if config.method == "rk4":
        return (lambda done=run(): done for run in tasks)  # run as pulled
    return tasks


def _evaluate(augmented, config, times, keep_states, horizon=None) -> TimeSeries:
    """The rows of :func:`_tasks` at ``times``, copied into one table as they are made.

    Raises as :func:`_tasks` and its tasks do.
    """
    tasks = _tasks(
        augmented, config, lambda a, b: times[a:b], times.size, keep_states, horizon
    )
    table = np.empty((times.size, _columns(augmented, keep_states)))
    start, drift = 0, 0.0
    for task in tasks:
        block, drift = task()  # the route's drift so far
        table[start : start + len(block)] = block
        start += len(block)
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
    the raw augmented drift over the full grid with classical RK4, keeps the
    same samples and verifies that the plant observable stayed within
    ``Z_DRIFT_TOL * (1 + |z(0)|)`` over the whole run.

    Raises
    ------
    ValueError
        As :attr:`SimulationConfig.n_steps` does, if ``stride < 1``, or if
        the samples kept (times, readouts and averages, plus the full state
        for ``keep_states``) would exceed ``MAX_SERIES_BYTES``, all before
        anything is evaluated; or if the initial observer does not fit, or
        on the exact route if the chain is singular.
    IntegratorAccuracyError
        If the ``rk4`` route's plant observable drifted beyond tolerance or
        its state overflowed.
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

    Returns an array of shape ``(len(times), augmented.dim)``; raises
    ``ValueError`` if the chain is singular.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    return _evaluate(augmented, replace(config, method="exact"), ts, True).states


def flow_matrix(augmented: AugmentedSystem, t: float) -> np.ndarray:
    """Closed-form propagator ``exp(A t)`` of the augmented drift ``A``.

    The split of :class:`_ExactRoute`, applied to every initial state at
    once.  With ``P(t)`` the chain flow, ``I(t)`` its integral over ``[0,
    t]`` (both real embeddings of the Jacobi-spectrum forms), ``G`` the
    plant's gain on the chain and ``s`` the steady offset per unit ``z``
    (:meth:`~qchain.analysis.ObserverHamiltonian.steady`)::

        E(t) = [[I_2 + G (s t - I s) alpha^T,  G I],
                [(s - P s) alpha^T,             P  ]]

    It needs a nonsingular chain, not a positive definite one.

    Raises
    ------
    ValueError
        If the chain is singular.
    """
    realization = augmented.realization
    ham = realization.hamiltonian
    s = ham.steady(realization.input_vector)
    P = real_embedding(ham.propagator(t))
    integral = time_average_integral(ham, t)
    G = augmented.drift[0:2, 2:]
    alpha = augmented.plant.alpha
    E = np.empty((augmented.dim, augmented.dim))
    E[0:2, 0:2] = np.eye(2) + np.outer(G @ (s * float(t) - integral @ s), alpha)
    E[0:2, 2:] = G @ integral
    E[2:, 0:2] = np.outer(s - P @ s, alpha)
    E[2:, 2:] = P
    return E


def _rk4_step(A, h):
    """``M(h)``: one classical RK4 step of length ``h`` of ``dx/dt = A x``.

    On a linear drift the step is exactly ``x -> M(h) x`` with ``M(h)`` the
    degree-4 Taylor polynomial of ``exp(A h)``; all of them commute.
    """
    eye = np.eye(A.shape[0])
    hA = h * A
    return eye + hA @ (eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0)))


def _rk4_blocks(A, dt, n_steps, rows):
    """``P, M^B``: the readouts ``P[b] = rows M^b`` of a block of ``B`` RK4 steps.

    ``M = M(dt)`` is the grid's step (:func:`_rk4_step`).  ``M^b`` is built
    one step at a time, as stepping compounds it: squaring
    loses the transients of a far-from-normal drift.  Building costs in
    proportion to ``B`` and stepping the grid to ``n_steps / B``, so ``B =
    min(_RK4_BLOCK, n_steps + 1, 2 isqrt(n_steps) + 1)``.  A block starting
    at ``x`` reads ``P[b] @ x`` at its step ``b``; ``M^B @ x`` starts the next.
    """
    n = A.shape[0]
    M = _rk4_step(A, dt)
    B = min(_RK4_BLOCK, n_steps + 1, 2 * math.isqrt(n_steps) + 1)
    pows = np.empty((B, n, n))
    pows[0] = np.eye(n)
    for b in range(1, B):
        pows[b] = M @ pows[b - 1]
    return rows @ pows, M @ pows[B - 1]


class _Rk4Route:
    """RK4 over the full ``sample_dt`` grid; :meth:`fill` reads it in order.

    The route steps the blocks of :func:`_rk4_blocks`, built by the first
    :meth:`fill`.  Entering a block is one product with its first state
    ``x``, ``[P[:, 0]; sum_b P[b, 1:N+1]; M^B] @ x``: ``z_p`` at each step,
    for ``drift`` (the largest ``|z_p - z_p(0)|`` so far), the block's
    readout sum and the next first state.  Blocks are entered a batch at a
    time, up to the last block a chunk reads (:meth:`_enter`).  The grid
    ends at ``horizon`` (``horizon_T`` if None).  A time off the grid
    (:func:`_grid_steps`) is read at the step before it, which may repeat a
    step, then moved on by one short step (:meth:`_side`).  Only a block
    holding a row a caller reads evaluates ``P @ x``, every row of it, so a
    row's bytes do not depend on which others are read; the blocks a chunk
    reads share one call (:meth:`_rows`).  With ``S_K`` the sum of the
    readouts ``v_j`` over the steps ``j <= K``, the trapezoid average at
    step ``K`` is ``(S_K - (v_0 + v_K) / 2) / K``.  Memory is one block's
    ``P``, one batch and a chunk's rows of read blocks, whatever the grid
    length.  It raises :class:`IntegratorAccuracyError` if a product
    overflows or ``drift`` is not within ``Z_DRIFT_TOL * (1 + |z_p(0)|)``.
    """

    def __init__(self, augmented, config, keep_states, horizon=None):
        self.dt = float(config.sample_dt)
        self.n, self.A = augmented.realization.n_elements, augmented.drift
        if horizon is not None:  # the grid's rules, and its whole steps, to it
            config = replace(config, horizon_T=float(horizon))
        self.n_steps = config.n_steps - (not _grid_steps(config.horizon_T, self.dt)[1])
        self.width = _columns(augmented, keep_states) - 1
        x0 = np.concatenate([config.initial_plant, config.initial_observer])
        readouts = [augmented.plant_readout[None, :], augmented.observer_readout]
        if keep_states:
            readouts.append(np.eye(augmented.dim))
        self.blocks = partial(
            _rk4_blocks, augmented.drift, self.dt, self.n_steps, np.vstack(readouts)
        )
        # z(0) and v_0 read from the full state, as every step reads them
        # (alpha @ x_p(0) can differ from z(0) by rounding); base is
        # S_{start-1} - v_0 / 2 at the first step of the next block to enter
        self.z_p0 = float(augmented.plant_readout @ x0)
        self.base = -0.5 * (augmented.observer_readout @ x0)
        self.x, self.entered, self.P = x0, 0, None
        self.drift, self.at = 0.0, 0
        self.kept = -1, None  # the block read last, and its rows

    def fill(self, block):
        """Fill a block of :func:`_tasks` after its ``t`` column; returns ``drift``."""
        steps, on = _grid_steps(block[:, 0], self.dt)
        idx, off = steps - ~on, np.flatnonzero(~on)
        lo = 0
        try:
            with np.errstate(over="raise"):
                if self.P is None:
                    self._build()
                js = idx // len(self.P)
                while lo < idx.size:
                    while js[lo] >= self.entered:
                        self._enter(min(js[-1] + 1, self.entered + self.cap))
                    hi = int(np.searchsorted(js, self.entered))
                    self._read(idx[lo:hi], js[lo:hi], block[lo:hi, 1:])
                    for i in off[(lo <= off) & (off < hi)]:
                        self._side(block[i], idx[i], js[i])
                    lo = hi
        except FloatingPointError:
            raise IntegratorAccuracyError(
                f"the rk4 state overflows past step {self.at}; decrease sample_dt"
            ) from None
        tol = Z_DRIFT_TOL * (1.0 + abs(self.z_p0))
        if not self.drift <= tol:  # a nan drift fails too
            raise IntegratorAccuracyError(
                f"plant observable drifted by {self.drift:.3e} over the run "
                f"(tolerance {tol:.3e})",
                drift=self.drift,
            )
        return self.drift

    def _build(self):
        """The block powers and the entering product, and their sizes."""
        self.P, step = self.blocks()
        B, n = len(self.P), self.n
        self.enter = np.vstack([self.P[:, 0], self.P[:, 1 : n + 1].sum(axis=0), step])
        self.last = self.n_steps // B  # its steps up to n_steps read only their z_p
        self.tail = self.n_steps + 1 - self.last * B
        self.cap = max(1, _CHUNK_ENTRIES // len(self.enter))  # blocks per batch
        self.read_cap = max(1, _chunk_rows(n) // B)  # blocks per call of _rows

    def _enter(self, stop):
        """Enter the blocks before ``stop``: the batch ``j0, X, z, bases``.

        Its blocks ``j0, j0 + 1, ...`` have first states ``X``, ``z_p`` at
        their steps ``z`` and ``bases``, ``S_{start-1} - v_0 / 2`` at their
        first steps ``start``.
        """
        B, n, j0 = len(self.P), self.n, self.entered
        k = stop - j0
        # out[i + 1] is block j0 + i's product with its first state out[i, B + n:]
        out = np.zeros((k + 1, len(self.enter)))
        out[0, B : B + n], out[0, B + n :] = self.base, self.x
        for i in range(k):
            self.at = (j0 + i) * B
            if j0 + i < self.last:
                np.matmul(self.enter, out[i, B + n :], out=out[i + 1])
            else:
                out[i + 1, self.tail : B] = self.z_p0
                x = out[i, B + n :]
                np.matmul(self.enter[: self.tail], x, out=out[i + 1, : self.tail])
        z = out[1:, :B]
        # np.maximum keeps a nan, which then fails the drift check
        self.drift = float(np.maximum(self.drift, np.abs(z - self.z_p0).max()))
        bases = np.cumsum(out[:, B : B + n], axis=0)
        self.x, self.base, self.entered = out[k, B + n :], bases[k], stop
        self.batch = j0, out[:k, B + n :], z, bases[:k]

    def _read(self, idx, js, rows):
        """Fill ``rows`` with the readouts at the steps ``idx`` (in blocks ``js``).

        The steps lie in the batch in hand or in the block read last, whose
        rows are kept for the next chunk to start in.  The other blocks are
        evaluated ``read_cap`` at a time, about a chunk's rows per call.
        """
        B, cap = len(self.P), self.read_cap
        j, kept = self.kept
        lo = int(np.searchsorted(js, j + 1))  # the rows in block j
        if lo:
            rows[:lo] = kept[:, idx[:lo] % B].T
        heads = np.flatnonzero(js[1:] != js[:-1]) + 1  # where a block's rows start
        if lo == 0:
            heads = np.concatenate(([0], heads))
        for g in range(0, heads.size, cap):
            lo, hi = heads[g], heads[g + cap] if g + cap < heads.size else idx.size
            blocks = js[heads[g : g + cap]]
            if np.all(np.diff(idx[lo:hi]) == 1):  # consecutive steps, none read twice
                at = slice(idx[lo] - blocks[0] * B, idx[hi - 1] - blocks[0] * B + 1)
            else:
                at = np.searchsorted(blocks, js[lo:hi]) * B + idx[lo:hi] % B
            values = self._rows(blocks)
            rows[lo:hi] = values[:, at].T
        if heads.size:
            self.kept = js[-1], values[:, -B:]

    def _side(self, row, k, j):
        """Move ``row``, read at grid step ``k`` of block ``j``, on to its time ``t``.

        One RK4 step of length ``h = t - k dt`` commutes with the grid's, so
        the readouts at ``t`` are ``P[k - j B] @ (M(h) @ X)``, with ``X`` the
        block's first state in the batch in hand.  The average closes the
        trapezoid to step ``k`` with the short piece; the area to step 0 is 0.
        """
        j0, X = self.batch[:2]
        t, n, self.at = row[0], self.n, k
        h = t - k * self.dt
        values = self.P[k - j * len(self.P)] @ (_rk4_step(self.A, h) @ X[j - j0])
        z_o, avg = row[2 : n + 2], row[n + 2 : 2 * n + 2]
        area = k * self.dt * avg if k else 0.0
        avg[:] = (area + h * (z_o + values[1 : n + 1]) / 2.0) / t
        row[1 : n + 2], row[2 * n + 2 :] = values[: n + 1], values[n + 1 :]
        self.drift = float(np.maximum(self.drift, abs(values[0] - self.z_p0)))

    def _rows(self, js):
        """The rows after ``t`` of the batch's blocks ``js``: one product ``P @ x`` each.

        Block ``js[i]``'s step ``b`` is column ``i B + b``.  The grid's last
        block, which may hold fewer than ``B`` steps, takes its own call.
        """
        j0, X, z, bases = self.batch
        (B, m, _), n = self.P.shape, self.n
        rows = np.empty((self.width, js.size, B))  # the sums run along time
        full = js.size - (js[-1] == self.last)
        for part, c in ((slice(0, full), B), (slice(full, None), self.tail)):
            at = js[part] - j0
            if at.size:
                self.at = int(js[part][0]) * B
                values = np.matmul(self.P[:c].reshape(c * m, -1), X[at, :, None])
                values = values.reshape(at.size, c, m).transpose(2, 0, 1)
                columns = rows[:, part, :c]
                columns[0] = z[at, :c]
                columns[1 : n + 1] = values[1 : n + 1]
                v, avg = columns[1 : n + 1], columns[n + 1 : 2 * n + 1]
                np.cumsum(v, axis=2, out=avg)
                avg += bases[at].T[:, :, None]
                avg -= 0.5 * v
                avg /= js[part, None] * float(B) + np.arange(c)
                columns[2 * n + 1 :] = values[n + 1 :]
        return rows.reshape(self.width, -1)


class _ExactRoute:
    """The exact route's set-up for one run; :meth:`fill` reads it at any times.

    In the chain amplitudes ``a = q + i p`` the error from the steady offset
    (:meth:`~qchain.analysis.ObserverHamiltonian.steady`) is ``a(t) = M
    exp(-2i lam t)`` with ``M = ObserverHamiltonian.modes(err0)``, and its
    antiderivative replaces each phase by ``(1 - phase) / (2i lam)``.  A real
    row ``r`` reads ``r . x = Re(r_c . a)`` with ``r_c = r[0::2] - i r[1::2]``,
    so the readouts and their antiderivatives (plus the plant quadratures
    for ``keep_states``) are projected onto the modes once, here, and each
    chunk of times evaluates one phase table for all of them.  The running
    average is the readouts' antiderivative over ``t``.

    The plant's gain rows are ``2 J alpha beta^T`` and ``alpha^T J alpha =
    0``, so ``z_p`` is ``alpha @ x_p(0)`` at every time, by construction,
    while the plant quadratures move by ``rate`` times ``t`` plus the modes'
    oscillation.

    :func:`_tasks` splits the times into chunks of ``_chunk_rows(N)``, so
    every chunk is one phase table of about ``_CHUNK_ENTRIES`` entries and a
    time gives the same bytes whichever caller reads it.
    """

    def __init__(self, augmented, config, keep_states):
        realization = augmented.realization
        n = realization.n_elements
        x_p0 = config.initial_plant
        self.z_p0 = float(augmented.plant.alpha @ x_p0)

        ham = realization.hamiltonian
        steady = ham.steady(realization.input_vector * self.z_p0)
        self.lam = ham.lam
        modes = ham.modes(config.initial_observer - steady)

        def project(rows):
            return (rows[:, 0::2] - 1j * rows[:, 1::2]) @ modes

        readout_w = project(realization.readout)
        # antiderivatives, less their constants
        integral_w = -readout_w / (2j * self.lam)
        self.integral_base = -integral_w.real.sum(axis=1)
        # Re(w . phase) for all rows at once: the interleaved real view of the
        # phase table times the real rows (Re w, -Im w) per mode.
        rows = [readout_w, integral_w]
        if keep_states:
            plant_gain = augmented.drift[0:2, 2:]
            plant_w = -project(plant_gain) / (2j * self.lam)
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
        """Fill a block of :func:`_tasks` after its ``t`` column; its drift is 0.

        The block is one chunk, at most ``_chunk_rows(N)`` times, and holds
        the full states when the route was set up with ``keep_states``.
        """
        n, tt = self.n, block[:, 0]
        phases = np.exp(np.outer(tt, -2j * self.lam))  # (samples, n)
        values = phases.view(np.float64) @ self.weights
        block[:, 1] = self.z_p0
        block[:, 2 : n + 2] = self.z_o_steady + values[:, :n]
        integral = self.integral_base + values[:, n : 2 * n]
        # _tasks sets the average at t = 0
        block[:, n + 2 : 2 * n + 2] = self.z_o_steady + integral / tt[:, None]
        if self.keep_states:
            states, ramp = block[:, 2 * n + 2 :], self.rate * tt[:, None]
            states[:, 0:2] = self.x_p_base + ramp + values[:, 2 * n :]
            states[:, 2:] = self.steady + (phases @ self.modes.T).view(np.float64)
        return 0.0


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Measured consensus errors against their certified envelopes.

    ``per_element_error[h, i]`` is the deviation of element ``i``'s running
    average from the plant observable at ``horizons[h]``;
    ``certificate_envelope`` holds the raw ``C/T`` values at the same
    horizons, and ``trajectory_envelope`` bounds the per-element errors by
    ``C/T ||r_i|| ||err0||`` plus a rounding floor.  ``matrix_residual`` is
    the exact norm of the averaged readout-deviation operator, bounded by
    ``C/T`` times the readout norm ``||r_i|| = 1/|alpha|``, and ``slope``
    the fitted log-log decay rate of that residual (NaN, and ``null`` in
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
    averaged deviation operator against the ``C/T`` certificate.  In the
    amplitudes, readout row ``i`` is one common phase times ``+-d_i /
    |alpha|``, so that operator's norm is ``max_k |sin(lam_k T)| / (|lam_k|
    T |alpha|)``, read off the chain spectrum.  Both routes read only
    ``t = 0`` and the horizons.  The exact route evaluates each horizon
    itself, so ``sample_dt`` plays no part.  The ``rk4`` route steps its
    grid to the largest horizon for its trapezoid averages and drift.

    Raises
    ------
    ValueError
        For bad horizons, an ``rk4`` grid that breaks a rule of
        :attr:`~SimulationConfig.n_steps`, a ``C/T`` that overflows, or
        a per-element error, trajectory envelope or matrix residual that is
        not finite, or a singular chain.
    IntegratorAccuracyError
        If the ``rk4`` route's plant observable drifted beyond tolerance or
        its state overflowed.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs <= 0) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be positive and strictly increasing")
    series = _evaluate(augmented, config, np.concatenate(([0.0], hs)), False, hs[-1])

    plant, realization = augmented.plant, augmented.realization
    z_p0 = float(plant.alpha @ config.initial_plant)
    ham = realization.hamiltonian
    averages = series.running_avg_z_o[1:]

    cert = convergence_certificate(ham)
    with np.errstate(over="ignore"):
        cert_env = cert.avg_constant / hs
    if not np.all(np.isfinite(cert_env)):
        raise ValueError(f"the C/T envelope overflows at horizon {hs[0]}")

    target = ham.steady(realization.input_vector * z_p0)
    readout_norm = 1.0 / math.sqrt(plant.norm_sq)  # each row alpha (-J)^i / |alpha|^2
    floor = 1e-12 * (1.0 + abs(z_p0))

    per_element = np.abs(averages - z_p0)
    traj_env = np.empty_like(per_element)
    with np.errstate(over="ignore", invalid="ignore"):  # every figure is checked below
        err0_norm = float(np.linalg.norm(config.initial_observer - target))
        traj_env[:] = (cert_env * readout_norm * err0_norm + floor)[:, None]
        # singular values of readout @ integral / h: |sin(lam h)| / (|lam| h |alpha|)
        weights = np.abs(np.sin(np.outer(hs, ham.lam)) / ham.lam)
        mat_resid = np.max(weights, axis=1) / hs * readout_norm
    for name, figure in (
        ("per_element_error", per_element),
        ("trajectory_envelope", traj_env),
        ("matrix_residual", mat_resid),
    ):
        finite = np.isfinite(figure).reshape(hs.size, -1).all(axis=1)
        if not finite.all():
            h = hs[np.argmin(finite)]
            raise ValueError(f"the {name} is not finite at horizon {h}")

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
        As :attr:`SimulationConfig.n_steps` does, if ``stride < 1``, if the
        initial observer does not fit, or on the exact route if the chain is
        singular, before the file is opened.
    IntegratorAccuracyError
        From the first ``rk4`` chunk whose drift exceeds the tolerance or
        whose state overflows; the partial file is then deleted.
    """
    rows, times_of = _grid(config, stride)
    tasks = _tasks(augmented, config, times_of, rows, False)
    _write_csv(augmented.realization.n_elements, tasks, path)


def _write_csv(n: int, tasks, path) -> None:
    """Write the blocks of ``tasks``, as :func:`_tasks` makes them, as CSV.

    The tasks are pulled on the calling thread, run and formatted on
    ``_CSV_WORKERS`` threads and written in order (:func:`_write_in_order`).
    Each chunk is formatted in one :func:`_format_17g` call: a call makes
    over a hundred numpy calls whatever its size, and on two threads each
    of them may wait for the interpreter lock.  Each thread formats in its
    own scratch of 87 bytes per value (:class:`_Scratch`), made for its
    first chunk, as only the last chunk is short, and freed when the export
    returns.  If a task raises, the tasks not yet started are cancelled, the
    partial file is deleted and the error propagates.
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
        scratch = getattr(local, "scratch", None)
        if scratch is None or scratch.size < block.size:
            scratch = local.scratch = _Scratch(block.size)
        return _format_17g(block, seps[: len(block)], scratch)

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
    """Write the buffer ``work(task)`` for each of ``tasks`` to ``f``, in order.

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
            f.write(work(task))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_CSV_WORKERS, thread_name_prefix="qchain-csv") as pool:
        pending = deque()
        try:
            for task in tasks:
                pending.append(pool.submit(work, task))
                if len(pending) == 2 * _CSV_WORKERS:
                    f.write(pending.popleft().result())
            while pending:
                f.write(pending.popleft().result())
        except BaseException:
            for future in pending:
                future.cancel()
            raise
