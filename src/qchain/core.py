"""Closed linear quantum systems in the quadrature picture.

State variables are stacked position/momentum pairs ``(q_1, p_1, ..., q_m,
p_m)``.  The kinematics are fixed by the block-diagonal symplectic form
``Theta`` (one 2x2 rotation generator per mode), and a quadratic Hamiltonian
``(1/2) x^T R x`` with symmetric ``R`` generates the linear drift

    dx/dt = A x,     A = 2 * Theta * R.

Symmetry of ``R`` is exactly the condition for the flow to preserve the
canonical commutation relations, ``exp(A t) Theta exp(A^T t) = Theta``, and it
also conserves the energy ``(1/2) x^T R x``.  This module provides the
structure matrix, the recovery of ``R`` from ``A``, the commutation check,
and a generic exact propagator for positive-definite ``R`` that the tests use
as an independent reference for the chain's Jacobi-form flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RealizabilityError

#: Single-mode symplectic block: rotation generator in the (q, p) plane.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Default absolute tolerance for symmetry of a supplied Hamiltonian matrix.
HAMILTONIAN_SYMMETRY_TOL = 1e-12

#: Default tolerance when recovering a Hamiltonian from a drift matrix.
REALIZABILITY_TOL = 1e-10


def _as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Block-diagonal symplectic structure matrix for ``n_modes`` modes.

    The matrix has one exact ``[[0, 1], [-1, 0]]`` block per mode, so it is
    orthogonal, antisymmetric, and squares to minus the identity; its inverse
    is its negative.
    """

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        expected = _block_diag_J(self.n_modes)
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != expected.shape or not np.array_equal(m, expected):
            raise ValueError(
                "SymplecticForm.matrix must be the exact block-diagonal "
                "rotation-generator matrix; use build_symplectic()"
            )

    @property
    def dim(self) -> int:
        """Dimension of the quadrature vector, ``2 * n_modes``."""
        return 2 * self.n_modes

    def inverse(self) -> np.ndarray:
        """Exact inverse of the structure matrix (equals its negative)."""
        return -self.matrix


def _block_diag_J(n_modes: int) -> np.ndarray:
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
    return out


def build_symplectic(n_modes: int) -> SymplecticForm:
    """Construct the symplectic form for ``n_modes`` quadrature pairs.

    The entries are exact 0/+1/-1 floats, so identities such as
    ``matrix @ matrix == -I`` hold without rounding error.
    """
    n = int(n_modes)
    if n != n_modes or n < 1:
        raise ValueError("n_modes must be a positive integer")
    return SymplecticForm(n_modes=n, matrix=_block_diag_J(n))


def hamiltonian_from_drift(
    drift, form: SymplecticForm, tol: float = REALIZABILITY_TOL
) -> np.ndarray:
    """Recover ``R = -(1/2) * Theta * A`` and verify the drift is realizable.

    A linear drift preserves the commutation structure exactly when the
    recovered ``R`` is symmetric.  The check is absolute with tolerance
    ``tol`` on ``max |R - R^T|``.

    Raises
    ------
    RealizabilityError
        If the recovered matrix is asymmetric beyond ``tol``: no quadratic
        Hamiltonian generates this drift.
    """
    A = _as_square_matrix(drift, "drift")
    if A.shape[0] != form.dim:
        raise ValueError(f"drift has dimension {A.shape[0]}, form expects {form.dim}")
    R = -0.5 * (form.matrix @ A)
    asym = float(np.max(np.abs(R - R.T))) if R.size else 0.0
    if asym > tol:
        raise RealizabilityError(
            "drift is not generated by a symmetric Hamiltonian "
            f"(max |R - R^T| = {asym:.3e} > {tol:.1e})",
            asymmetry=asym,
        )
    return R


@dataclass(frozen=True, eq=False)
class CommutationReport:
    """Residuals of the commutation-preservation identity at probe times."""

    times: np.ndarray
    residuals: np.ndarray
    exp_norms: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.residuals <= self.tol))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def check_commutation_preservation(
    drift, form: SymplecticForm, times, tol: float = 1e-8
) -> CommutationReport:
    """Evaluate ``max |exp(At) Theta exp(A^T t) - Theta|`` at each probe time.

    The residual is scaled by ``max(1, ||exp(At)||_2^2)`` so that long-horizon
    probes of systems with large transients are judged relative to the size of
    the propagator actually involved.

    Parameters
    ----------
    drift:
        Square drift matrix ``A`` of shape ``(form.dim, form.dim)``; it need
        not be realizable, so broken systems can be probed too.
    form:
        Symplectic structure the flow should preserve.
    times:
        Non-negative probe times.
    tol:
        Pass threshold on the scaled residual.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.size == 0:
        raise ValueError("at least one probe time is required")
    if np.any(ts < 0):
        raise ValueError("probe times must be non-negative")
    A = _as_square_matrix(drift, "drift")
    if A.shape[0] != form.dim:
        raise ValueError(f"drift has dimension {A.shape[0]}, form expects {form.dim}")
    Th = form.matrix
    residuals = np.empty(ts.size)
    norms = np.empty(ts.size)
    for k, t in enumerate(ts):
        E = scipy.linalg.expm(A * t)
        norms[k] = np.linalg.norm(E, 2)
        raw = float(np.max(np.abs(E @ Th @ E.T - Th)))
        residuals[k] = raw / max(1.0, norms[k] ** 2)
    return CommutationReport(times=ts, residuals=residuals, exp_norms=norms, tol=tol)


class ConservativeFlow:
    """Exact flow of ``dx/dt = 2 Theta R x`` for symmetric positive-definite R.

    The generator is similar to a real skew-symmetric matrix via the
    Hamiltonian square root: with ``S = R^{1/2}``,

        S (2 Theta R) S^{-1} = 2 S Theta S =: K,   K^T = -K,

    so ``exp(2 Theta R t) = S^{-1} U diag(exp(-i h t)) U^H S`` where
    ``i K = U diag(h) U^H`` is a Hermitian eigendecomposition with real ``h``.
    Every evaluation is therefore exactly oscillatory — no spurious growth or
    decay accumulates even over horizons of 1e4 and beyond, unlike repeated
    time stepping or a defective eigenvector basis.

    No production path uses this class: the observer chain's flow comes from
    its Jacobi spectrum (:class:`qchain.analysis.ObserverHamiltonian`), and
    this dense route is kept as the independent reference the tests compare
    it against.
    """

    def __init__(self, hamiltonian, form: SymplecticForm):
        R = _as_square_matrix(hamiltonian, "hamiltonian")
        if R.shape[0] != form.dim:
            raise ValueError("hamiltonian dimension does not match form")
        asym = float(np.max(np.abs(R - R.T)))
        if asym > HAMILTONIAN_SYMMETRY_TOL:
            raise RealizabilityError(
                f"hamiltonian is asymmetric (max |R - R^T| = {asym:.3e})",
                asymmetry=asym,
            )
        evals, W = np.linalg.eigh(0.5 * (R + R.T))
        if evals[0] <= 0.0:
            raise ValueError(
                f"hamiltonian must be positive definite (min eigenvalue {evals[0]:.3e})"
            )
        sq = np.sqrt(evals)
        S = (W * sq) @ W.T
        S_inv = (W / sq) @ W.T
        K = 2.0 * (S @ form.matrix @ S)
        K = 0.5 * (K - K.T)  # enforce exact skew-symmetry against rounding
        h, U = np.linalg.eigh(1j * K)
        self.form = form
        self.frequencies = h  # real; the spectrum of A is {-i h}
        self._left = S_inv @ U          # complex (n, n)
        self._right = U.conj().T @ S    # complex (n, n)

    @property
    def dim(self) -> int:
        return self.form.dim

    def matrix(self, t: float) -> np.ndarray:
        """Propagator ``exp(2 Theta R t)`` as a real matrix."""
        phase = np.exp(-1j * self.frequencies * float(t))
        return np.real(self._left @ (phase[:, None] * self._right))

    def propagate(self, x0, times, chunk: int = 262144) -> np.ndarray:
        """States ``exp(2 Theta R t) x0`` for every ``t`` in ``times``.

        Returns an array of shape ``(len(times), dim)``.  Work is chunked over
        time so that million-sample grids stay within a modest memory budget.
        """
        x = np.asarray(x0, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},)")
        ts = np.asarray(times, dtype=float)
        coeff = self._right @ x.astype(complex)  # (n,)
        out = np.empty((ts.size, self.dim))
        for start in range(0, ts.size, chunk):
            tt = ts[start : start + chunk]
            phases = np.exp(np.outer(-1j * self.frequencies, tt))  # (n, T)
            out[start : start + chunk] = np.real(
                self._left @ (phases * coeff[:, None])
            ).T
        return out
