"""Closed linear quantum systems in the quadrature picture.

State variables are stacked position/momentum pairs ``(q_1, p_1, ..., q_m,
p_m)``.  The kinematics are fixed by the block-diagonal symplectic form
``Theta`` (one 2x2 rotation generator per mode), and a quadratic Hamiltonian
``(1/2) x^T R x`` with symmetric ``R`` generates the linear drift

    dx/dt = A x,     A = 2 * Theta * R.

Symmetry of ``R`` is exactly the condition for the flow to preserve the
canonical commutation relations, ``exp(A t) Theta exp(A^T t) = Theta``, and it
also conserves the energy ``(1/2) x^T R x``.  This module provides the
structure matrix, the commutation check on any propagator ``t -> E(t)``
(``qchain verify`` hands it the closed-form flow of
:func:`qchain.sim.flow_matrix`).  The form belongs to the augmented system,
whose commutation check needs it; the chain's own ``R``, drift, certificate
and time average are not derived here and take no form: all are read off
its Jacobi form (:func:`qchain.analysis.observer_hamiltonian`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Single-mode symplectic block: rotation generator in the (q, p) plane.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
    flow, form: SymplecticForm, times, tol: float = 1e-8
) -> CommutationReport:
    """Evaluate ``max |E(t) Theta E(t)^T - Theta|`` at each probe time.

    The residual is scaled by ``max(1, ||E(t)||_2^2)`` so that long-horizon
    probes of systems with large transients are judged relative to the size of
    the propagator actually involved.

    Parameters
    ----------
    flow:
        Callable returning the real propagator ``E(t)`` of shape
        ``(form.dim, form.dim)``; it need not come from a realizable drift,
        so broken systems can be probed too.
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
    Th = form.matrix
    residuals = np.empty(ts.size)
    norms = np.empty(ts.size)
    for k, t in enumerate(ts):
        E = _as_square_matrix(flow(t), "propagator")
        if E.shape[0] != form.dim:
            raise ValueError(
                f"propagator has dimension {E.shape[0]}, form expects {form.dim}"
            )
        norms[k] = np.linalg.norm(E, 2)
        raw = float(np.max(np.abs(E @ Th @ E.T - Th)))
        residuals[k] = raw / max(1.0, norms[k] ** 2)
    return CommutationReport(times=ts, residuals=residuals, exp_norms=norms, tol=tol)
