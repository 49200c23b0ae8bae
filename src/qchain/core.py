"""Closed linear quantum systems in the quadrature picture.

State variables are stacked position/momentum pairs ``(q_1, p_1, ..., q_m,
p_m)``.  The kinematics are fixed by the block-diagonal symplectic form
``Theta`` (one 2x2 rotation generator per mode), and a quadratic Hamiltonian
``(1/2) x^T R x`` with symmetric ``R`` generates the linear drift

    dx/dt = A x,     A = 2 * Theta * R.

Symmetry of ``R`` is exactly the condition for the flow to preserve the
canonical commutation relations, ``exp(A t) Theta exp(A^T t) = Theta``, and it
also conserves the energy ``(1/2) x^T R x``.  This module holds the form and
the commutation residual of one propagator (``qchain verify`` hands it the
closed-form flow of :func:`qchain.sim.flow_matrix` at four times).  The form
belongs to the augmented system, whose commutation check needs it; the
chain's own ``R``, drift, certificate and time average are not derived here
and take no form: all are read off its Jacobi form
(:func:`qchain.analysis.observer_hamiltonian`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Single-mode symplectic block: rotation generator in the (q, p) plane.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Block-diagonal symplectic structure for ``n_modes`` modes."""

    n_modes: int

    @property
    def dim(self) -> int:
        """Dimension of the quadrature vector, ``2 * n_modes``."""
        return 2 * self.n_modes

    @property
    def matrix(self) -> np.ndarray:
        """``Theta``: one exact ``[[0, 1], [-1, 0]]`` block per mode.

        Its entries are 0/+1/-1, so it is orthogonal and antisymmetric and
        ``matrix @ matrix == -I`` holds without rounding error.
        """
        out = np.zeros((self.dim, self.dim))
        q = np.arange(0, self.dim, 2)
        out[q, q + 1] = 1.0
        out[q + 1, q] = -1.0
        return out


def build_symplectic(n_modes: int) -> SymplecticForm:
    """The symplectic form for ``n_modes`` quadrature pairs, a positive integer."""
    n = int(n_modes)
    if n != n_modes or n < 1:
        raise ValueError("n_modes must be a positive integer")
    return SymplecticForm(n_modes=n)


def check_commutation_preservation(E: np.ndarray, form: SymplecticForm) -> float:
    """Commutation residual ``max|E Theta E^T - Theta| / max(1, ||E||_2^2)`` of ``E``.

    The scale judges a propagator with large transients relative to its own
    size.  ``E`` need not come from a realizable drift, so broken flows can
    be probed too.  Where ``||E||_2^2`` overflows, the residual is divided
    by ``||E||_2`` twice instead, so it never reads 0 for want of a divisor.
    """
    Th = form.matrix
    norm = np.linalg.norm(E, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = float(np.max(np.abs(E @ Th @ E.T - Th)))
        square = norm**2
    if np.isfinite(square):
        return float(raw / max(1.0, square))
    return float(raw / norm / norm)
