"""Independent references the tests compare the package against.

No command runs these.  :class:`ConservativeFlow` is the dense exact flow of
any positive-definite real Hamiltonian, the route the chain's Jacobi-form
flow, time average and certificate replaced (``tests/test_parity.py``,
acceptance criterion 6).
"""

from __future__ import annotations

import numpy as np

from qchain.errors import QchainError

#: Default absolute tolerance for symmetry of a supplied Hamiltonian matrix.
HAMILTONIAN_SYMMETRY_TOL = 1e-12


class RealizabilityError(QchainError, ValueError):
    """The dynamics are not generated by any symmetric Hamiltonian.

    Raised when a supplied Hamiltonian matrix is asymmetric beyond
    tolerance, i.e. the flow it generates cannot preserve canonical
    commutation relations.
    """

    def __init__(self, message: str, asymmetry: float | None = None):
        super().__init__(message)
        self.asymmetry = asymmetry


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
    """

    def __init__(self, hamiltonian, form):
        R = np.asarray(hamiltonian, dtype=float)
        if R.shape != (form.dim, form.dim):
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
