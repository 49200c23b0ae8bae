"""Positivity certificates and time-averaged convergence bounds.

The observer chain is generated by a symmetric block-tridiagonal Hamiltonian
whose blocks are scalar multiples of the identity (detunings) and of the
rotation generator (couplings).  In the amplitudes ``a_k = q_k + i p_k`` that
structure turns the ``2N x 2N`` real matrix into the ``N x N`` Hermitian
tridiagonal matrix ``H = D T D^H`` with the same spectrum (doubled), where
``T = tri(omega, mu_2..mu_N)`` is a real symmetric (Jacobi) matrix and the
phase gauge is ``D = diag(i^k)``.  One eigendecomposition ``T = V Lambda V^T``
therefore carries the whole chain: the flow is the unitary
``a(t) = D V exp(-2i Lambda t) V^T D^H a(0)``, and its time average, norm
bound and certificate are closed forms in ``Lambda``.

``H`` splits into

* a rank-one corner holding the head gain, and
* a remainder that is a manifest sum of squares over the links,

which together prove positive definiteness whenever the head gain is nonzero.
From the extreme eigenvalues one gets a uniform bound on the propagator norm
and, via an exact integral identity, an ``O(1/T)`` envelope on time-averaged
deviations — the quantitative content of the consensus guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import SymplecticForm, build_symplectic, hamiltonian_from_drift
from .observer import chain_drift, detunings_from_gains


@dataclass(frozen=True, eq=False)
class ObserverHamiltonian:
    """Symmetric generator of the observer chain, its parameters and spectrum.

    ``matrix`` is the real ``2N x 2N`` Hamiltonian ``R`` with ``2 Theta R``
    equal to the chain drift.  ``lam`` (ascending) and the orthonormal
    columns of ``V`` diagonalize the Jacobi matrix ``T = tri(omega,
    mu_2..mu_N)``; every eigenvalue of ``matrix`` is an entry of ``lam``,
    doubled.
    """

    matrix: np.ndarray
    mu: np.ndarray
    omega: np.ndarray
    lam: np.ndarray
    V: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.mu.size

    @property
    def gauge(self) -> np.ndarray:
        """Phases ``d_k = i^k`` (exact) with ``H = D T D^H``."""
        return np.conj(_alternating_phase_vector(self.mu.size))

    @property
    def basis(self) -> np.ndarray:
        """Eigenmodes of the flow in the amplitudes: the columns of ``D V``."""
        return self.gauge[:, None] * self.V

    def spectral_matrix(self, weights) -> np.ndarray:
        """Complex ``N x N`` matrix ``D V diag(weights) V^T D^H``."""
        B = self.basis
        return (B * weights) @ B.conj().T

    def modes(self, x) -> np.ndarray:
        """Split the quadratures ``x`` into eigenmodes of the flow.

        Column ``k`` is the amplitude pattern that evolves as
        ``exp(-2i lam_k t)``, so ``a(t) = modes @ exp(-2i lam t)``.
        """
        B = self.basis
        return B * (B.conj().T @ (x[0::2] + 1j * x[1::2]))

    def propagator(self, t: float) -> np.ndarray:
        """Unitary chain flow ``exp(-2i H t)`` acting on the amplitudes."""
        return self.spectral_matrix(np.exp(-2j * self.lam * float(t)))


def observer_hamiltonian(mu, omega=None) -> ObserverHamiltonian:
    """Build the chain Hamiltonian ``R`` with ``2 Theta R`` equal to the drift.

    ``omega=None`` applies the design detuning rule.  The head gain may be
    zero here — that boundary case is exactly where definiteness degenerates
    and is worth probing — but interior gains must stay positive.  The
    spectrum comes from ``scipy.linalg.eigh_tridiagonal`` on the Jacobi form.
    """
    m = np.asarray(mu, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mu must be a non-empty 1-D array")
    if m[0] < 0 or np.any(m[1:] <= 0):
        raise ValueError("head gain must be >= 0 and interior gains > 0")
    om = detunings_from_gains(m) if omega is None else np.asarray(omega, dtype=float)
    if om.shape != m.shape:
        raise ValueError("omega must match the number of elements")
    R = hamiltonian_from_drift(chain_drift(m, om), build_symplectic(m.size))
    lam, V = scipy.linalg.eigh_tridiagonal(om, m[1:])
    return ObserverHamiltonian(matrix=R, mu=m, omega=om, lam=lam, V=V)


def _real_embedding(M: np.ndarray) -> np.ndarray:
    """Real matrix acting on ``(q_1, p_1, ...)`` as ``M`` acts on ``q + i p``."""
    n = M.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = M.real
    out[0::2, 1::2] = -M.imag
    out[1::2, 0::2] = M.imag
    out[1::2, 1::2] = M.real
    return out


def _check_form(ham: ObserverHamiltonian, form: SymplecticForm) -> None:
    if form.n_modes != ham.n_elements:
        raise ValueError("symplectic form does not match the chain length")


@dataclass(frozen=True, eq=False)
class HermitianReduction:
    """Complex ``N x N`` image of the chain Hamiltonian and its split.

    ``matrix = corner + remainder`` where ``corner`` carries the head gain in
    its top-left entry and ``remainder`` is the sum-of-squares part.
    """

    matrix: np.ndarray
    corner: np.ndarray
    remainder: np.ndarray
    mu: np.ndarray


def hermitian_reduce(ham: ObserverHamiltonian) -> HermitianReduction:
    """Gauge the Jacobi matrix into ``H = D T D^H`` (identity -> 1, J -> -i)."""
    m, om = ham.mu, ham.omega
    n = m.size
    jacobi = np.diag(om) + np.diag(m[1:], 1) + np.diag(m[1:], -1)
    d = ham.gauge
    tri = d[:, None] * jacobi * d.conj()
    corner = np.zeros((n, n), dtype=complex)
    corner[0, 0] = m[0]
    return HermitianReduction(matrix=tri, corner=corner, remainder=tri - corner, mu=m)


def _sos_matrix(mu: np.ndarray) -> np.ndarray:
    """Sum over links of ``mu_{k+1} u u^H`` with ``u = -i e_k + e_{k+1}``."""
    n = mu.size
    out = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        u = np.zeros(n, dtype=complex)
        u[k] = -1j
        u[k + 1] = 1.0
        out += mu[k + 1] * np.outer(u, u.conj())
    return out


def _alternating_phase_vector(n: int) -> np.ndarray:
    """The vector ``(1, -i, -1, i, ...)`` annihilated by every link square."""
    return np.array([1.0, -1j, -1.0, 1j])[np.arange(n) % 4]


#: Random quadratic forms compared with their sum-of-squares evaluation.
SPLIT_DRAWS = 25


@dataclass(frozen=True, eq=False)
class SplitReport:
    """Residuals of the positivity-split sub-checks (all should be tiny)."""

    corner_value: float
    remainder_reconstruction: float
    remainder_min_eig: float
    null_residual: float
    corner_null_energy: float
    sos_draw_error: float
    passed: bool


def split_report(
    red: HermitianReduction, seed: int = 0
) -> tuple[SplitReport, list[str]]:
    """Verify the corner-plus-squares decomposition actually proves positivity.

    Checks, in order: the remainder equals the explicit sum of link squares;
    random quadratic forms (``SPLIT_DRAWS`` of them) match the sum-of-squares
    evaluation; the remainder has no eigenvalue below zero (up to rounding);
    the alternating phase vector is annihilated by the remainder while the
    corner assigns it the head gain.

    Returns the report plus a list of human-readable failure descriptions,
    empty for chains that follow the design detuning rule; a detuning
    override is precisely what trips them.
    """
    mu = red.mu
    n = mu.size
    scale = 1.0 + float(np.max(np.abs(red.matrix)))
    sos = _sos_matrix(mu)
    recon = float(np.max(np.abs(red.remainder - sos)))

    rng = np.random.default_rng(seed)
    draw_err = 0.0
    for _ in range(SPLIT_DRAWS):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a /= np.linalg.norm(a)
        direct = float(np.real(a.conj() @ red.remainder @ a))
        squares = float(
            sum(
                mu[k + 1] * abs(1j * a[k] + a[k + 1]) ** 2
                for k in range(n - 1)
            )
        )
        draw_err = max(draw_err, abs(direct - squares))

    # A Hermitian tridiagonal matrix is unitarily similar to the real one with
    # the moduli of its off-diagonal entries.
    rem = red.remainder
    min_eig = float(
        scipy.linalg.eigvalsh_tridiagonal(rem.diagonal().real, np.abs(rem.diagonal(1)))[0]
    )
    v = _alternating_phase_vector(n)
    null_resid = float(np.linalg.norm(red.remainder @ v))
    corner_energy = float(np.real(v.conj() @ red.corner @ v))

    failures = []
    if recon > 1e-13 * scale:
        failures.append(f"remainder is not the sum of link squares ({recon:.3e})")
    if draw_err > 1e-11 * scale:
        failures.append(f"quadratic-form mismatch on random draws ({draw_err:.3e})")
    if min_eig < -1e-11 * scale:
        failures.append(f"remainder has a negative eigenvalue ({min_eig:.3e})")
    if null_resid > 1e-12 * scale * np.sqrt(n):
        failures.append(f"phase vector not annihilated ({null_resid:.3e})")
    if abs(corner_energy - mu[0]) > 1e-12 * scale:
        failures.append(
            f"corner energy of the phase vector is {corner_energy:.6e}, "
            f"expected the head gain {mu[0]:.6e}"
        )
    report = SplitReport(
        corner_value=float(mu[0]),
        remainder_reconstruction=recon,
        remainder_min_eig=min_eig,
        null_residual=null_resid,
        corner_null_energy=corner_energy,
        sos_draw_error=draw_err,
        passed=not failures,
    )
    return report, failures


def check_positive_definite(ham: ObserverHamiltonian) -> tuple[bool, float, float]:
    """Extreme eigenvalues of the chain Hamiltonian and whether it is PD."""
    lo, hi = float(ham.lam[0]), float(ham.lam[-1])
    return lo > 0.0, lo, hi


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Propagator norms against the uniform spectral bound."""

    times: np.ndarray
    norms: np.ndarray
    bound: float
    conservation_drift: float
    passed: bool


def exp_norm_bound(
    ham: ObserverHamiltonian,
    form: SymplecticForm,
    times,
    probe_seed: int = 0,
) -> BoundReport:
    """Check ``||exp(2 Theta R t)||_2 <= sqrt(l_max / l_min)`` at probe times.

    Also propagates a random probe state and reports the relative drift of
    its quadratic energy, which the exact flow must conserve.

    Raises
    ------
    ValueError
        If the Hamiltonian is not positive definite (the bound needs both
        extreme eigenvalues positive).
    """
    ok, lo, hi = check_positive_definite(ham)
    if not ok:
        raise ValueError(f"chain Hamiltonian is not positive definite (min {lo:.3e})")
    _check_form(ham, form)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0):
        raise ValueError("probe times must be non-negative")
    norms = np.array([np.linalg.norm(ham.propagator(t), 2) for t in ts])
    bound = float(np.sqrt(hi / lo))

    rng = np.random.default_rng(probe_seed)
    x0 = rng.standard_normal(form.dim)
    amplitudes = np.exp(np.outer(ts, -2j * ham.lam)) @ ham.modes(x0).T
    states = amplitudes.view(np.float64)  # (q_1, p_1, ...)
    energies = 0.5 * np.sum((states @ ham.matrix) * states, axis=1)
    e0 = 0.5 * x0 @ ham.matrix @ x0
    drift = float(np.max(np.abs(energies - e0)) / max(abs(e0), 1e-300))

    passed = bool(np.all(norms <= bound * (1.0 + 1e-9))) and drift <= 1e-9
    return BoundReport(
        times=ts, norms=norms, bound=bound, conservation_drift=drift, passed=passed
    )


def time_average_integral(
    ham: ObserverHamiltonian, form: SymplecticForm, horizon: float
) -> np.ndarray:
    """Exact matrix integral of the propagator over ``[0, horizon]``.

    Uses the closed form ``D V diag((1 - exp(-2i lam T)) / (2i lam)) V^T D^H``
    in the amplitudes, returned as the real ``2N x 2N`` matrix acting on the
    quadratures; no quadrature rule is involved, so the result is accurate at
    any horizon.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    ok, lo, _ = check_positive_definite(ham)
    if not ok:
        raise ValueError(f"chain Hamiltonian is not positive definite (min {lo:.3e})")
    _check_form(ham, form)
    lam = ham.lam
    weights = (1.0 - np.exp(-2j * lam * float(horizon))) / (2j * lam)
    return _real_embedding(ham.spectral_matrix(weights))


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Spectral data certifying the ``O(1/T)`` consensus envelope.

    ``avg_constant`` is the constant ``C`` such that the time-averaged
    propagator has spectral norm at most ``C / T`` for every horizon ``T``.
    """

    lambda_min: float
    lambda_max: float
    exp_bound: float
    avg_constant: float


def convergence_certificate(
    ham: ObserverHamiltonian, form: SymplecticForm
) -> ConvergenceCertificate:
    """Assemble the certificate from the extreme eigenvalues.

    The propagator norm is uniformly bounded by ``sqrt(l_max / l_min)``, so
    the integral identity gives ``C = (1/2) (bound + 1) ||R^{-1} Theta^{-1}||``,
    and ``Theta`` is orthogonal, so ``||R^{-1} Theta^{-1}|| = 1 / l_min``.

    Raises
    ------
    ValueError
        If the Hamiltonian is not positive definite.
    """
    ok, lo, hi = check_positive_definite(ham)
    if not ok:
        raise ValueError(f"chain Hamiltonian is not positive definite (min {lo:.3e})")
    _check_form(ham, form)
    bound = float(np.sqrt(hi / lo))
    return ConvergenceCertificate(
        lambda_min=lo,
        lambda_max=hi,
        exp_bound=bound,
        avg_constant=0.5 * (bound + 1.0) / lo,
    )
