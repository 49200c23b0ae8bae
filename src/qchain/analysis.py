"""Positivity certificates and time-averaged convergence bounds.

The observer chain is generated by a symmetric block-tridiagonal Hamiltonian
whose blocks are scalar multiples of the identity (detunings) and of the
rotation generator (couplings).  In the amplitudes ``a_k = q_k + i p_k`` that
structure turns the ``2N x 2N`` real matrix into the ``N x N`` Hermitian
tridiagonal matrix ``H = D T D^H`` with the same spectrum (doubled), where
``T = tri(omega, mu_2..mu_N)`` is a real symmetric (Jacobi) matrix and the
phase gauge is ``D = diag(i^k)``.  ``H`` is the chain's one construction:
the real Hamiltonian is ``R = real_embedding(H)`` and the chain drift
``2 Theta R = real_embedding(-2i H)``.  One eigendecomposition ``T = V Lambda V^T``
(``numpy.linalg.eigh`` on the dense Jacobi matrix) therefore carries the
whole chain: the flow is the unitary ``a(t) = D V exp(-2i Lambda t) V^T D^H
a(0)``, its integral replaces each phase by ``(1 - e^{-2i lam t}) / (2i
lam)``, the driven steady offset replaces it by ``1 / (2i lam)``, and the
time average, norm bound and certificate are closed forms in ``Lambda``.
Because ``D`` is exactly unitary and the phases are unimodular,
``sigma_max(V)^2`` bounds the flow's norm at every time at once.

``H`` splits into

* a rank-one corner, the head gain ``mu_1`` in its top-left entry, and
* a remainder that is a manifest sum of squares over the links,

which together prove positive definiteness whenever the head gain is nonzero.
:func:`split_report` checks the split three ways — the remainder equals the
link squares, has no negative eigenvalue and annihilates the alternating
phase vector — each against a threshold scaled by the caller's tolerance
scale.  From the extreme eigenvalues one gets a uniform bound on the
propagator norm and, via an exact integral identity, an ``O(1/T)`` envelope
on time-averaged deviations — the quantitative content of the consensus
guarantee.

Every check and bound here takes the :class:`ObserverHamiltonian` alone:
it holds the chain length, the gains and the spectrum, so the module
imports no other qchain module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A chain whose ``min|lam| <= SINGULAR_TOL * max|lam|`` is singular.
SINGULAR_TOL = 1e-13


def detunings_from_gains(mu) -> np.ndarray:
    """Design detunings: each element is detuned by the sum of its two gains.

    ``omega_i = mu_i + mu_{i+1}`` with the convention that the gain past the
    last element is zero, so the tail element sits at ``omega_N = mu_N``.
    """
    m = np.asarray(mu, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mu must be a non-empty 1-D array")
    omega = m.copy()
    omega[:-1] += m[1:]
    return omega


@dataclass(frozen=True, eq=False)
class ObserverHamiltonian:
    """Symmetric generator of the observer chain, its parameters and spectrum.

    ``H`` is the complex ``N x N`` Hermitian tridiagonal ``D T D^H`` acting
    on the amplitudes ``a_k = q_k + i p_k``; every real chain matrix is an
    embedding of it.  ``matrix`` is ``real_embedding(H)``, the real ``2N x
    2N`` Hamiltonian ``R``, and ``2 Theta R`` equals the chain drift
    ``real_embedding(-2i H)``.  ``lam`` (ascending) and the orthonormal
    columns of ``V`` diagonalize the Jacobi matrix ``T = tri(omega,
    mu_2..mu_N)``; every eigenvalue of ``matrix`` is an entry of ``lam``,
    doubled.
    """

    H: np.ndarray
    mu: np.ndarray
    omega: np.ndarray
    lam: np.ndarray
    V: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The real ``2N x 2N`` Hamiltonian ``R = real_embedding(H)``."""
        return real_embedding(self.H)

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

    @property
    def singular(self) -> bool:
        """Whether ``min|lam| <= SINGULAR_TOL * max|lam|``: no steady offset exists."""
        size = np.abs(self.lam)
        return bool(size.min() <= SINGULAR_TOL * size.max())

    def steady(self, drive) -> np.ndarray:
        """The quadratures ``s`` with ``drift @ s + drive = 0``, in O(N^2).

        In the amplitudes ``s = D V diag(1/(2i lam)) V^T D^H b``: any
        nonsingular chain has one, definite or not.  Raises ``ValueError``
        if the chain is :attr:`singular`.
        """
        if self.singular:
            raise ValueError(
                "chain drift is singular; the driven steady offset does not exist"
            )
        return (self.modes(drive) @ (1.0 / (2j * self.lam))).view(np.float64)


def observer_hamiltonian(mu, omega=None) -> ObserverHamiltonian:
    """Build the chain's Jacobi form ``H`` and its spectrum.

    ``omega=None`` applies the design detuning rule.  The head gain may be
    zero here — that boundary case is exactly where definiteness degenerates
    and is worth probing — but interior gains must stay positive, and every
    gain and detuning must be finite.  The spectrum comes from
    ``numpy.linalg.eigh`` on the dense Jacobi matrix ``tri(omega,
    mu_2..mu_N)``; every chain quantity the package reports is read from
    it, so :func:`qchain.observer.build_observer` builds it once and keeps
    it on the realization.
    """
    m = np.asarray(mu, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mu must be a non-empty 1-D array")
    if not np.all(np.isfinite(m)) or m[0] < 0 or np.any(m[1:] <= 0):
        raise ValueError("gains must be finite, head gain >= 0 and interior gains > 0")
    om = detunings_from_gains(m) if omega is None else np.asarray(omega, dtype=float)
    if om.shape != m.shape:
        raise ValueError("omega must match the number of elements")
    if not np.all(np.isfinite(om)):
        raise ValueError("detunings must be finite")
    lam, V = np.linalg.eigh(_jacobi(m, om))
    return ObserverHamiltonian(H=jacobi_form(m, om), mu=m, omega=om, lam=lam, V=V)


def _jacobi(mu: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Dense ``tri(omega, mu_2..mu_N)``."""
    return np.diag(omega) + np.diag(mu[1:], 1) + np.diag(mu[1:], -1)


def jacobi_form(mu: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The chain's ``H = D T D^H``: ``T`` gauged by ``D = diag(i^k)``.

    On the quadratures the gauge sends the identity to 1 and ``J`` to
    ``-i``, so a detuning stays on the diagonal and each link gain becomes
    ``-i mu`` above it.
    """
    d = np.conj(_alternating_phase_vector(mu.size))
    return d[:, None] * _jacobi(mu, omega) * d.conj()


def real_embedding(M: np.ndarray) -> np.ndarray:
    """Real matrix acting on ``(q_1, p_1, ...)`` as ``M`` acts on ``q + i p``."""
    n = M.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = M.real
    out[0::2, 1::2] = -M.imag
    out[1::2, 0::2] = M.imag
    out[1::2, 1::2] = M.real
    return out


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


def split_report(
    ham: ObserverHamiltonian, tolerance_scale: float = 1.0
) -> tuple[float, float, list[str]]:
    """Verify the corner-plus-squares decomposition actually proves positivity.

    The corner is the head gain ``mu_1`` in the top-left entry of ``H``, and
    the remainder is ``H`` with it taken off.  Three sub-checks, each against
    a threshold times ``(1 + max|H|) * tolerance_scale``: the remainder
    equals the explicit sum of link squares (``1e-13``); the remainder has
    no eigenvalue below ``-1e-11``; the remainder annihilates the
    alternating phase vector (``1e-12 sqrt(N)``), whose first entry is 1, so
    the corner alone gives it the energy ``mu_1`` and a zero head gain
    leaves ``H`` singular.

    Returns ``(residual, tolerance, failures)``: the residual and tolerance
    of the sub-check that decides the split, the one with the largest ratio
    of residual to tolerance (a failing one before any that passes), and a
    human-readable description of each failed sub-check.  ``failures`` is
    empty for chains that follow the design detuning rule; a detuning
    override is precisely what trips them.
    """
    mu = ham.mu
    n = mu.size
    scale = tolerance_scale * (1.0 + float(np.max(np.abs(ham.H))))
    remainder = ham.H.copy()
    remainder[0, 0] -= mu[0]
    recon = float(np.max(np.abs(remainder - _sos_matrix(mu))))
    min_eig = float(np.linalg.eigvalsh(remainder)[0])
    null_resid = float(np.linalg.norm(remainder @ _alternating_phase_vector(n)))

    subchecks = (
        (recon, 1e-13 * scale,
         f"remainder is not the sum of link squares ({recon:.3e})"),
        (max(0.0, -min_eig), 1e-11 * scale,
         f"remainder has a negative eigenvalue ({min_eig:.3e})"),
        (null_resid, 1e-12 * scale * np.sqrt(n),
         f"phase vector not annihilated ({null_resid:.3e})"),
    )
    failures = [message for resid, tol, message in subchecks if resid > tol]
    resid, tol, _ = max(subchecks, key=lambda c: (c[0] > c[1], c[0] / c[1]))
    return resid, float(tol), failures


def check_positive_definite(ham: ObserverHamiltonian) -> tuple[bool, float, float]:
    """Extreme eigenvalues of the chain Hamiltonian and whether it is PD."""
    lo, hi = float(ham.lam[0]), float(ham.lam[-1])
    return lo > 0.0, lo, hi


def _positive_spectrum(ham: ObserverHamiltonian) -> tuple[float, float]:
    """Extreme eigenvalues of a positive definite, nonsingular chain."""
    ok, lo, hi = check_positive_definite(ham)
    if not ok:
        raise ValueError(f"chain Hamiltonian is not positive definite (min {lo:.3e})")
    if ham.singular:
        raise ValueError(f"chain Hamiltonian is singular (min {lo:.3e}, max {hi:.3e})")
    return lo, hi


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Propagator norm bounds against the uniform spectral bound.

    ``norms[k]`` is an upper bound on ``||exp(2 Theta R t_k)||_2``: the one
    figure ``sigma_max(V)^2``, which holds at every time.
    """

    times: np.ndarray
    norms: np.ndarray
    bound: float
    passed: bool


def exp_norm_bound(ham: ObserverHamiltonian, times) -> BoundReport:
    """Check ``||exp(2 Theta R t)||_2 <= sqrt(l_max / l_min)`` at probe times.

    The flow is ``D V exp(-2i Lambda t) V^T D^H`` in the amplitudes, with
    ``D`` exactly unitary and unimodular phases, so its norm is at most
    ``sigma_max(V)^2`` at every ``t``: one SVD of ``V`` bounds all probe
    times, and it can only err toward failing the check.

    Raises
    ------
    ValueError
        If the Hamiltonian is not positive definite (the bound needs both
        extreme eigenvalues positive).
    """
    lo, hi = _positive_spectrum(ham)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0):
        raise ValueError("probe times must be non-negative")
    norms = np.full(ts.size, np.linalg.norm(ham.V, 2) ** 2)
    bound = float(np.sqrt(hi / lo))
    passed = bool(np.all(norms <= bound * (1.0 + 1e-9)))
    return BoundReport(times=ts, norms=norms, bound=bound, passed=passed)


def time_average_integral(ham: ObserverHamiltonian, horizon: float) -> np.ndarray:
    """Exact matrix integral of the propagator over ``[0, horizon]``.

    Uses the closed form ``D V diag((1 - exp(-2i lam T)) / (2i lam)) V^T D^H``
    in the amplitudes, returned as the real ``2N x 2N`` matrix acting on the
    quadratures; no quadrature rule is involved, so the result is accurate at
    any horizon.  It needs only ``lam != 0``: it refuses a negative horizon
    or a :attr:`~ObserverHamiltonian.singular` chain, not an indefinite one.
    """
    if not horizon >= 0:
        raise ValueError("horizon must be non-negative")
    if ham.singular:
        raise ValueError("chain Hamiltonian is singular; the integral needs lam != 0")
    lam = ham.lam
    weights = (1.0 - np.exp(-2j * lam * float(horizon))) / (2j * lam)
    return real_embedding(ham.spectral_matrix(weights))


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


def convergence_certificate(ham: ObserverHamiltonian) -> ConvergenceCertificate:
    """Assemble the certificate from the extreme eigenvalues.

    The propagator norm is uniformly bounded by ``sqrt(l_max / l_min)``, so
    the integral identity gives ``C = (1/2) (bound + 1) ||R^{-1} Theta^{-1}||``,
    and ``Theta`` is orthogonal, so ``||R^{-1} Theta^{-1}|| = 1 / l_min``.

    Raises
    ------
    ValueError
        If the Hamiltonian is not positive definite.
    """
    lo, hi = _positive_spectrum(ham)
    bound = float(np.sqrt(hi / lo))
    return ConvergenceCertificate(
        lambda_min=lo,
        lambda_max=hi,
        exp_bound=bound,
        avg_constant=0.5 * (bound + 1.0) / lo,
    )
