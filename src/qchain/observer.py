"""Closed-form construction of the cavity-chain distributed observer.

Given a static single-mode plant whose observable of interest is ``z = alpha^T
x_p``, the observer is a serial chain of ``N`` cavity modes.  The first mode
couples directly to the plant through the rank-one Hamiltonian ``alpha
beta^T`` with ``beta = -mu_1 alpha``; subsequent modes couple to their
neighbours with gains ``mu_i`` obtained from the mirror transmissivities, and
each cavity is detuned by the sum of the two gains it participates in.  With
those detunings the chain admits a steady configuration in which every mode
holds a rotated copy of the plant observable, and a per-element readout
recovers ``z`` from each mode with unit gain — the consensus the rest of the
package certifies and simulates.

The chain's Jacobi form ``H`` and its spectrum come from
:func:`qchain.analysis.observer_hamiltonian`, built once per realization;
the chain drift and the chain block of the augmented Hamiltonian are both
real embeddings of that one ``H``.

All builders here are purely algebraic (no field ports); the network module
realises the same closed loop by eliminating travelling fields, and agreement
between the two routes is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ObserverHamiltonian, observer_hamiltonian, real_embedding
from .core import J2, SymplecticForm, build_symplectic
from .errors import ConstructionInconsistencyError

#: Default absolute tolerance on the steady-configuration defining identity.
STEADY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PlantSpec:
    """The static plant: a single mode with observable ``z = alpha^T x_p``."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (2,):
            raise ValueError("alpha must be a length-2 vector")
        object.__setattr__(self, "alpha", a)
        if not np.all(np.isfinite(a)) or self.norm_sq == 0.0:
            raise ValueError("alpha must be finite and nonzero")

    @property
    def norm_sq(self) -> float:
        """``|alpha|^2``; ``inf`` if it overflows (:func:`build_observer` refuses it)."""
        with np.errstate(over="ignore"):
            return float(self.alpha @ self.alpha)


@dataclass(frozen=True, eq=False)
class ChainParams:
    """Physical chain parameters: head gain plus mirror transmissivities.

    ``kappas`` is flat and chain-ordered: ``[k_1b, k_2a, k_2b, ..., k_{N-1}b,
    k_Na]`` — the ``b`` mirror of each element followed by the ``a`` mirror of
    the next.  A single-element chain has no mirrors at all.
    """

    n_elements: int
    mu_1: float
    kappas: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if not self.mu_1 > 0:
            raise ValueError("mu_1 must be positive")
        kap = tuple(float(k) for k in self.kappas)
        expected = 2 * self.n_elements - 2
        if len(kap) != expected:
            raise ValueError(
                f"{self.n_elements}-element chain needs {expected} transmissivities, "
                f"got {len(kap)}"
            )
        if any(k <= 0 for k in kap):
            raise ValueError("all mirror transmissivities must be positive")
        object.__setattr__(self, "kappas", kap)

    def link_pair(self, i: int) -> tuple[float, float]:
        """Transmissivities ``(k_{i-1,b}, k_{i,a})`` of the link into element i >= 2."""
        if not 2 <= i <= self.n_elements:
            raise ValueError(f"link index must be in [2, {self.n_elements}]")
        return self.kappas[2 * i - 4], self.kappas[2 * i - 3]


def gains_from_kappas(params: ChainParams) -> np.ndarray:
    """Neighbour coupling gains induced by the mirror transmissivities.

    The head gain is ``mu_1`` verbatim; each interior gain is a quarter of the
    geometric mean of the two transmissivities facing each other across the
    link: ``mu_i = sqrt(k_{i-1,b} * k_{i,a}) / 4``.
    """
    mu = np.empty(params.n_elements)
    mu[0] = params.mu_1
    for i in range(2, params.n_elements + 1):
        kb, ka = params.link_pair(i)
        mu[i - 1] = 0.25 * np.sqrt(kb * ka)
    return mu


def kappas_from_gains(mu) -> ChainParams:
    """Mirror transmissivities realising the given gains.

    The balanced choice puts ``4 mu_i`` on both mirrors of each link.
    """
    m = np.asarray(mu, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mu must be a non-empty 1-D array")
    if np.any(m <= 0):
        raise ValueError("all gains must be positive")
    kappas = []
    for g in m[1:]:
        kappas.extend((4.0 * g, 4.0 * g))
    return ChainParams(n_elements=m.size, mu_1=float(m[0]), kappas=tuple(kappas))


@dataclass(frozen=True, eq=False)
class ObserverRealization:
    """A concrete observer chain, ready to attach to its plant.

    Fields
    ------
    hamiltonian:
        The chain's Jacobi form and spectrum; its ``mu`` and ``omega`` are
        the gains and detunings in force (``omega`` may differ from the
        design rule if an override was requested).
    drift:
        ``(2N, 2N)`` chain drift ``real_embedding(-2i H)``.
    input_vector:
        ``(2N,)`` drive direction multiplying the plant observable ``z``.
    readout:
        ``(N, 2N)`` per-element consensus readout rows.
    coupling:
        ``(2, 2)`` symmetric plant-to-head Hamiltonian block.
    steady_pattern:
        ``(2N, 2)`` stacked per-element rotations; the steady configuration
        is ``steady_pattern @ alpha * z``.
    """

    hamiltonian: ObserverHamiltonian
    drift: np.ndarray
    input_vector: np.ndarray
    readout: np.ndarray
    coupling: np.ndarray
    steady_pattern: np.ndarray

    @property
    def mu(self) -> np.ndarray:
        return self.hamiltonian.mu

    @property
    def omega(self) -> np.ndarray:
        return self.hamiltonian.omega

    @property
    def n_elements(self) -> int:
        return self.mu.size

    @property
    def state_dim(self) -> int:
        return 2 * self.mu.size


def build_observer(
    plant: PlantSpec, mu, omega_override=None
) -> ObserverRealization:
    """Construct the observer chain for a plant and a set of coupling gains.

    Parameters
    ----------
    plant:
        Plant description supplying the observed direction ``alpha``.
    mu:
        Positive coupling gains, one per chain element.  ``mu_1`` scales the
        plant-to-head coupling; ``mu_2 .. mu_N`` the neighbour exchanges.
    omega_override:
        Optional explicit detunings replacing the design rule.  Intended for
        probing how the construction degrades; any override that differs from
        :func:`qchain.analysis.detunings_from_gains` breaks the steady
        configuration, which :func:`steady_vector` will report.  It must be
        finite.

    Raises ``ValueError`` for gains that are not positive and finite, if
    ``|alpha|^2`` or twice the plant coupling ``mu_1 alpha alpha^T``
    overflows, or if the chain drift ``-2i H`` does.
    """
    m = np.asarray(mu, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mu must be a non-empty 1-D array")
    if np.any(~np.isfinite(m)) or np.any(m <= 0):
        raise ValueError("all coupling gains must be positive and finite")
    n = m.size
    ham = observer_hamiltonian(m, omega_override)

    alpha = plant.alpha
    input_vector = np.zeros(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        beta = -m[0] * alpha
        coupling = np.outer(alpha, beta)
        input_vector[0:2] = 2.0 * (J2 @ beta)
        # assemble_augmented's cross blocks are 2 J coupling
        plant_finite = np.isfinite(plant.norm_sq) and np.all(
            np.isfinite(np.column_stack([2.0 * coupling, input_vector[0:2]]))
        )
        drift = real_embedding(-2j * ham.H)
    if not plant_finite:
        raise ValueError(
            "the plant coupling is not finite: "
            "|alpha|^2 or mu_1 alpha alpha^T overflows"
        )
    if not np.all(np.isfinite(drift)):
        raise ValueError("the chain drift is not finite: a detuning or gain overflows")

    readout = np.empty((n, 2 * n))
    rot = np.eye(2)  # accumulates (-J)^(i-1)
    for i in range(n):
        readout[i] = 0.0
        readout[i, 2 * i : 2 * i + 2] = (alpha @ rot) / plant.norm_sq
        rot = rot @ (-J2)

    pattern = np.zeros((2 * n, 2))
    rot = np.eye(2)  # accumulates J^(i-1)
    for i in range(n):
        pattern[2 * i : 2 * i + 2] = rot
        rot = J2 @ rot

    return ObserverRealization(
        hamiltonian=ham,
        drift=drift,
        input_vector=input_vector,
        readout=readout,
        coupling=coupling,
        steady_pattern=pattern,
    )


def steady_vector(
    realization: ObserverRealization,
    plant: PlantSpec,
    z_p: float,
    tol: float | None = STEADY_TOL,
) -> tuple[np.ndarray, float]:
    """Steady chain configuration holding the plant observable, plus residual.

    Returns the ``2N`` vector ``x_bar`` with each element carrying a rotated
    copy of ``z_p`` along ``alpha``, and the norm of ``drift @ x_bar +
    input_vector * z_p`` — zero exactly when the detunings follow the design
    rule.

    Raises
    ------
    ConstructionInconsistencyError
        If ``tol`` is not ``None`` and the residual exceeds it.
    """
    x_bar = realization.steady_pattern @ plant.alpha * float(z_p)
    residual = float(
        np.linalg.norm(realization.drift @ x_bar + realization.input_vector * z_p)
    )
    if tol is not None and residual > tol:
        raise ConstructionInconsistencyError(
            f"steady configuration violates the chain dynamics "
            f"(residual {residual:.3e} > {tol:.1e}); detunings do not follow "
            "the design rule",
            residual=residual,
        )
    return x_bar, residual


def consensus_readout(realization: ObserverRealization, plant: PlantSpec) -> np.ndarray:
    """Per-element readout gains of the steady configuration; all ones by design."""
    return realization.readout @ (realization.steady_pattern @ plant.alpha)


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """Plant and observer assembled into one closed conservative system.

    The state stacks the two plant quadratures ahead of the ``2N`` observer
    quadratures.  ``hamiltonian`` is the full symmetric generator (zero plant
    block, symmetric cross coupling, chain block); ``plant_readout`` and
    ``observer_readout`` evaluate ``z`` and the per-element estimates on the
    augmented state.
    """

    drift: np.ndarray
    form: SymplecticForm
    hamiltonian: np.ndarray
    plant_readout: np.ndarray
    observer_readout: np.ndarray
    plant: PlantSpec
    realization: ObserverRealization

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


def assemble_augmented(
    realization: ObserverRealization, plant: PlantSpec
) -> AugmentedSystem:
    """Join plant and observer into the augmented conservative system.

    The plant block is static; the cross blocks are ``2 J`` times the
    symmetric coupling, acting in both directions; the observer blocks are
    the chain drift and the chain Hamiltonian, both embeddings of the
    realization's ``H``.  So the drift is ``2 Theta R`` for the assembled
    Hamiltonian ``R`` by construction, exactly: every entry of ``Theta`` is
    0 or +-1, so both sides round alike.
    """
    n = realization.state_dim
    dim = n + 2
    drift = np.zeros((dim, dim))
    drift[2:, 2:] = realization.drift
    cross = 2.0 * (J2 @ realization.coupling)
    drift[0:2, 2:4] = cross
    drift[2:4, 0:2] = cross

    hamiltonian = np.zeros((dim, dim))
    hamiltonian[0:2, 2:4] = realization.coupling
    hamiltonian[2:4, 0:2] = realization.coupling
    hamiltonian[2:, 2:] = realization.hamiltonian.matrix

    plant_readout = np.zeros(dim)
    plant_readout[0:2] = plant.alpha
    observer_readout = np.zeros((realization.n_elements, dim))
    observer_readout[:, 2:] = realization.readout

    return AugmentedSystem(
        drift=drift,
        form=build_symplectic(realization.n_elements + 1),
        hamiltonian=hamiltonian,
        plant_readout=plant_readout,
        observer_readout=observer_readout,
        plant=plant,
        realization=realization,
    )
