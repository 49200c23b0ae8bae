"""qchain: cavity-chain quantum observers — construction, certification, simulation.

The package is organised in layers:

* :mod:`qchain.core` — symplectic structure, Hamiltonian/drift maps,
  conservation checks, and the exact conservative propagator.
* :mod:`qchain.network` — open cavity elements with two-quadrature field
  ports and algebraic elimination of their interconnections.
* :mod:`qchain.observer` — closed-form construction of the observer chain
  and its assembly with the plant.
* :mod:`qchain.analysis` — positivity certificates and the ``C/T``
  time-averaged convergence envelope.
* :mod:`qchain.sim` — exact and RK4 trajectory simulation plus consensus
  reporting.
* :mod:`qchain.cli` — the ``qchain`` command line (build / verify /
  simulate / sweep).
"""

from .analysis import (
    BoundReport,
    ConvergenceCertificate,
    HermitianReduction,
    ObserverHamiltonian,
    SplitReport,
    check_hermitian_split,
    check_positive_definite,
    convergence_certificate,
    exp_norm_bound,
    hermitian_reduce,
    observer_hamiltonian,
    time_average_integral,
)
from .core import (
    ClosedSystem,
    CommutationReport,
    ConservativeFlow,
    SymplecticForm,
    build_symplectic,
    check_commutation_preservation,
    drift_from_hamiltonian,
    hamiltonian_from_drift,
)
from .errors import (
    AlgebraicLoopError,
    CertificateError,
    ConfigError,
    ConstructionInconsistencyError,
    IntegratorAccuracyError,
    InvalidStateError,
    QchainError,
    ReadoutOrientationError,
    RealizabilityError,
    UnknownPortError,
)
from .network import (
    FieldPort,
    InterconnectionMap,
    Link,
    OpenSystem,
    ReducedSystem,
    build_chain,
    chain_links,
    connect,
    inport,
    make_cavity,
    make_end_cavity,
    make_plant_ndpa,
    outport,
    verify_noise_cancellation,
)
from .observer import (
    AugmentedSystem,
    ChainParams,
    ObserverRealization,
    PlantSpec,
    assemble_augmented,
    build_observer,
    chain_drift,
    consensus_readout,
    detunings_from_gains,
    gains_from_kappas,
    kappas_from_gains,
    steady_vector,
)
from .sim import (
    ConsensusReport,
    SimulationConfig,
    TimeSeries,
    consensus_report,
    default_sample_dt,
    running_average,
    simulate,
    write_timeseries_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicLoopError",
    "AugmentedSystem",
    "BoundReport",
    "CertificateError",
    "ChainParams",
    "ClosedSystem",
    "CommutationReport",
    "ConfigError",
    "ConsensusReport",
    "ConservativeFlow",
    "ConstructionInconsistencyError",
    "ConvergenceCertificate",
    "FieldPort",
    "HermitianReduction",
    "IntegratorAccuracyError",
    "InterconnectionMap",
    "InvalidStateError",
    "Link",
    "ObserverHamiltonian",
    "ObserverRealization",
    "OpenSystem",
    "PlantSpec",
    "QchainError",
    "ReadoutOrientationError",
    "RealizabilityError",
    "ReducedSystem",
    "SimulationConfig",
    "SplitReport",
    "SymplecticForm",
    "TimeSeries",
    "UnknownPortError",
    "assemble_augmented",
    "build_chain",
    "build_observer",
    "build_symplectic",
    "chain_drift",
    "chain_links",
    "check_commutation_preservation",
    "check_hermitian_split",
    "check_positive_definite",
    "connect",
    "consensus_readout",
    "consensus_report",
    "convergence_certificate",
    "default_sample_dt",
    "detunings_from_gains",
    "drift_from_hamiltonian",
    "exp_norm_bound",
    "gains_from_kappas",
    "hamiltonian_from_drift",
    "hermitian_reduce",
    "inport",
    "kappas_from_gains",
    "make_cavity",
    "make_end_cavity",
    "make_plant_ndpa",
    "observer_hamiltonian",
    "outport",
    "running_average",
    "simulate",
    "steady_vector",
    "time_average_integral",
    "verify_noise_cancellation",
    "write_timeseries_csv",
]
