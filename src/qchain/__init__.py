"""qchain: cavity-chain quantum observers — construction, certification, simulation.

The package is organised in layers:

* :mod:`qchain.core` — symplectic structure, the drift-to-Hamiltonian map,
  the commutation check, and the reference conservative propagator.
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

The top level re-exports the names of the README's library example plus
:class:`QchainError`; everything else is reached as ``qchain.<module>.<name>``.
"""

from . import analysis, core, errors, network, observer, sim
from .analysis import convergence_certificate, observer_hamiltonian
from .core import build_symplectic
from .errors import QchainError
from .observer import PlantSpec, assemble_augmented, build_observer
from .sim import SimulationConfig, consensus_report, simulate

__version__ = "0.1.0"

__all__ = [
    "PlantSpec",
    "QchainError",
    "SimulationConfig",
    "assemble_augmented",
    "build_observer",
    "build_symplectic",
    "consensus_report",
    "convergence_certificate",
    "observer_hamiltonian",
    "simulate",
]
