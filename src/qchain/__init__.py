"""qchain: cavity-chain quantum observers — construction, certification, simulation.

The package is organised in layers:

* :mod:`qchain.core` — symplectic structure and the commutation residual.
* :mod:`qchain.network` — the chain's open cavity elements with
  two-quadrature field ports, their links and one solve that eliminates
  the linked fields.
* :mod:`qchain.analysis` — the chain's Jacobi form ``H`` and its spectrum,
  positivity certificates and the ``C/T`` time-averaged convergence
  envelope, all taking that spectrum as their only chain argument; it
  imports no other qchain module.
* :mod:`qchain.observer` — closed-form construction of the observer chain,
  which builds ``H`` once and reads its drift and Hamiltonian from it, and
  its assembly with the plant.
* :mod:`qchain.sim` — exact and RK4 trajectory simulation plus consensus
  reporting.
* :mod:`qchain.cli` — the ``qchain`` command line (build / verify /
  simulate / sweep).

The top level re-exports the names of the README's library example plus
:class:`QchainError`; everything else is reached as ``qchain.<module>.<name>``.
"""

from . import analysis, core, errors, network, observer, sim
from .analysis import convergence_certificate
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
    "consensus_report",
    "convergence_certificate",
    "simulate",
]
