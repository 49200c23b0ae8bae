"""The chain's field network: cavity elements, links and one port solve.

The paper realises the observer as optical elements joined by travelling
fields.  Each element is a linear open system whose ports carry the two
quadratures of one field, so port-level gains are ``(n, 2)`` / ``(2, n)``
blocks and feedthroughs are ``2 x 2``.  :func:`build_chain` states the serial
chain: the plant/amplifier element feeding a line of passive cavities, with
counter-propagating links between neighbours.  :func:`connect` substitutes
the port equations and solves them in one global linear solve, producing
the drift of the reduced network plus the gains of any input no link drives.

Every input of the chain is a link sink, so the residual noise is empty and
the interconnection cancels all damping terms exactly.  The module states
that chain; it does not validate arbitrary port graphs.  The loop matrix
``I - L D`` of every chain is ``sqrt(2)`` times an orthogonal matrix (it
holds no chain parameter), so the solve is always well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import J2

#: Quadratures per field port.
PORT_WIDTH = 2


class FieldPort(NamedTuple):
    """One travelling-field port of an optical element.

    ``element`` is the 1-based position of the element along the chain,
    ``label`` names the mirror side (``"a"`` faces the previous element,
    ``"b"`` the next), and ``direction`` distinguishes the driving field
    (``"in"``) from the emitted field (``"out"``).  Ports always carry
    :data:`PORT_WIDTH` quadratures and sort by element, then label.
    """

    element: int
    label: str
    direction: str


def inport(element: int, label: str) -> FieldPort:
    return FieldPort(element, label, "in")


def outport(element: int, label: str) -> FieldPort:
    return FieldPort(element, label, "out")


@dataclass(frozen=True, eq=False)
class OpenSystem:
    """A linear open system with two-quadrature field ports.

    The dynamics are ``dx = drift x dt + sum_p input_gains[p] dw_p`` and each
    output port emits ``dy_p = output_gains[p] x dt + sum_q feedthrough[p, q]
    dw_q``.  Feedthrough entries are keyed ``(out_port, in_port)``; missing
    keys mean a zero block.
    """

    drift: np.ndarray
    input_gains: dict[FieldPort, np.ndarray]
    output_gains: dict[FieldPort, np.ndarray]
    feedthrough: dict[tuple[FieldPort, FieldPort], np.ndarray]

    @property
    def state_dim(self) -> int:
        return self.drift.shape[0]


def make_plant_ndpa(alpha, beta, kappa_1b, omega_1) -> OpenSystem:
    """Plant plus amplifier element at the head of the chain, element 1.

    The element carries four state variables: the two plant quadratures
    followed by the two amplifier-cavity quadratures.  The plant has no free
    dynamics of its own; it couples to the cavity through the rank-one
    Hamiltonian ``alpha beta^T``, while the cavity sees the field line through
    a single mirror of transmissivity ``kappa_1b``.  The emitted field leaves
    on the ``a`` side (gain ``sqrt(kappa_1b)``) with unit feedthrough from the
    ``b``-side input — the same cross-pairing the passive cavities use.

    Parameters
    ----------
    alpha:
        Plant quadrature the network observes, ``z = alpha^T x_p``.
    beta:
        Amplifier quadrature entering the coupling Hamiltonian.
    kappa_1b:
        Mirror transmissivity of the single open mirror ( > 0).
    omega_1:
        Detuning of the amplifier cavity.
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if a.shape != (2,) or b.shape != (2,):
        raise ValueError("alpha and beta must be length-2 vectors")
    if kappa_1b <= 0:
        raise ValueError("kappa_1b must be positive")
    k = float(kappa_1b)
    root = np.sqrt(k)
    drift = np.zeros((4, 4))
    drift[0:2, 2:4] = 2.0 * J2 @ np.outer(a, b)
    drift[2:4, 0:2] = 2.0 * J2 @ np.outer(b, a)
    drift[2:4, 2:4] = 2.0 * float(omega_1) * J2 - 0.5 * k * np.eye(2)
    gain_in = np.zeros((4, 2))
    gain_in[2:4, :] = -root * np.eye(2)
    gain_out = np.zeros((2, 4))
    gain_out[:, 2:4] = root * np.eye(2)
    w_b = inport(1, "b")
    y_a = outport(1, "a")
    return OpenSystem(
        drift=drift,
        input_gains={w_b: gain_in},
        output_gains={y_a: gain_out},
        feedthrough={(y_a, w_b): np.eye(2)},
    )


def make_cavity(omega, kappa_a, kappa_b, element: int) -> OpenSystem:
    """Two-mirror passive cavity at an interior chain position.

    Light entering mirror ``a`` exits at mirror ``b`` and vice versa, so each
    output pairs with the opposite mirror's input: ``dy_a = sqrt(kappa_b) x dt
    + dw_b`` and ``dy_b = sqrt(kappa_a) x dt + dw_a``.  Both mirrors damp the
    cavity at half their transmissivity.
    """
    if kappa_a <= 0 or kappa_b <= 0:
        raise ValueError("mirror transmissivities must be positive")
    ka, kb = float(kappa_a), float(kappa_b)
    ra, rb = np.sqrt(ka), np.sqrt(kb)
    drift = 2.0 * float(omega) * J2 - 0.5 * (ka + kb) * np.eye(2)
    w_a, w_b = inport(element, "a"), inport(element, "b")
    y_a, y_b = outport(element, "a"), outport(element, "b")
    return OpenSystem(
        drift=drift,
        input_gains={w_a: -ra * np.eye(2), w_b: -rb * np.eye(2)},
        output_gains={y_a: rb * np.eye(2), y_b: ra * np.eye(2)},
        feedthrough={(y_a, w_b): np.eye(2), (y_b, w_a): np.eye(2)},
    )


def make_end_cavity(omega, kappa_a, element: int) -> OpenSystem:
    """Single-mirror passive cavity terminating the chain.

    Only the ``a`` mirror is open; its input reappears on the ``b``-side
    output after reflecting through the cavity.
    """
    if kappa_a <= 0:
        raise ValueError("kappa_a must be positive")
    ka = float(kappa_a)
    ra = np.sqrt(ka)
    drift = 2.0 * float(omega) * J2 - 0.5 * ka * np.eye(2)
    w_a = inport(element, "a")
    y_b = outport(element, "b")
    return OpenSystem(
        drift=drift,
        input_gains={w_a: -ra * np.eye(2)},
        output_gains={y_b: ra * np.eye(2)},
        feedthrough={(y_b, w_a): np.eye(2)},
    )


class Link(NamedTuple):
    """Identification of an emitted field with a driving field, up to sign."""

    source: FieldPort
    sink: FieldPort
    sign: int


def chain_links(n_elements: int) -> tuple[Link, ...]:
    """Counter-propagating links of the serial chain.

    For each neighbouring pair ``i, i+1`` the forward field enters with a sign
    flip (``w_{i+1,a} = -y_{i,a}``) and the backward field returns unchanged
    (``w_{i,b} = y_{i+1,b}``).
    """
    if n_elements < 2:
        raise ValueError("a chain needs at least two elements")
    links = []
    for i in range(1, n_elements):
        links.append(Link(source=outport(i, "a"), sink=inport(i + 1, "a"), sign=-1))
        links.append(Link(source=outport(i + 1, "b"), sink=inport(i, "b"), sign=1))
    return tuple(links)


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """Closed-loop result of eliminating the linked field ports.

    ``drift`` acts on the concatenated states of the systems, in the order
    given to :func:`connect`.  ``residual_noise`` has one ``(n, 2)`` column
    block per input no link drives, in port order; it is empty when the
    network is closed.
    """

    drift: np.ndarray
    residual_noise: np.ndarray


def connect(systems, links) -> ReducedSystem:
    """Eliminate the linked ports and return the reduced network.

    The port equations ``w = L y + E u`` (``u`` = the inputs no link drives)
    and ``y = C x + D w`` are solved globally for ``w`` through the loop
    matrix ``I - L D``.  ``links`` must name ports the systems expose.
    """
    offsets = np.concatenate([[0], np.cumsum([s.state_dim for s in systems])])
    n = int(offsets[-1])
    in_ports = sorted(p for s in systems for p in s.input_gains)
    out_ports = sorted(p for s in systems for p in s.output_gains)
    in_index = {p: PORT_WIDTH * i for i, p in enumerate(in_ports)}
    out_index = {p: PORT_WIDTH * i for i, p in enumerate(out_ports)}
    n_in, n_out = PORT_WIDTH * len(in_ports), PORT_WIDTH * len(out_ports)

    A = np.zeros((n, n))
    B = np.zeros((n, n_in))
    C = np.zeros((n_out, n))
    D = np.zeros((n_out, n_in))
    for s, lo, hi in zip(systems, offsets[:-1], offsets[1:]):
        A[lo:hi, lo:hi] = s.drift
        for p, g in s.input_gains.items():
            B[lo:hi, in_index[p] : in_index[p] + PORT_WIDTH] = g
        for p, g in s.output_gains.items():
            C[out_index[p] : out_index[p] + PORT_WIDTH, lo:hi] = g
        for (out_p, in_p), block in s.feedthrough.items():
            i, j = out_index[out_p], in_index[in_p]
            D[i : i + PORT_WIDTH, j : j + PORT_WIDTH] = block

    L = np.zeros((n_in, n_out))
    for link in links:
        i, j = in_index[link.sink], out_index[link.source]
        L[i : i + PORT_WIDTH, j : j + PORT_WIDTH] = link.sign * np.eye(PORT_WIDTH)

    loop = np.eye(n_in) - L @ D
    drift = A + (B @ np.linalg.solve(loop, L @ C))
    sinks = {link.sink for link in links}
    free = [i + q for p, i in in_index.items() if p not in sinks
            for q in range(PORT_WIDTH)]
    residual = np.zeros((n, 0))
    if free:  # E holds the identity's columns at the inputs no link drives
        residual = B @ np.linalg.solve(loop, np.eye(n_in)[:, free])
    return ReducedSystem(drift=drift, residual_noise=residual)


def verify_noise_cancellation(reduced: ReducedSystem) -> float:
    """Largest residual noise gain; exactly 0.0 for a fully closed network."""
    if reduced.residual_noise.size == 0:
        return 0.0
    return float(np.max(np.abs(reduced.residual_noise)))


def build_chain(alpha, beta, omegas, kappas):
    """Assemble the full chain's elements and links.

    Parameters
    ----------
    alpha, beta:
        Plant readout direction and amplifier coupling quadrature.
    omegas:
        Detunings, one per element (length ``N >= 2``).
    kappas:
        Mirror transmissivities in chain order ``[k_1b, k_2a, k_2b, ...,
        k_{N-1}a, k_{N-1}b, k_Na]`` (length ``2N - 2``).

    Returns
    -------
    (list[OpenSystem], tuple[Link, ...])
        Ready to pass to :func:`connect`.
    """
    om = np.asarray(omegas, dtype=float)
    kap = np.asarray(kappas, dtype=float)
    n_elements = om.size
    if n_elements < 2:
        raise ValueError("a chain needs at least two elements")
    if kap.size != 2 * n_elements - 2:
        raise ValueError(
            f"expected {2 * n_elements - 2} mirror transmissivities, got {kap.size}"
        )
    systems = [make_plant_ndpa(alpha, beta, kap[0], om[0])]
    for i in range(2, n_elements):
        systems.append(
            make_cavity(om[i - 1], kap[2 * i - 3], kap[2 * i - 2], element=i)
        )
    systems.append(make_end_cavity(om[-1], kap[-1], element=n_elements))
    return systems, chain_links(n_elements)
