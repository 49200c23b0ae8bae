"""Open cavity networks: two-quadrature field ports and loop elimination.

Optical elements are modelled as linear open systems driven by travelling
fields.  Every port carries the two quadratures of one field, so port-level
gains are ``(n, 2)`` / ``(2, n)`` blocks and feedthroughs are ``2 x 2``.  An
interconnection map identifies output fields with input fields (up to a sign);
:func:`connect` substitutes the port equations and solves the resulting linear
loop globally, producing the drift of the reduced network plus whatever noise
channels remain un-consumed.

The intended topology is a serial chain: a plant/amplifier element feeding a
line of passive cavities, with counter-propagating links between neighbours.
For that closed chain every field port is consumed and the residual noise
matrix is empty — the interconnection cancels all damping terms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import J2
from .errors import AlgebraicLoopError, UnknownPortError

#: Quadratures per field port.
PORT_WIDTH = 2

_DIRECTIONS = ("in", "out")
_LABELS = ("a", "b")


@dataclass(frozen=True, order=True)
class FieldPort:
    """One travelling-field port of an optical element.

    ``element`` is the 1-based position of the element along the chain,
    ``label`` names the mirror side (``"a"`` faces the previous element,
    ``"b"`` the next), and ``direction`` distinguishes the driving field
    (``"in"``) from the emitted field (``"out"``).  Ports always carry
    :data:`PORT_WIDTH` quadratures.
    """

    element: int
    label: str
    direction: str

    def __post_init__(self):
        if self.element < 1:
            raise ValueError("port element index must be >= 1")
        if self.label not in _LABELS:
            raise ValueError(f"port label must be one of {_LABELS}, got {self.label!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"port direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )

    @property
    def name(self) -> str:
        """Compact field name, e.g. ``w1b`` for an input, ``y2a`` for an output."""
        prefix = "w" if self.direction == "in" else "y"
        return f"{prefix}{self.element}{self.label}"


def inport(element: int, label: str) -> FieldPort:
    return FieldPort(element=element, label=label, direction="in")


def outport(element: int, label: str) -> FieldPort:
    return FieldPort(element=element, label=label, direction="out")


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

    def __post_init__(self):
        A = np.asarray(self.drift, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("drift must be square")
        object.__setattr__(self, "drift", A)
        n = A.shape[0]
        ins = {}
        for port, gain in self.input_gains.items():
            if port.direction != "in":
                raise ValueError(f"input gain keyed by non-input port {port.name}")
            g = np.asarray(gain, dtype=float)
            if g.shape != (n, PORT_WIDTH):
                raise ValueError(f"input gain for {port.name} must have shape ({n}, 2)")
            ins[port] = g
        outs = {}
        for port, gain in self.output_gains.items():
            if port.direction != "out":
                raise ValueError(f"output gain keyed by non-output port {port.name}")
            g = np.asarray(gain, dtype=float)
            if g.shape != (PORT_WIDTH, n):
                raise ValueError(f"output gain for {port.name} must have shape (2, {n})")
            outs[port] = g
        feed = {}
        for (out_p, in_p), block in self.feedthrough.items():
            if out_p not in outs:
                raise ValueError(f"feedthrough references unknown output {out_p.name}")
            if in_p not in ins:
                raise ValueError(f"feedthrough references unknown input {in_p.name}")
            b = np.asarray(block, dtype=float)
            if b.shape != (PORT_WIDTH, PORT_WIDTH):
                raise ValueError("feedthrough blocks must be 2x2")
            feed[(out_p, in_p)] = b
        object.__setattr__(self, "input_gains", ins)
        object.__setattr__(self, "output_gains", outs)
        object.__setattr__(self, "feedthrough", feed)

    @property
    def state_dim(self) -> int:
        return self.drift.shape[0]


def make_plant_ndpa(alpha, beta, kappa_1b, omega_1, element: int = 1) -> OpenSystem:
    """Plant plus amplifier element at the head of the chain.

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
    element:
        Chain position, 1 by default.
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
    w_b = inport(element, "b")
    y_a = outport(element, "a")
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


@dataclass(frozen=True)
class Link:
    """Identification of an emitted field with a driving field, up to sign."""

    source: FieldPort
    sink: FieldPort
    sign: int

    def __post_init__(self):
        if self.source.direction != "out":
            raise ValueError(f"link source {self.source.name} is not an output port")
        if self.sink.direction != "in":
            raise ValueError(f"link sink {self.sink.name} is not an input port")
        if self.sign not in (1, -1):
            raise ValueError("link sign must be +1 or -1")
        if (self.source.element, self.source.label) == (
            self.sink.element,
            self.sink.label,
        ):
            raise ValueError(
                f"link would short port pair {self.source.name}/{self.sink.name} "
                "on the same mirror"
            )


@dataclass(frozen=True)
class InterconnectionMap:
    """A set of field links with unique sources and unique sinks."""

    links: tuple[Link, ...]

    def __post_init__(self):
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        sources = [l.source for l in links]
        sinks = [l.sink for l in links]
        if len(set(sources)) != len(sources):
            raise ValueError("an output port is used by more than one link")
        if len(set(sinks)) != len(sinks):
            raise ValueError("an input port is driven by more than one link")


def chain_links(n_elements: int) -> InterconnectionMap:
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
    return InterconnectionMap(links=tuple(links))


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """Closed-loop result of eliminating the linked field ports.

    ``drift`` acts on the concatenated states of the input systems (in the
    order given to :func:`connect`; ``state_dims`` records the split).
    ``residual_noise`` has one ``(n, 2)`` column block per remaining free
    input, in ``free_inputs`` order; it is empty when the network is closed.
    """

    drift: np.ndarray
    residual_noise: np.ndarray
    eliminated: tuple[FieldPort, ...]
    free_inputs: tuple[FieldPort, ...]
    state_dims: tuple[int, ...]


def connect(systems, interconnections: InterconnectionMap) -> ReducedSystem:
    """Eliminate linked ports and return the reduced network.

    The port equations ``w = L y + E u`` (u = free inputs) and ``y = C x +
    D w`` are solved globally for ``w``; the loop matrix ``I - L D`` must be
    well-conditioned, otherwise the interconnection hides an ill-posed
    algebraic feedback loop.

    Raises
    ------
    UnknownPortError
        If a link references a port no system exposes.
    AlgebraicLoopError
        If the loop matrix is singular to working precision; the message
        names the ports involved in the degenerate loop.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("connect() needs at least one system")

    state_dims = tuple(s.state_dim for s in systems)
    offsets = np.concatenate([[0], np.cumsum(state_dims)])
    n = int(offsets[-1])

    in_ports: list[FieldPort] = []
    out_ports: list[FieldPort] = []
    owner: dict[FieldPort, int] = {}
    for k, s in enumerate(systems):
        for p in list(s.input_gains) + list(s.output_gains):
            if p in owner:
                raise ValueError(f"port {p.name} is exposed by more than one system")
            owner[p] = k
            (in_ports if p.direction == "in" else out_ports).append(p)
    in_ports.sort()
    out_ports.sort()
    in_index = {p: i for i, p in enumerate(in_ports)}
    out_index = {p: i for i, p in enumerate(out_ports)}

    A = np.zeros((n, n))
    for k, s in enumerate(systems):
        A[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = s.drift

    B = np.zeros((n, PORT_WIDTH * len(in_ports)))
    for k, s in enumerate(systems):
        for p, g in s.input_gains.items():
            j = PORT_WIDTH * in_index[p]
            B[offsets[k] : offsets[k + 1], j : j + PORT_WIDTH] = g

    C = np.zeros((PORT_WIDTH * len(out_ports), n))
    D = np.zeros((PORT_WIDTH * len(out_ports), PORT_WIDTH * len(in_ports)))
    for k, s in enumerate(systems):
        for p, g in s.output_gains.items():
            i = PORT_WIDTH * out_index[p]
            C[i : i + PORT_WIDTH, offsets[k] : offsets[k + 1]] = g
        for (out_p, in_p), block in s.feedthrough.items():
            i = PORT_WIDTH * out_index[out_p]
            j = PORT_WIDTH * in_index[in_p]
            D[i : i + PORT_WIDTH, j : j + PORT_WIDTH] = block

    L = np.zeros((PORT_WIDTH * len(in_ports), PORT_WIDTH * len(out_ports)))
    for link in interconnections.links:
        if link.source not in out_index:
            raise UnknownPortError(f"no system exposes output port {link.source.name}")
        if link.sink not in in_index:
            raise UnknownPortError(f"no system exposes input port {link.sink.name}")
        i = PORT_WIDTH * in_index[link.sink]
        j = PORT_WIDTH * out_index[link.source]
        L[i : i + PORT_WIDTH, j : j + PORT_WIDTH] = link.sign * np.eye(PORT_WIDTH)

    sinks = {l.sink for l in interconnections.links}
    free = tuple(p for p in in_ports if p not in sinks)
    E = np.zeros((PORT_WIDTH * len(in_ports), PORT_WIDTH * len(free)))
    for j, p in enumerate(free):
        i = PORT_WIDTH * in_index[p]
        E[i : i + PORT_WIDTH, PORT_WIDTH * j : PORT_WIDTH * (j + 1)] = np.eye(
            PORT_WIDTH
        )

    loop = np.eye(L.shape[0]) - L @ D
    if loop.size and np.linalg.cond(loop) > 1e12:
        _, _, vt = np.linalg.svd(loop)
        null = np.abs(vt[-1])
        involved = sorted(
            {
                in_ports[i // PORT_WIDTH].name
                for i in np.nonzero(null > 0.5 * null.max())[0]
            }
        )
        raise AlgebraicLoopError(
            "interconnection is algebraically singular around ports "
            + ", ".join(involved)
        )

    drift = A + (B @ np.linalg.solve(loop, L @ C))
    residual = B @ np.linalg.solve(loop, E) if free else np.zeros((n, 0))

    eliminated = tuple(
        sorted({l.source for l in interconnections.links} | sinks)
    )
    return ReducedSystem(
        drift=drift,
        residual_noise=residual,
        eliminated=eliminated,
        free_inputs=free,
        state_dims=state_dims,
    )


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
    (list[OpenSystem], InterconnectionMap)
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
