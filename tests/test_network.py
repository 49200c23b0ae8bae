import numpy as np
import pytest

from qchain import analysis, network, observer
from qchain.core import J2
from qchain.errors import AlgebraicLoopError, UnknownPortError

ALPHA = np.array([1.0, 0.0])


def test_port_names_and_validation():
    p = network.inport(2, "b")
    assert p.name == "w2b"
    assert network.outport(1, "a").name == "y1a"
    with pytest.raises(ValueError):
        network.FieldPort(element=0, label="a", direction="in")
    with pytest.raises(ValueError):
        network.FieldPort(element=1, label="c", direction="in")
    with pytest.raises(ValueError):
        network.FieldPort(element=1, label="a", direction="sideways")


def test_ports_order_by_element_then_label():
    ports = [network.inport(2, "a"), network.inport(1, "b"), network.inport(1, "a")]
    assert [p.name for p in sorted(ports)] == ["w1a", "w1b", "w2a"]


def test_make_cavity_blocks():
    cav = network.make_cavity(1.5, kappa_a=4.0, kappa_b=9.0, element=2)
    assert np.array_equal(cav.drift, 3.0 * J2 - 6.5 * np.eye(2))
    w_a, w_b = network.inport(2, "a"), network.inport(2, "b")
    y_a, y_b = network.outport(2, "a"), network.outport(2, "b")
    assert np.array_equal(cav.input_gains[w_a], -2.0 * np.eye(2))
    assert np.array_equal(cav.input_gains[w_b], -3.0 * np.eye(2))
    # outputs pair with the opposite mirror
    assert np.array_equal(cav.output_gains[y_a], 3.0 * np.eye(2))
    assert np.array_equal(cav.output_gains[y_b], 2.0 * np.eye(2))
    assert set(cav.feedthrough) == {(y_a, w_b), (y_b, w_a)}
    assert np.array_equal(cav.feedthrough[(y_a, w_b)], np.eye(2))


def test_make_end_cavity_single_mirror():
    end = network.make_end_cavity(0.5, kappa_a=1.0, element=3)
    assert np.array_equal(end.drift, J2 - 0.5 * np.eye(2))
    assert list(end.input_gains) == [network.inport(3, "a")]
    assert list(end.output_gains) == [network.outport(3, "b")]


def test_make_plant_ndpa_layout():
    sys1 = network.make_plant_ndpa(ALPHA, -ALPHA, kappa_1b=4.0, omega_1=2.0)
    assert sys1.state_dim == 4
    expected = np.zeros((4, 4))
    expected[0:2, 2:4] = 2.0 * J2 @ np.outer(ALPHA, -ALPHA)
    expected[2:4, 0:2] = 2.0 * J2 @ np.outer(-ALPHA, ALPHA)
    expected[2:4, 2:4] = 4.0 * J2 - 2.0 * np.eye(2)
    assert np.array_equal(sys1.drift, expected)
    (w_b,) = sys1.input_gains
    assert w_b.name == "w1b"
    gain = sys1.input_gains[w_b]
    assert np.array_equal(gain[2:4], -2.0 * np.eye(2))
    assert np.array_equal(gain[0:2], np.zeros((2, 2)))


def test_element_factories_reject_closed_mirrors():
    with pytest.raises(ValueError):
        network.make_cavity(1.0, 0.0, 1.0, element=2)
    with pytest.raises(ValueError):
        network.make_end_cavity(1.0, -2.0, element=2)
    with pytest.raises(ValueError):
        network.make_plant_ndpa(ALPHA, -ALPHA, kappa_1b=0.0, omega_1=1.0)


def test_open_system_validates_port_blocks():
    w = network.inport(1, "a")
    y = network.outport(1, "b")
    with pytest.raises(ValueError):
        network.OpenSystem(
            drift=np.zeros((2, 2)),
            input_gains={w: np.zeros((3, 2))},
            output_gains={},
            feedthrough={},
        )
    with pytest.raises(ValueError):
        network.OpenSystem(
            drift=np.zeros((2, 2)),
            input_gains={},
            output_gains={},
            feedthrough={(y, w): np.eye(2)},
        )


def test_link_validation():
    with pytest.raises(ValueError):
        network.Link(source=network.inport(1, "a"), sink=network.inport(2, "a"), sign=1)
    with pytest.raises(ValueError):
        network.Link(source=network.outport(1, "a"), sink=network.outport(2, "a"), sign=1)
    with pytest.raises(ValueError):
        network.Link(source=network.outport(1, "a"), sink=network.inport(2, "a"), sign=2)
    with pytest.raises(ValueError):
        # would short the same mirror of the same element
        network.Link(source=network.outport(1, "a"), sink=network.inport(1, "a"), sign=1)


def test_chain_links_layout():
    imap = network.chain_links(3)
    triples = [(l.source.name, l.sink.name, l.sign) for l in imap.links]
    assert triples == [
        ("y1a", "w2a", -1),
        ("y2b", "w1b", 1),
        ("y2a", "w3a", -1),
        ("y3b", "w2b", 1),
    ]
    with pytest.raises(ValueError):
        network.chain_links(1)


def test_interconnection_rejects_duplicates():
    a = network.Link(source=network.outport(1, "a"), sink=network.inport(2, "a"), sign=1)
    b = network.Link(source=network.outport(2, "b"), sink=network.inport(2, "a"), sign=1)
    with pytest.raises(ValueError):
        network.InterconnectionMap(links=(a, b))
    c = network.Link(source=network.outport(1, "a"), sink=network.inport(3, "a"), sign=1)
    with pytest.raises(ValueError):
        network.InterconnectionMap(links=(a, c))


def test_two_element_chain_reduces_to_literal_drift():
    systems, links = network.build_chain(
        ALPHA, -ALPHA, omegas=[2.0, 1.0], kappas=[4.0, 4.0]
    )
    reduced = network.connect(systems, links)
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.0, -2.0, 0.0],
            [2.0, 0.0, -4.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, 2.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 2.0, -2.0, 0.0],
        ]
    )
    assert np.allclose(reduced.drift, expected, atol=1e-12)
    assert reduced.free_inputs == ()
    assert reduced.residual_noise.shape == (6, 0)
    assert network.verify_noise_cancellation(reduced) == 0.0
    assert reduced.state_dims == (4, 2)
    assert len(reduced.eliminated) == 4


def test_elimination_matches_closed_form_construction():
    rng = np.random.default_rng(41)
    for n_el in (2, 3, 5):
        mu = rng.uniform(0.3, 2.0, size=n_el)
        spread = float(rng.uniform(0.5, 2.0))
        kappas = [k for g in mu[1:] for k in (4.0 * g * spread, 4.0 * g / spread)]
        omegas = analysis.detunings_from_gains(mu)
        alpha = rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        plant = observer.PlantSpec(alpha=alpha)
        real = observer.build_observer(plant, mu)
        aug = observer.assemble_augmented(real, plant)
        systems, links = network.build_chain(
            alpha, -mu[0] * alpha, omegas, kappas
        )
        reduced = network.connect(systems, links)
        assert np.max(np.abs(reduced.drift - aug.drift)) <= 1e-12
        assert network.verify_noise_cancellation(reduced) == 0.0


def test_partial_interconnection_leaves_noise():
    systems, _ = network.build_chain(ALPHA, -ALPHA, [2.0, 1.0], [4.0, 4.0])
    forward_only = network.InterconnectionMap(
        links=(
            network.Link(
                source=network.outport(1, "a"), sink=network.inport(2, "a"), sign=-1
            ),
        )
    )
    reduced = network.connect(systems, forward_only)
    assert [p.name for p in reduced.free_inputs] == ["w1b"]
    assert reduced.residual_noise.shape == (6, 2)
    assert network.verify_noise_cancellation(reduced) > 0.0


def test_unknown_port_raises():
    systems, _ = network.build_chain(ALPHA, -ALPHA, [2.0, 1.0], [4.0, 4.0])
    bad = network.InterconnectionMap(
        links=(
            network.Link(
                source=network.outport(2, "a"), sink=network.inport(1, "b"), sign=1
            ),
        )
    )
    with pytest.raises(UnknownPortError):
        network.connect(systems, bad)


def _passthrough(element):
    w = network.inport(element, "a")
    y = network.outport(element, "b")
    return network.OpenSystem(
        drift=np.zeros((2, 2)),
        input_gains={w: np.zeros((2, 2))},
        output_gains={y: np.zeros((2, 2))},
        feedthrough={(y, w): np.eye(2)},
    )


def test_degenerate_loop_names_its_ports():
    links = network.InterconnectionMap(
        links=(
            network.Link(
                source=network.outport(1, "b"), sink=network.inport(2, "a"), sign=1
            ),
            network.Link(
                source=network.outport(2, "b"), sink=network.inport(1, "a"), sign=1
            ),
        )
    )
    with pytest.raises(AlgebraicLoopError) as info:
        network.connect([_passthrough(1), _passthrough(2)], links)
    message = str(info.value)
    assert "w1a" in message and "w2a" in message


def test_duplicate_port_exposure_rejected():
    with pytest.raises(ValueError):
        network.connect(
            [_passthrough(1), _passthrough(1)], network.InterconnectionMap(links=())
        )


def test_build_chain_validates_lengths():
    with pytest.raises(ValueError):
        network.build_chain(ALPHA, -ALPHA, omegas=[1.0], kappas=[])
    with pytest.raises(ValueError):
        network.build_chain(ALPHA, -ALPHA, omegas=[1.0, 1.0, 1.0], kappas=[4.0, 4.0])
