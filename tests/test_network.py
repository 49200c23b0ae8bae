import numpy as np
import pytest

from qchain import analysis, network, observer
from qchain.core import J2

ALPHA = np.array([1.0, 0.0])


def test_ports_order_by_element_then_label():
    ports = [network.inport(2, "a"), network.inport(1, "b"), network.inport(1, "a")]
    assert sorted(ports) == [
        network.inport(1, "a"),
        network.inport(1, "b"),
        network.inport(2, "a"),
    ]


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
    assert w_b == network.inport(1, "b")
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


def test_chain_links_layout():
    out, inp = network.outport, network.inport
    assert network.chain_links(3) == (
        network.Link(out(1, "a"), inp(2, "a"), -1),
        network.Link(out(2, "b"), inp(1, "b"), 1),
        network.Link(out(2, "a"), inp(3, "a"), -1),
        network.Link(out(3, "b"), inp(2, "b"), 1),
    )
    with pytest.raises(ValueError):
        network.chain_links(1)


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
    assert reduced.residual_noise.shape == (6, 0)
    assert network.verify_noise_cancellation(reduced) == 0.0


def test_elimination_matches_closed_form_construction():
    # Wide, unbalanced draws: connect has no conditioning check, because the
    # loop matrix I - L D of every chain is sqrt(2) times an orthogonal matrix.
    rng = np.random.default_rng(41)
    for _ in range(400):
        n_el = int(rng.integers(2, 41))
        mu_1 = 10.0 ** rng.uniform(-1.0, 1.0)
        kappas = 10.0 ** rng.uniform(-3.0, 3.0, size=2 * n_el - 2)
        mu = observer.gains_from_kappas(
            observer.ChainParams(n_elements=n_el, mu_1=mu_1, kappas=kappas)
        )
        alpha = rng.standard_normal(2)
        alpha *= 10.0 ** rng.uniform(-1.0, 1.0) / np.linalg.norm(alpha)
        plant = observer.PlantSpec(alpha=alpha)
        real = observer.build_observer(plant, mu)
        aug = observer.assemble_augmented(real, plant)
        systems, links = network.build_chain(
            alpha, -mu_1 * alpha, analysis.detunings_from_gains(mu), kappas
        )
        reduced = network.connect(systems, links)
        scale = max(1.0, kappas.max(), np.max(np.abs(aug.drift)))
        assert np.max(np.abs(reduced.drift - aug.drift)) <= 1e-15 * scale
        assert network.verify_noise_cancellation(reduced) == 0.0


def test_partial_interconnection_leaves_noise():
    systems, _ = network.build_chain(ALPHA, -ALPHA, [2.0, 1.0], [4.0, 4.0])
    forward_only = (
        network.Link(
            source=network.outport(1, "a"), sink=network.inport(2, "a"), sign=-1
        ),
    )
    reduced = network.connect(systems, forward_only)
    # one free input, w1b, leaves one (6, 2) noise block
    assert reduced.residual_noise.shape == (6, 2)
    assert network.verify_noise_cancellation(reduced) > 0.0


def test_build_chain_validates_lengths():
    with pytest.raises(ValueError):
        network.build_chain(ALPHA, -ALPHA, omegas=[1.0], kappas=[])
    with pytest.raises(ValueError):
        network.build_chain(ALPHA, -ALPHA, omegas=[1.0, 1.0, 1.0], kappas=[4.0, 4.0])
