"""Property tests over generated configs (hypothesis).

* Every chain that follows the design rule passes all eight ``verify``
  checks through ``cli.main``.  Gains are drawn from [0.1, 5] and the initial
  coordinates from [-2, 2]: with a large plant amplitude times a large gain
  (``mu_1 = 7``, plant ``(5, 4)``) the energy probe's relative tolerance
  fails by rounding, because the energy is summed from terms that grow with
  the plant's linear drift while the initial energy stays small.
* Parsing a config, normalizing it, writing it as JSON and parsing it again
  changes nothing.
* On design chains with up to 10 elements the exact and rk4 routes give the
  same samples and averages over a short horizon, to the 1e-6 of
  ``tests/test_sim.py::test_exact_and_rk4_routes_agree``.  Gains stay in
  [0.1, 2] so that one ``dt = 0.001`` RK4 step resolves the fastest mode.

All run derandomized and without the example database, so every run draws
the same examples.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flow_reference import running_average
from qchain import cli, observer, sim

EXPECTED_CHECKS = [
    "commutation_preservation",
    "energy_conservation",
    "noise_cancellation",
    "positive_definite",
    "hermitian_split",
    "exp_norm_bound",
    "steady_configuration",
    "consensus_readout",
]

gains = st.floats(min_value=0.1, max_value=5.0)
angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)
coordinates = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def design_configs(draw):
    """Raw configs of design-rule chains with 1 to 30 elements."""
    n = draw(st.integers(min_value=1, max_value=30))
    if draw(st.booleans()):
        chain = {"mu": draw(st.lists(gains, min_size=n, max_size=n))}
    else:
        chain = {
            "mu_1": draw(gains),
            "kappas": draw(st.lists(gains, min_size=2 * n - 2, max_size=2 * n - 2)),
        }
    theta = draw(angles)
    observer = draw(
        st.one_of(
            st.sampled_from(["zero", "steady"]),
            st.lists(coordinates, min_size=2 * n, max_size=2 * n),
        )
    )
    return {
        "name": "generated",
        "plant": {"alpha": [float(np.cos(theta)), float(np.sin(theta))]},
        "chain": chain,
        "initial": {"plant": draw(st.lists(coordinates, min_size=2, max_size=2)),
                    "observer": observer},
        "horizons": [10.0, 100.0],
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=design_configs())
def test_design_chains_pass_every_verify_check(tmp_path, raw):
    path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == EXPECTED_CHECKS
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == []


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def any_configs(draw):
    """Raw configs that parse: every optional key present or absent."""
    n = draw(st.integers(min_value=1, max_value=6))
    numbers = st.lists(finite, min_size=n, max_size=n)
    if draw(st.booleans()):
        chain = {"mu": draw(numbers)}
    else:
        chain = {
            "mu_1": draw(finite),
            "kappas": draw(st.lists(finite, min_size=2 * n - 2, max_size=2 * n - 2)),
        }
    if draw(st.booleans()):
        chain["omega_override"] = draw(numbers)
    observer = draw(
        st.one_of(
            st.sampled_from(["zero", "steady"]),
            st.lists(finite, min_size=2 * n, max_size=2 * n),
        )
    )
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1,
                          max_size=4))
    raw = {
        "plant": {"alpha": draw(st.lists(finite, min_size=2, max_size=2))},
        "chain": chain,
        "initial": {"plant": draw(st.lists(finite, min_size=2, max_size=2)),
                    "observer": observer},
        "horizons": [float(h) for h in np.cumsum(steps)],
    }
    optional = {
        "name": st.text(min_size=1, max_size=12),
        "sample_dt": finite,
        "seed": st.integers(min_value=0, max_value=2**63),
        "csv_stride": st.integers(min_value=1, max_value=10**6),
        "method": st.sampled_from(["exact", "rk4"]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    return raw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=any_configs())
def test_parse_normalize_parse_is_idempotent(raw):
    first = cli.normalized_config(cli.parse_config(raw))
    again = cli.normalized_config(cli.parse_config(json.loads(json.dumps(first))))
    assert again == first
    assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    data=st.data(),
    theta=angles,
    horizon=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_exact_and_rk4_routes_agree_on_design_chains(n, data, theta, horizon):
    mu = data.draw(st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=n, max_size=n))
    x_p = data.draw(st.lists(coordinates, min_size=2, max_size=2))
    x_o = data.draw(st.lists(coordinates, min_size=2 * n, max_size=2 * n))
    plant = observer.PlantSpec(alpha=np.array([np.cos(theta), np.sin(theta)]))
    real = observer.build_observer(plant, mu)
    aug = observer.assemble_augmented(real, plant)
    cfg = sim.SimulationConfig(np.array(x_p), np.array(x_o), horizon, 0.001)
    exact = sim.simulate(aug, cfg)
    stepped = sim.simulate(aug, replace(cfg, method="rk4"))
    assert np.max(np.abs(exact.z_p - stepped.z_p)) <= 1e-6
    assert np.max(np.abs(exact.z_o - stepped.z_o)) <= 1e-6
    trapezoid = running_average(exact.times, exact.z_o)
    assert np.max(np.abs(trapezoid - stepped.running_avg_z_o)) <= 1e-6
