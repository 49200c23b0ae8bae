"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` with tmp-path configs; one test
goes through a real subprocess to cover the console entry point.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qchain import cli
from qchain.errors import ConfigError

CANONICAL = {
    "name": "canonical_n3",
    "plant": {"alpha": [1.0, 0.0]},
    "chain": {"mu": [1.0, 1.0, 1.0]},
    "initial": {"plant": [1.0, 0.0], "observer": "zero"},
    "horizons": [10.0, 100.0],
    "sample_dt": 0.01,
    "seed": 7,
}


def _write(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _strict_json(text):
    """Parse JSON, refusing the non-standard NaN and Infinity constants."""

    def refuse(name):
        raise ValueError(f"report holds the non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_and_normalize_round_trip():
    cfg = cli.parse_config(CANONICAL)
    assert cfg.n_elements == 3
    assert cfg.mu == (1.0, 1.0, 1.0)
    assert cfg.csv_stride == 1
    assert cfg.method == "exact"
    normalized = cli.normalized_config(cfg)
    again = cli.normalized_config(cli.parse_config(normalized))
    assert normalized == again


def test_parse_config_rejects_bad_structure():
    with pytest.raises(ConfigError):
        cli.parse_config([1, 2, 3])
    with pytest.raises(ConfigError) as info:
        cli.parse_config({**CANONICAL, "extra": 1})
    assert "extra" in str(info.value)
    with pytest.raises(ConfigError) as info:
        cli.parse_config(
            {**CANONICAL, "chain": {"mu": [1.0], "mu_1": 1.0, "kappas": []}}
        )
    assert "chain" in str(info.value)
    with pytest.raises(ConfigError) as info:
        cli.parse_config({**CANONICAL, "chain": {"mu_1": 1.0, "kappas": [1.0, 2.0, 3.0]}})
    assert str(info.value).startswith("chain.kappas:")
    with pytest.raises(ConfigError):
        cli.parse_config({**CANONICAL, "horizons": [100.0, 10.0]})
    with pytest.raises(ConfigError):
        cli.parse_config({**CANONICAL, "seed": -1})
    with pytest.raises(ConfigError):
        cli.parse_config({**CANONICAL, "seed": True})
    with pytest.raises(ConfigError):
        cli.parse_config({**CANONICAL, "initial": {"plant": [1.0, 0.0], "observer": "rest"}})
    with pytest.raises(ConfigError):
        cli.parse_config({**CANONICAL, "method": "euler"})


# ---------------------------------------------------------------------------
# build


def test_build_reports_certificate(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["build", _write(tmp_path, CANONICAL)])
    assert rc == 0
    report = json.loads(out)
    assert report["n_elements"] == 3
    assert report["observer_dim"] == 6
    assert report["augmented_dim"] == 8
    assert report["omega"] == [2.0, 2.0, 1.0]
    cert = report["certificate"]
    assert cert["lambda_min"] == pytest.approx(0.19806226419516165, rel=1e-12)
    assert cert["lambda_max"] == pytest.approx(3.2469796037174667, rel=1e-12)
    assert cert["exp_bound"] == pytest.approx(4.048917339522306, rel=1e-12)
    assert cert["avg_constant"] == pytest.approx(12.745783150664494, rel=1e-12)
    assert report["config"] == cli.normalized_config(cli.parse_config(CANONICAL))


def test_build_out_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, _ = _run(
        capsys, ["build", _write(tmp_path, CANONICAL), "--out", str(out_path)]
    )
    assert rc == 0
    assert out == ""
    assert json.loads(out_path.read_text())["name"] == "canonical_n3"


def test_emit_config_is_idempotent(tmp_path, capsys):
    rc, first, _ = _run(
        capsys, ["build", _write(tmp_path, CANONICAL), "--emit-config"]
    )
    assert rc == 0
    second_path = tmp_path / "normalized.json"
    second_path.write_text(first)
    rc, second, _ = _run(capsys, ["build", str(second_path), "--emit-config"])
    assert rc == 0
    assert first == second


def test_kappa_form_matches_gain_form(tmp_path, capsys):
    physical = {
        **CANONICAL,
        "chain": {"mu_1": 1.0, "kappas": [4.0, 4.0, 4.0, 4.0]},
    }
    rc, out_mu, _ = _run(capsys, ["build", _write(tmp_path, CANONICAL, "a.json")])
    assert rc == 0
    rc, out_kappa, _ = _run(capsys, ["build", _write(tmp_path, physical, "b.json")])
    assert rc == 0
    mu_report = json.loads(out_mu)
    kappa_report = json.loads(out_kappa)
    for key in ("mu", "omega", "certificate", "observer_dim"):
        assert mu_report[key] == kappa_report[key]


# ---------------------------------------------------------------------------
# verify


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


def test_verify_passes_canonical(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["verify", _write(tmp_path, CANONICAL)])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    assert [c["name"] for c in report["checks"]] == EXPECTED_CHECKS
    assert all(c["passed"] for c in report["checks"])
    assert not any(c["skipped"] for c in report["checks"])
    assert report["seed"] == 7


def test_verify_seed_override(tmp_path, capsys):
    rc, out, _ = _run(
        capsys, ["verify", _write(tmp_path, CANONICAL), "--seed", "123"]
    )
    assert rc == 0
    assert json.loads(out)["seed"] == 123


def test_verify_flags_detuned_chain(tmp_path, capsys):
    detuned = {
        **CANONICAL,
        "chain": {"mu": [1.0, 1.0, 1.0], "omega_override": [2.0, 2.0, 1.1]},
    }
    rc, out, _ = _run(capsys, ["verify", _write(tmp_path, detuned)])
    assert rc == 1
    report = json.loads(out)
    assert not report["passed"]
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == {"hermitian_split", "steady_configuration"}


def test_verify_indefinite_chain_writes_valid_json(tmp_path, capsys):
    indefinite = {
        **CANONICAL,
        "chain": {"mu": [1.0, 1.0], "omega_override": [0.5, 1.0]},
    }
    rc, out, _ = _run(capsys, ["verify", _write(tmp_path, indefinite)])
    assert rc == 1
    report = _strict_json(out)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == {
        "positive_definite",
        "hermitian_split",
        "exp_norm_bound",
        "steady_configuration",
    }
    bound = next(c for c in report["checks"] if c["name"] == "exp_norm_bound")
    assert bound["residual"] is None
    assert not bound["skipped"]
    with pytest.raises(ValueError):
        cli._dump_json({"residual": float("inf")}, None)


def test_verify_single_element_skips_network_check(tmp_path, capsys):
    single = {
        **CANONICAL,
        "name": "single",
        "chain": {"mu": [1.0]},
        "horizons": [10.0, 100.0],
    }
    rc, out, _ = _run(capsys, ["verify", _write(tmp_path, single)])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    noise = next(c for c in report["checks"] if c["name"] == "noise_cancellation")
    assert noise["skipped"]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reports_and_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    rc, out, _ = _run(
        capsys,
        ["simulate", _write(tmp_path, CANONICAL), "--csv", str(csv_path)],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["csv_path"] == str(csv_path)
    assert report["sample_dt"] == 0.01
    assert report["horizons"] == [10.0, 100.0]
    assert report["slope"] < -0.5
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,z_p,z_o_1,z_o_2,z_o_3,avg_z_o_1,avg_z_o_2,avg_z_o_3"


def test_simulate_single_horizon_writes_null_slope(tmp_path, capsys):
    rc, out, _ = _run(
        capsys, ["simulate", _write(tmp_path, {**CANONICAL, "horizons": [100.0]})]
    )
    assert rc == 0
    report = _strict_json(out)
    assert report["passed"]
    assert report["slope"] is None


def test_simulate_over_memory_budget_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sim, "MAX_SERIES_BYTES", 2**19)
    csv_path = tmp_path / "series.csv"
    argv = ["simulate", _write(tmp_path, CANONICAL), "--csv", str(csv_path)]
    rc, _, err = _run(capsys, argv)
    assert rc == 3
    assert "10001 samples of a chain with N = 3" in err
    assert not csv_path.exists()


def test_simulate_steady_start_has_tiny_errors(tmp_path, capsys):
    steady = {
        **CANONICAL,
        "initial": {"plant": [2.0, -0.3], "observer": "steady"},
    }
    rc, out, _ = _run(capsys, ["simulate", _write(tmp_path, steady)])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    assert np.max(np.array(report["per_element_error"])) <= 1e-9


def test_simulate_single_element(tmp_path, capsys):
    single = {
        **CANONICAL,
        "chain": {"mu": [1.0]},
        "initial": {"plant": [1.0, 0.0], "observer": [0.1, -0.2]},
    }
    rc, out, _ = _run(capsys, ["simulate", _write(tmp_path, single)])
    assert rc == 0
    assert json.loads(out)["passed"]


def test_simulate_bad_observer_length(tmp_path, capsys):
    bad = {
        **CANONICAL,
        "initial": {"plant": [1.0, 0.0], "observer": [0.0, 0.0]},
    }
    rc, _, err = _run(capsys, ["simulate", _write(tmp_path, bad)])
    assert rc == 3
    assert "construction error" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_tabulates_certificates(tmp_path, capsys):
    rc, out, _ = _run(
        capsys,
        [
            "sweep",
            _write(tmp_path, CANONICAL),
            "--param",
            "mu_1",
            "--values",
            "0.25",
            "1.0",
            "2.0",
        ],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "mu_1,lambda_min,lambda_max,avg_constant,"
        "final_max_error,final_matrix_residual,passed"
    )
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    lambda_mins = [float(r[1]) for r in rows]
    assert lambda_mins[0] < lambda_mins[1] < lambda_mins[2]
    assert float(rows[1][1]) == pytest.approx(0.19806226419516165, rel=1e-10)
    assert float(rows[1][3]) == pytest.approx(12.745783150664494, rel=1e-10)
    assert all(r[6] == "True" for r in rows)


def test_sweep_rejects_bad_parameters(tmp_path, capsys):
    path = _write(tmp_path, CANONICAL)
    rc, _, err = _run(
        capsys, ["sweep", path, "--param", "kappa", "--values", "1.0"]
    )
    assert rc == 2
    assert "config error" in err
    rc, _, err = _run(
        capsys, ["sweep", path, "--param", "mu_1", "--values", "-1.0"]
    )
    assert rc == 2
    assert "config error" in err


# ---------------------------------------------------------------------------
# error handling and entry point


def test_missing_config_file(tmp_path, capsys):
    rc, _, err = _run(capsys, ["build", str(tmp_path / "nope.json")])
    assert rc == 4
    assert "i/o error" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = _run(capsys, ["build", str(path)])
    assert rc == 2
    assert "config error" in err


def test_invalid_gain_values(tmp_path, capsys):
    bad = {**CANONICAL, "chain": {"mu": [1.0, -1.0]}}
    rc, _, err = _run(capsys, ["build", _write(tmp_path, bad)])
    assert rc == 3
    assert "construction error" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_rejected_with_field_path(tmp_path, capsys, literal):
    cases = {
        "chain.omega_override[0]": {
            **CANONICAL,
            "chain": {"mu": [1.0, 1.0], "omega_override": ["X", 1.0]},
        },
        "chain.mu_1": {**CANONICAL, "chain": {"mu_1": "X", "kappas": [4.0, 4.0]}},
        "sample_dt": {**CANONICAL, "sample_dt": "X"},
        "initial.plant[1]": {
            **CANONICAL,
            "initial": {"plant": [1.0, "X"], "observer": "zero"},
        },
    }
    for field, raw in cases.items():
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw).replace('"X"', literal))
        for command in ("build", "simulate"):
            rc, _, err = _run(capsys, [command, str(path)])
            assert rc == 2, (field, command)
            assert f"config error: {field}: expected a finite number" in err
    value = literal.lower().replace("infinity", "inf")
    rc, _, err = _run(
        capsys,
        ["sweep", _write(tmp_path, CANONICAL), "--param", "mu_1", f"--values={value}"],
    )
    assert rc == 2
    assert "config error: sweep.values" in err


def test_console_entry_point(tmp_path):
    # the child imports the same qchain as this process, installed or not
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qchain", "build", _write(tmp_path, CANONICAL)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "canonical_n3"
