"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` with tmp-path configs; one test
goes through a real subprocess to cover the console entry point.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from qchain import cli, observer, sim
from qchain.errors import ConfigError, IntegratorAccuracyError

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


@pytest.mark.parametrize(
    "argv",
    [
        ["build"],
        ["build", "--emit-config"],
        ["verify"],
        ["simulate"],
        ["sweep", "--param", "mu_1", "--values", "0.5", "1", "2"],
    ],
    ids=["build", "emit-config", "verify", "simulate", "sweep"],
)
def test_out_writes_exactly_what_stdout_gets(tmp_path, capsys, argv):
    command = [argv[0], _write(tmp_path, CANONICAL), *argv[1:]]
    rc, expected, _ = _run(capsys, command)
    out_path = tmp_path / "output"
    rc_out, out, _ = _run(capsys, [*command, "--out", str(out_path)])
    assert rc_out == rc == 0
    assert out == ""
    assert out_path.read_bytes() == expected.encode()


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


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tolerance-scale", "nan", "verify.tolerance_scale"),
        ("--tolerance-scale", "inf", "verify.tolerance_scale"),
        ("--tolerance-scale", "-1", "verify.tolerance_scale"),
        ("--tolerance-scale", "0", "verify.tolerance_scale"),
    ],
)
def test_verify_rejects_bad_overrides(tmp_path, capsys, flag, value, field):
    rc, out, err = _run(capsys, ["verify", _write(tmp_path, CANONICAL), flag, value])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"config error: {field}: ")


def test_verify_has_no_seed_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", _write(tmp_path, CANONICAL), "--seed", "1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


#: Chains whose verify exit codes the checks below pin: the design chain, a
#: chain detuned by 0.1, one detuned by 1e-12 (its split residual sits
#: between the split's thresholds), and an indefinite chain.
VERIFY_CHAINS = {
    "canonical": ({"mu": [1.0, 1.0, 1.0]}, 0),
    "detuned": ({"mu": [1.0, 1.0, 1.0], "omega_override": [2.0, 2.0, 1.1]}, 1),
    "detuned_1e-12": (
        {"mu": [1.0, 1.0, 1.0], "omega_override": [2.0, 2.0, 1.0 + 1e-12]},
        1,
    ),
    "indefinite": ({"mu": [1.0, 1.0], "omega_override": [0.5, 1.0]}, 1),
}


@pytest.mark.parametrize("scale", ["1", "1000"])
@pytest.mark.parametrize("kind", sorted(VERIFY_CHAINS))
def test_verify_entries_pass_exactly_within_their_tolerance(
    tmp_path, capsys, kind, scale
):
    cfg = {**CANONICAL, "chain": VERIFY_CHAINS[kind][0]}
    _, out, _ = _run(
        capsys, ["verify", _write(tmp_path, cfg), "--tolerance-scale", scale]
    )
    checks = [c for c in _strict_json(out)["checks"] if c["residual"] is not None]
    assert len(checks) >= 7
    for check in checks:
        assert check["passed"] == (check["residual"] <= check["tolerance"]), check


def test_verify_draws_no_random_number(tmp_path, capsys, monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("verify drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for kind, (chain, rc) in VERIFY_CHAINS.items():
        path = _write(tmp_path, {**CANONICAL, "chain": chain}, f"{kind}.json")
        assert _run(capsys, ["verify", path])[0] == rc, kind


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
        cli._render({"residual": float("inf")})


def _verify_with_spectrum(tmp_path, capsys, monkeypatch, perturb):
    """Failed checks and their residuals when verify's spectrum is perturbed."""
    build = observer.observer_hamiltonian

    def perturbed(mu, omega=None):
        ham = build(mu, omega)
        lam, V = perturb(ham.lam.copy(), ham.V.copy())
        return dataclasses.replace(ham, lam=lam, V=V)

    monkeypatch.setattr(observer, "observer_hamiltonian", perturbed)
    rc, out, _ = _run(capsys, ["verify", _write(tmp_path, CANONICAL)])
    monkeypatch.undo()
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    return rc, {n for n, c in checks.items() if not c["passed"]}, checks


def test_verify_catches_a_perturbed_spectrum(tmp_path, capsys, monkeypatch):
    # verify builds the chain spectrum once and reads every flow from it, the
    # steady offset included, so the closed-form flow is symplectic for any
    # spectrum and commutation cannot fail.  But a spectrum that is not the
    # chain's gives a flow and a steady offset that are not the chain's: the
    # probe states' energy under the true Hamiltonian drifts.
    def turn(lam, V):
        # two eigenvectors turned by 1e-6 no longer diagonalize the chain
        c, s = np.cos(1e-6), np.sin(1e-6)
        V[:, :2] = V[:, :2] @ np.array([[c, -s], [s, c]])
        return lam, V

    def nudge(k):
        def moved(lam, V):
            lam[k] += 1e-6  # one eigenvalue moved by 1e-6
            return lam, V

        return moved

    for perturb in (nudge(0), nudge(1), nudge(2), turn):
        rc, failed, checks = _verify_with_spectrum(
            tmp_path, capsys, monkeypatch, perturb
        )
        assert rc == 1
        assert failed == {"energy_conservation"}
        assert checks["commutation_preservation"]["residual"] < 1e-14
        energy = checks["energy_conservation"]
        assert energy["residual"] > 50.0 * energy["tolerance"]


def test_verify_fails_commutation_on_a_damped_flow(tmp_path, capsys, monkeypatch):
    # uniform damping contracts phase space, which only the commutation check
    # reads: the other checks take the chain spectrum, not the propagator
    def damped(augmented, t):
        drift = augmented.drift - 0.3 * np.eye(augmented.dim)
        return scipy.linalg.expm(t * drift)

    monkeypatch.setattr(sim, "flow_matrix", damped)
    rc, out, err = _run(capsys, ["verify", _write(tmp_path, CANONICAL)])
    assert (rc, err) == (1, "")
    checks = _strict_json(out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["commutation_preservation"]


def test_each_command_builds_one_spectrum(tmp_path, capsys, monkeypatch):
    # build_observer builds the chain's Jacobi form and spectrum; every later
    # reader takes them from the realization
    counts = {"observer_hamiltonian": 0, "eigh": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        observer,
        "observer_hamiltonian",
        counted(observer.observer_hamiltonian, "observer_hamiltonian"),
    )
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
    path = _write(tmp_path, CANONICAL)
    sweep = ["--param", "mu_1", "--values", "0.5", "1", "2"]
    for argv, want in (
        (["build", path], 1),
        (["verify", path], 1),
        (["simulate", path, "--csv", str(tmp_path / "s.csv")], 1),
        (["sweep", path, *sweep], 3),
    ):
        for key in counts:
            counts[key] = 0
        rc, _, _ = _run(capsys, argv)
        assert rc == 0
        assert counts == {"observer_hamiltonian": want, "eigh": want}, argv


def test_verify_singular_chain_exits_3(tmp_path, capsys):
    singular = {
        **CANONICAL,
        "chain": {"mu": [1.0, 1.0], "omega_override": [1.0, 1.0]},
    }
    rc, out, err = _run(capsys, ["verify", _write(tmp_path, singular)])
    assert rc == 3
    assert out == ""
    assert "chain drift is singular" in err


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


def test_csv_export_is_not_bound_by_the_series_budget(tmp_path, capsys, monkeypatch):
    # the budget bounds the arrays simulate() returns; an export holds a few
    # chunks whatever its row count
    config = _write(tmp_path, CANONICAL)
    unpatched = tmp_path / "unpatched.csv"
    assert _run(capsys, ["simulate", config, "--csv", str(unpatched)])[0] == 0
    monkeypatch.setattr(cli.sim, "MAX_SERIES_BYTES", 2**19)
    csv_path = tmp_path / "series.csv"
    rc, _, err = _run(capsys, ["simulate", config, "--csv", str(csv_path)])
    assert (rc, err) == (0, "")
    assert csv_path.read_bytes() == unpatched.read_bytes()
    with pytest.raises(ValueError, match="10001 samples of a chain with N = 3"):
        _simulated(config)


def _uniform_chain(n, rows, stride, method="exact"):
    """A config whose ``stride``-thinned grid holds exactly ``rows`` rows."""
    dt = 0.125
    return {
        **CANONICAL,
        "chain": {"mu": [1.0] * n},
        "initial": {"plant": [0.3, 0.9], "observer": "zero"},
        "horizons": [(rows - 1) * stride * dt],
        "sample_dt": dt,
        "csv_stride": stride,
        "method": method,
    }


def _simulated(config):
    """The series ``simulate()`` returns for a config file, at its ``csv_stride``."""
    cfg = cli.load_config(str(config))
    augmented = cli._augmented(cfg)
    sim_cfg = cli._sim_config(cfg, augmented)
    return sim.simulate(augmented, sim_cfg, stride=cfg.csv_stride)


def _percent_csv(series):
    """The CSV of ``series`` with every value written by ``"%.17g" % v`` alone."""
    n = series.z_o.shape[1]
    header = ["t", "z_p"] + [f"z_o_{i}" for i in range(1, n + 1)]
    header += [f"avg_z_o_{i}" for i in range(1, n + 1)]
    table = np.column_stack(
        [series.times, series.z_p, series.z_o, series.running_avg_z_o]
    )
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


def _assert_streams_the_materialised_bytes(tmp_path, capsys, monkeypatch, raw, rows):
    path = _write(tmp_path, raw)
    want = _percent_csv(_simulated(path))
    assert want.count(b"\n") == rows + 1
    for workers in (1, 2):
        monkeypatch.setattr(sim, "_CSV_WORKERS", workers)
        got = tmp_path / f"got{workers}.csv"
        rc, _, err = _run(capsys, ["simulate", path, "--csv", str(got)])
        assert (rc, err) == (0, "")
        assert got.read_bytes() == want, (raw["csv_stride"], rows, workers)


@pytest.mark.parametrize(
    "method, n, stride",
    [
        # the exact cases keep their ids from before rk4 joined them
        pytest.param(m, n, k, id=f"{n}-{k}" + ("-rk4" if m == "rk4" else ""))
        for m in ("exact", "rk4")
        for n in (1, 3, 10, 30)
        for k in (1, 7, 40, 100)
    ],
)
def test_simulate_csv_streams_the_materialised_bytes(
    tmp_path, capsys, monkeypatch, method, n, stride
):
    # one chunk, one chunk plus a row, the shortest grid (two steps, since
    # sample_dt < horizon_T and the horizon lies on the grid), then
    # single-row chunks
    chunk = max(1, sim._CHUNK_ENTRIES // n)
    for rows in (chunk, chunk + 1, 2 if stride > 1 else 3):
        raw = _uniform_chain(n, rows, stride, method)
        _assert_streams_the_materialised_bytes(tmp_path, capsys, monkeypatch, raw, rows)
    monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1)
    raw = _uniform_chain(n, 5, stride, method)
    _assert_streams_the_materialised_bytes(tmp_path, capsys, monkeypatch, raw, 5)


CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CONFIG_DIR.glob("*.json")) + ["n10_three_chunks"]
)
def test_simulate_csv_writes_each_value_as_percent_17g(
    tmp_path, capsys, monkeypatch, name
):
    # checks the streamed kernel against Python's own formatting of the
    # series simulate() returns, so a kernel bug cannot cancel out
    config = CONFIG_DIR / name
    if name == "n10_three_chunks":
        rows = 2 * sim._chunk_rows(10) + 100
        config = _write(tmp_path, _uniform_chain(10, rows, 1))
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    got = tmp_path / "got.csv"
    rc, _, err = _run(capsys, ["simulate", str(config), "--csv", str(got)])
    assert (rc, err) == (0, "")
    assert got.read_bytes() == _percent_csv(_simulated(config))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_leave_stderr_empty(tmp_path, capsys, name):
    config = str(CONFIG_DIR / name)
    for argv in (
        ["build", config],
        ["verify", config],
        ["simulate", config, "--csv", str(tmp_path / "series.csv")],
        ["sweep", config, "--param", "mu_1", "--values", "0.5", "1", "2"],
    ):
        rc, out, err = _run(capsys, argv)
        assert (rc, err) == (0, ""), argv
        assert out


def test_simulate_csv_drift_failure_leaves_no_file_and_no_thread(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(sim, "_CSV_WORKERS", 2)
    baseline = threading.active_count()
    csv_path = tmp_path / "series.csv"
    config = _write(tmp_path, {**CANONICAL, "horizons": [1000.0]})
    argv = ["simulate", config, "--csv"]
    rc, _, _ = _run(capsys, [*argv, str(csv_path)])
    assert rc == 0
    assert csv_path.read_bytes().count(b"\n") == 100002  # 19 chunks
    assert threading.active_count() == baseline

    # the stream fails from its third chunk on
    fill = sim._ExactRoute.fill
    chunks = []

    def failing(self, block):
        drift = fill(self, block)
        if len(block) > 2:  # the report reads two rows
            chunks.append(block[0, 0])
            if block[0, 0] > 100.0:
                raise IntegratorAccuracyError(f"chunk at t = {block[0, 0]:g} failed")
        return drift

    monkeypatch.setattr(sim._ExactRoute, "fill", failing)
    failed = tmp_path / "failed.csv"
    rc, out, err = _run(capsys, [*argv, str(failed)])
    assert rc == 1
    assert out == ""
    assert "simulation failed: chunk at t = 109.22 failed" in err
    assert not failed.exists()
    assert len(chunks) < 19  # the chunks not yet started were cancelled
    assert threading.active_count() == baseline

    # a link, such as /dev/stdout, is never deleted
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    rc, _, _ = _run(capsys, [*argv, str(link)])
    assert rc == 1
    assert link.is_symlink()


def test_simulate_exact_horizons_need_no_sample_grid(tmp_path, capsys):
    # no sample_dt: the default step resolves the fastest detuning (about
    # 10.1), and the horizon 10 misses its grid, which the exact route never
    # reads
    raw = {
        "plant": {"alpha": [1, 0]},
        "chain": {"mu": [6.123, 4, 1]},
        "initial": {"plant": [1, 0], "observer": "zero"},
        "horizons": [10, 100],
    }
    rc, out, err = _run(capsys, ["simulate", _write(tmp_path, raw)])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    dt = report["sample_dt"]
    assert dt < sim.DEFAULT_DT_CAP
    assert abs(round(10.0 / dt) * dt - 10.0) > 1e-3
    assert report["horizons"] == [10.0, 100.0]
    assert report["passed"]


def test_rk4_reaches_horizons_off_the_default_grid(tmp_path, capsys):
    # the same chain on the rk4 route, whose grid misses both horizons: it
    # reaches each with one short step, and its CSV has the exact route's
    # times, ending at 100
    raw = {
        "plant": {"alpha": [1, 0]},
        "chain": {"mu": [6.123, 4, 1]},
        "initial": {"plant": [1, 0], "observer": "zero"},
        "horizons": [10, 100],
        "method": "rk4",
    }
    path = _write(tmp_path, raw)
    rc, out, err = _run(capsys, ["simulate", path])
    assert (rc, err) == (0, "")
    report = _strict_json(out)
    assert (report["method"], report["horizons"]) == ("rk4", [10.0, 100.0])
    times = {}
    for method in ("rk4", "exact"):
        config = _write(tmp_path, {**raw, "method": method}, f"{method}.json")
        csv_path = tmp_path / f"{method}.csv"
        rc, _, err = _run(capsys, ["simulate", config, "--csv", str(csv_path)])
        assert (rc, err) == (0, "")
        rows = csv_path.read_text().splitlines()[1:]
        times[method] = [row[: row.index(",")] for row in rows]
    assert times["rk4"] == times["exact"]
    assert times["rk4"][-1] == "100"
    rc, out, err = _run(capsys, ["sweep", path, "--param", "mu_1", "--values", "1"])
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 2


# canonical chain, default step 0.01: grids that break a rule, with its message
_RULE_BREAKING_GRIDS = [
    pytest.param([0.005], "sample_dt must be smaller than horizon_T", id="short"),
    pytest.param(
        [1e3, 1e17],
        "the sample grid has too many steps to index; increase sample_dt",
        id="unindexed",
    ),
]


def _without_sample_dt(**fields):
    raw = {**CANONICAL, **fields}
    del raw["sample_dt"]
    return raw


@pytest.mark.parametrize("horizons, message", _RULE_BREAKING_GRIDS)
def test_exact_runs_read_no_sample_grid(tmp_path, capsys, horizons, message):
    # the exact report evaluates only t = 0 and the horizons
    path = _write(tmp_path, _without_sample_dt(horizons=horizons))
    rc, out, err = _run(capsys, ["simulate", path])
    assert (rc, err) == (0, "")
    assert _strict_json(out)["horizons"] == horizons
    argv = ["sweep", path, "--param", "mu_1", "--values", "0.5", "1"]
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("horizons, message", _RULE_BREAKING_GRIDS)
def test_grid_readers_keep_the_grid_rules(tmp_path, capsys, horizons, message):
    # an export reads the grid, and so does every rk4 run
    path = _write(tmp_path, _without_sample_dt(horizons=horizons))
    csv_path, out_path = tmp_path / "series.csv", tmp_path / "report.json"
    argv = ["simulate", path, "--csv", str(csv_path), "--out", str(out_path)]
    assert _run(capsys, argv) == (3, "", f"construction error: {message}\n")
    assert not csv_path.exists()
    assert not out_path.exists()
    rk4 = _write(tmp_path, _without_sample_dt(horizons=horizons, method="rk4"))
    for argv in (["simulate", rk4], ["sweep", rk4, "--param", "mu_1", "--values", "1"]):
        assert _run(capsys, argv) == (3, "", f"construction error: {message}\n")


def test_nonpositive_sample_dt_exits_3_for_every_run(tmp_path, capsys):
    for dt in (0.0, -0.01):
        path = _write(tmp_path, {**CANONICAL, "sample_dt": dt})
        for argv in (["verify", path], ["simulate", path],
                     ["sweep", path, "--param", "mu_1", "--values", "1"]):
            want = (3, "", "construction error: sample_dt must be positive\n")
            assert _run(capsys, argv) == want


@pytest.mark.parametrize(
    "fields", [{"sample_dt": 1e-321}, {}], ids=["subnormal_dt", "default_dt"]
)
def test_envelope_overflow_exits_3_without_a_warning(tmp_path, capsys, fields):
    # C/T overflows at T = 1e-320; nothing may print a numpy warning
    raw = {**_without_sample_dt(horizons=[1e-320]), **fields}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(capsys, ["simulate", _write(tmp_path, raw)])
    assert (rc, out) == (3, "")
    assert err == "construction error: the C/T envelope overflows at horizon 1e-320\n"


_HUGE_OBSERVER = {"plant": [1.0, 0.0], "observer": [1e10, 0, 0, 0, 0, 0]}


@pytest.mark.parametrize(
    "raw, argv, code, message",
    [
        pytest.param(
            {**CANONICAL, "initial": _HUGE_OBSERVER, "horizons": [1e-300],
             "sample_dt": 1e-301},
            ["simulate"],
            3,
            "construction error: the trajectory_envelope is not finite "
            "at horizon 1e-300\n",
            id="simulate_envelope",
        ),
        pytest.param(
            _without_sample_dt(initial=_HUGE_OBSERVER, horizons=[1e-300]),
            ["sweep", "--param", "mu_1", "--values", "1", "2"],
            3,
            "construction error: the trajectory_envelope is not finite "
            "at horizon 1e-300\n",
            id="sweep_envelope",
        ),
        pytest.param(
            {**CANONICAL, "plant": {"alpha": [300.0, 400.0]}, "chain": {"mu": [1, 1]},
             "initial": {"plant": [1.0, 0.0], "observer": "zero"},
             "method": "rk4", "sample_dt": 0.001, "horizons": [10.0, 100.0]},
            ["simulate"],
            1,
            "simulation failed: the rk4 state overflows past step 24832; "
            "decrease sample_dt\n",
            id="rk4_state",
        ),
        # M^b overflows while the block powers are built, before any step
        pytest.param(
            {**CANONICAL, "plant": {"alpha": [3000.0, 4000.0]}, "chain": {"mu": [1, 1]},
             "initial": {"plant": [1.0, 0.0], "observer": "zero"},
             "method": "rk4", "sample_dt": 0.01, "horizons": [10.0, 100.0]},
            ["simulate"],
            1,
            "simulation failed: the rk4 state overflows past step 0; "
            "decrease sample_dt\n",
            id="rk4_block_powers",
        ),
        *(
            pytest.param(
                {**CANONICAL, "plant": {"alpha": alpha}, "chain": {"mu": mu}},
                [command],
                3,
                "construction error: the plant coupling is not finite: "
                "|alpha|^2 or mu_1 alpha alpha^T overflows\n",
                id=f"{command}_{name}",
            )
            for name, alpha, mu in (
                ("alpha_sq", [1e200, 0.0], [1.0, 1.0]),
                ("coupling", [1e150, 0.0], [1e10, 1.0]),
                ("mu_1", [1.0, 0.0], [1e308, 1.0]),
                # mu_1 alpha alpha^T is finite; the drift's cross block doubles it
                ("cross_block", [1e10, 0.0], [1e288, 1.0]),
            )
            for command in ("build", "verify", "simulate")
        ),
        pytest.param(
            CANONICAL,
            ["sweep", "--param", "mu_1", "--values", "1", "1e308"],
            3,
            "construction error: the plant coupling is not finite: "
            "|alpha|^2 or mu_1 alpha alpha^T overflows\n",
            id="sweep_mu_1",
        ),
        # 2 mu_1 alpha overflows although 2 mu_1 alpha alpha^T does not
        pytest.param(
            {**CANONICAL, "plant": {"alpha": [0.6, 0.0]},
             "chain": {"mu": [1.7e308, 1.0], "omega_override": [1.0, 1.0]}},
            ["build"],
            3,
            "construction error: the plant coupling is not finite: "
            "|alpha|^2 or mu_1 alpha alpha^T overflows\n",
            id="build_input_vector",
        ),
        *(
            pytest.param(
                {**CANONICAL,
                 "chain": {"mu": [1.0, 1.0], "omega_override": [1e308, 1.0]}},
                [command],
                3,
                "construction error: the chain drift is not finite: "
                "a detuning or gain overflows\n",
                id=f"{command}_chain_drift",
            )
            for command in ("build", "verify", "simulate")
        ),
        pytest.param(
            {**CANONICAL, "chain": {"mu": [1.0, 1.0]},
             "initial": {"plant": [1e300, 0.0], "observer": "zero"}},
            ["verify"],
            3,
            "construction error: the energy_conservation residual is not finite\n",
            id="verify_energy",
        ),
        # ||E||^2 overflows, so the commutation residual is divided by ||E||
        # twice; the run completes and fails other checks
        pytest.param(
            {**CANONICAL, "chain": {"mu": [1e300, 1e300]}},
            ["verify"],
            1,
            "",
            id="verify_commutation_scale",
        ),
        # the phase table overflows at the last horizon
        pytest.param(
            {**CANONICAL, "horizons": [1e300, 1e308]},
            ["simulate"],
            3,
            "construction error: the per_element_error is not finite "
            "at horizon 1e+308\n",
            id="simulate_huge_horizon",
        ),
    ],
)
def test_overflowing_runs_fail_without_a_warning_or_a_file(
    tmp_path, capsys, raw, argv, code, message
):
    out_path, csv_path = tmp_path / "report.json", tmp_path / "series.csv"
    command = [argv[0], _write(tmp_path, raw), *argv[1:], "--out", str(out_path)]
    if argv[0] == "simulate":
        command += ["--csv", str(csv_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(capsys, command) == (code, "", message)
    # only a run that completes writes its report
    assert out_path.exists() == (message == "")
    assert not csv_path.exists()


def test_simulate_rk4_step_cap_exits_3(tmp_path, capsys):
    long_rk4 = {**CANONICAL, "method": "rk4", "horizons": [1e9]}
    rc, _, err = _run(capsys, ["simulate", _write(tmp_path, long_rk4)])
    assert rc == 3
    assert "rk4 route would take over 10000000 steps" in err


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
    # both chains have N = 3 and need 6 entries; a wrong length is a config
    # error for every command, before anything is built
    design = {"mu": [1.0, 1.0, 1.0]}
    physical = {"mu_1": 1.0, "kappas": [4.0, 4.0, 4.0, 4.0]}
    for chain, length in ((design, 2), (design, 4), (design, 8), (physical, 4)):
        bad = {
            **CANONICAL,
            "chain": chain,
            "initial": {"plant": [1.0, 0.0], "observer": [0.0] * length},
        }
        path = _write(tmp_path, bad)
        for argv in (["build", path], ["verify", path], ["simulate", path],
                     ["sweep", path, "--param", "mu_1", "--values", "1"]):
            rc, out, err = _run(capsys, argv)
            assert (rc, out) == (2, ""), (length, argv[0])
            assert "config error: initial.observer: expected exactly 6 entries" in err


def test_wrong_length_omega_override_is_a_config_error(tmp_path, capsys):
    # both chains have N = 3; the override is checked against N at parse time
    for chain in (
        {"mu": [1.0, 1.0, 1.0]},
        {"mu_1": 1.0, "kappas": [4.0, 4.0, 4.0, 4.0]},
    ):
        bad = {**CANONICAL, "chain": {**chain, "omega_override": [2.0, 2.0]}}
        path = _write(tmp_path, bad)
        for argv in (["build", path], ["verify", path], ["simulate", path],
                     ["sweep", path, "--param", "mu_1", "--values", "1"]):
            rc, out, err = _run(capsys, argv)
            assert (rc, out) == (2, ""), argv[0]
            assert "config error: chain.omega_override: expected exactly 3 entries" in err


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--param", "mu_1", "--values", "0.5", "1"]],
    ids=["simulate", "sweep"],
)
def test_drift_failure_is_reported_alike(tmp_path, capsys, monkeypatch, argv):
    # a negative tolerance makes every rk4 run's drift check fail
    monkeypatch.setattr(sim, "Z_DRIFT_TOL", -1.0)
    out_path = tmp_path / "output"
    rk4 = _write(tmp_path, {**CANONICAL, "method": "rk4"})
    command = [argv[0], rk4, *argv[1:]]
    for extra in ([], ["--out", str(out_path)]):
        rc, out, err = _run(capsys, [*command, *extra])
        assert (rc, out) == (1, "")
        assert err.startswith("simulation failed: plant observable drifted")
    assert not out_path.exists()


# design chains on which the rounding of the structural zero alpha^T J alpha
# once read as a drift of z beyond its tolerance
@pytest.mark.parametrize(
    "alpha, mu",
    [
        pytest.param([30.0, 40.0], [1.0, 1.0], id="alpha_30_40"),
        pytest.param([300.0, 400.0], [1.0, 1.0, 1.0], id="alpha_300_400"),
        pytest.param([144.928, 512.292], [0.491, 2.28], id="alpha_off_axis"),
    ],
)
def test_exact_route_conserves_z_by_construction(tmp_path, capsys, alpha, mu):
    x_p = [0.3, 0.9]
    raw = {
        **CANONICAL,
        "plant": {"alpha": alpha},
        "chain": {"mu": mu},
        "initial": {"plant": x_p, "observer": "zero"},
    }
    csv_path = tmp_path / "series.csv"
    argv = ["simulate", _write(tmp_path, raw), "--csv", str(csv_path)]
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    report = _strict_json(out)
    z = float(np.array(alpha) @ np.array(x_p))
    assert report["passed"]
    assert (report["z_p"], report["z_p_drift"]) == (z, 0.0)
    z_p = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=1)
    assert z_p.size == 10001
    assert np.all(z_p == z)


def test_a_singular_chain_exits_3_from_every_command(tmp_path, capsys):
    # lambda_min is 1e-16 of lambda_max: positive to rounding, but singular
    singular = {
        **CANONICAL,
        "chain": {"mu": [1.0, 1.0, 1.0], "omega_override": [1.0, 2.0, 1.0]},
    }
    path = _write(tmp_path, singular)
    for argv in (["build", path], ["verify", path], ["simulate", path],
                 ["sweep", path, "--param", "mu_1", "--values", "1"]):
        rc, out, err = _run(capsys, argv)
        assert (rc, out) == (3, ""), argv[0]
        assert err.startswith("construction error: chain "), argv[0]
        assert "singular" in err, argv[0]


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


# ---------------------------------------------------------------------------
# repeated in-process calls


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    path = _write(tmp_path, CANONICAL)
    assert _run(capsys, ["build", path])[0] == 0
    first = len(built)
    assert first > 0
    assert _run(capsys, ["sweep", path, "--param", "mu_1", "--values", "1"])[0] == 0
    assert len(built) == first


def test_main_runs_the_command_function_bound_when_it_is_called(
    tmp_path, capsys, monkeypatch
):
    path = _write(tmp_path, CANONICAL)
    assert _run(capsys, ["build", path])[0] == 0
    monkeypatch.setattr(cli, "cmd_build", lambda args: ("patched\n", 5))
    assert _run(capsys, ["build", path]) == (5, "patched\n", "")


@pytest.mark.parametrize(
    "bad",
    [["build", "{path}", "--bogus"], ["sweep", "{path}", "--values", "1"], ["nope"]],
    ids=["unknown_option", "missing_option", "unknown_command"],
)
def test_an_argv_error_leaves_main_usable(tmp_path, capsys, bad):
    path = _write(tmp_path, CANONICAL)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(path=path) for arg in bad])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: qchain")
    rc, out, err = _run(capsys, ["build", path])
    assert (rc, err) == (0, "")
    assert _strict_json(out)["name"] == "canonical_n3"


def test_repeated_calls_write_the_same_bytes(tmp_path, capsys):
    path = _write(tmp_path, CANONICAL)
    csv_path = tmp_path / "series.csv"
    for argv in (
        ["build", path],
        ["build", path, "--emit-config"],
        ["verify", path],
        ["simulate", path, "--csv", str(csv_path)],
        ["sweep", path, "--param", "mu_1", "--values", "0.5", "1", "2"],
    ):
        first = _run(capsys, argv)
        csv_first = csv_path.read_bytes() if csv_path.exists() else None
        for _ in range(2):
            assert _run(capsys, argv) == first
            if csv_first is not None:
                assert csv_path.read_bytes() == csv_first
        csv_path.unlink(missing_ok=True)


def test_each_call_reads_qchain_log(tmp_path):
    # a fresh process, so qchain adds its own handler on the first call
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "QCHAIN_LOG"}
    script = (
        "import os, sys\n"
        "from qchain import cli\n"
        "for level in ('', 'info', 'warning', 'info'):\n"
        "    os.environ['QCHAIN_LOG'] = level\n"
        "    sys.stderr.write(f'[{level}]\\n')\n"
        "    assert cli.main(['simulate', sys.argv[1], '--out', os.devnull]) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _write(tmp_path, CANONICAL)],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    line = "INFO qchain: simulating canonical_n3: 3 elements, horizon 100, dt 0.01\n"
    assert proc.stderr == f"[]\n[info]\n{line}[warning]\n[info]\n{line}"


def test_log_lines_go_to_the_stderr_of_their_call(tmp_path):
    # a fresh process, so qchain adds its own handler on the first call
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, os, sys\n"
        "from qchain import cli\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        assert cli.main(['simulate', sys.argv[1], '--out', os.devnull]) == 0\n"
        "    print(repr(err.getvalue()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _write(tmp_path, CANONICAL)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "QCHAIN_LOG": "info"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    line = "INFO qchain: simulating canonical_n3: 3 elements, horizon 100, dt 0.01\n"
    assert proc.stdout == f"{line!r}\n" * 2


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


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qchain.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
