"""Tests of the benchmark's own machinery: output checks and the tracer.

    PYTHONPATH=src python3 -m pytest qbench -q
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qchain import cli  # noqa: E402

CONFIG = {
    "name": "small",
    "plant": {"alpha": [0.8, -0.6]},
    "chain": {"mu": [1.2, 0.7, 1.1]},
    "initial": {"plant": [0.9, 0.3], "observer": [0.1, -0.2, 0.0, 0.3, 0.2, 0.1]},
    "horizons": [10.0, 100.0],
    "sample_dt": 0.01,
    "seed": 3,
    "csv_stride": 7,
}


def _simulate(tmp_path, raw, csv=False):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    argv = ["simulate", str(cfg), "--out", str(out)]
    if csv:
        argv += ["--csv", str(tmp_path / "series.csv")]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def test_correct_simulate_passes_and_perturbed_one_fails(tmp_path):
    report = _simulate(tmp_path, CONFIG)
    ref = reference.sim_reference(CONFIG)
    assert reference.check_simulate(report, ref, rk4=False) == []

    bad = dict(report, per_element_error=(
        np.array(report["per_element_error"]) * (1.0 + 1e-3)).tolist())
    assert reference.check_simulate(bad, ref, rk4=False)

    bad = dict(report, matrix_residual=(
        np.array(report["matrix_residual"]) * (1.0 + 1e-3)).tolist())
    assert reference.check_simulate(bad, ref, rk4=False)

    cert = dict(report["certificate"])
    cert["avg_constant"] *= 1.0 + 1e-3
    assert reference.check_simulate(dict(report, certificate=cert), ref, rk4=False)


def test_rk4_route_matches_the_exact_reference(tmp_path):
    raw = dict(CONFIG, method="rk4")
    report = _simulate(tmp_path, raw)
    ref = reference.sim_reference(raw)
    assert reference.check_simulate(report, ref, rk4=True) == []
    bad = dict(report, per_element_error=(
        np.array(report["per_element_error"]) * (1.0 + 1e-3)).tolist())
    assert reference.check_simulate(bad, ref, rk4=True)


def test_csv_check_catches_a_wrong_last_row_and_a_lost_row(tmp_path):
    _simulate(tmp_path, CONFIG, csv=True)
    ref = reference.sim_reference(CONFIG)
    path = tmp_path / "series.csv"
    problems, _, rows, _ = reference.check_csv(str(path), CONFIG, ref)
    assert problems == []
    assert rows == reference.csv_rows(10001, 7) == 1430  # 0, 7, ..., 9996 and 10000

    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-3))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert reference.check_csv(str(path), CONFIG, ref)[0]

    path.write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")
    assert reference.check_csv(str(path), CONFIG, ref)[0]


def test_build_and_verify_checks_use_the_jacobi_certificate(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "build.json"
    assert cli.main(["build", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert reference.check_build(report, CONFIG) == []
    report["certificate"]["lambda_min"] *= 1.0 + 1e-3
    assert reference.check_build(report, CONFIG)

    out = tmp_path / "verify.json"
    assert cli.main(["verify", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert reference.check_verify(report, CONFIG) == []
    assert reference.check_verify(report, CONFIG, workloads.DETUNED_FAILS)


def _run_job(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / f"{name}.json"
    t0 = time.perf_counter()
    assert cli.main(["simulate", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes(), time.perf_counter() - t0


def test_tracer_keeps_output_identical_and_accounts_for_wall_time(tmp_path):
    plain, _ = _run_job(tmp_path, "plain")
    original = cli.main
    tr = tracer.Tracer().install()
    try:
        assert cli.main is not original
        traced, wall = _run_job(tmp_path, "traced")
    finally:
        tr.uninstall()
    assert cli.main is original
    assert traced == plain
    assert tr.stats["cli.main"][0] == 1
    assert tr.stats["sim.simulate"][0] == 1
    assert tr.stats["core.ConservativeFlow.propagate"][0] >= 1
    assert tr.samples_evaluated == 10001
    # Self times cover the command's wall time to within 2 % plus 2 ms: the
    # only unattributed time is the call into cli.main itself.
    assert abs(wall - sum(s[2] for s in tr.stats.values())) <= 0.02 * wall + 2e-3
    assert all(s[2] <= s[1] + 1e-9 for s in tr.stats.values())


def test_tracer_skips_absent_names():
    tr = tracer.Tracer(layers=tracer.LAYERS + ("no_such_layer",),
                       methods=tracer.METHODS + ("core.NoSuchClass.method",
                                                 "core.ConservativeFlow.no_such"))
    tr.install()
    tr.uninstall()
    assert tr.absent == ["no_such_layer", "core.NoSuchClass.method",
                         "core.ConservativeFlow.no_such"]


def test_benchmark_json_matches_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == dict(run.PER_LAYER)
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("n_samples,stride,rows", [(10, 1, 10), (10, 3, 4), (10, 9, 2),
                                                   (10001, 100, 101)])
def test_csv_rows_keeps_the_final_sample(n_samples, stride, rows):
    assert reference.csv_rows(n_samples, stride) == rows
