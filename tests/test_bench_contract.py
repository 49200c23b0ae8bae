"""The benchmark's output checks hold on every chain of the certify workload.

``qbench`` rejects a run whose ``build`` or ``verify`` output its reference
checks refuse: for verify, exactly eight checks and, on a chain detuned by
1.1, exactly the failed checks of ``workloads.DETUNED_FAILS``.  This test
runs every ``build`` and ``verify`` job of the certify workload (the shipped
configs, the design chains of N = 1, 2, 5, 10, 30 and 100 in both chain
forms, the N = 3 probe and the three detuned chains) through ``cli.main``
and applies the same checks, so a change that breaks the benchmark's
contract on any chain size fails here first; its ``simulate`` and ``sweep``
jobs, the N = 3 and N = 10 rk4 reports among them, go through the checks
of the second test.  The second test does the same
for every ``simulate`` and ``sweep`` job of the series_long workload (its
N = 3 to 100 design chains, the shipped configs, the sweep and the N = 3
probes, the ``--csv`` and rk4 ones among them): each report must pass and
agree with the Van Loan reference, ``matrix_residual`` included.  The third
does the same for the csv_export workload, whose stride-1 exports of N = 10
and N = 30 span many chunks of the CSV writer.  ``qbench`` is imported from
the repository, read only.
"""

import json
import pathlib
import sys

from qchain import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "qbench"))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_certify_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the workload names the shipped configs from here
    sizes, detuned, problems = set(), [], {}
    for job in workloads.make_jobs("certify", seed=1, workdir=str(tmp_path)):
        raw = reference.load(job.config)
        n = reference.chain_params(raw)[0].size
        if job.command not in ("build", "verify"):
            continue
        sizes.add(n)
        assert cli.main(job.argv()) == job.expect_exit, job.config
        report = reference.load(job.out)
        if job.command == "build":
            problems[job.id] = reference.check_build(report, raw)
        else:
            problems[job.id] = reference.check_verify(
                report, raw, job.expect_failed_checks
            )
            if job.expect_failed_checks:
                detuned.append(job.expect_failed_checks)
    assert sizes == {1, 2, 3, 5, 10, 30, 100}
    assert detuned == [workloads.DETUNED_FAILS] * 3
    assert {job: found for job, found in problems.items() if found} == {}
    # the rk4_n3, rk4_n10 and probe reports, and the probe's other commands
    kinds, found = _check_simulate_and_sweep_jobs("certify", tmp_path)
    assert kinds.count("rk4") == 3
    assert set(kinds) == {"simulate", "sweep", "csv", "rk4"}
    assert found == {}


def _check_simulate_and_sweep_jobs(workload, workdir):
    """Run ``workload``'s simulate and sweep jobs at seed 1; their kinds, problems."""
    kinds, problems = [], {}
    for job in workloads.make_jobs(workload, seed=1, workdir=str(workdir)):
        if job.command not in ("simulate", "sweep"):
            continue
        kinds.append(job.kind)
        assert cli.main(job.argv()) == job.expect_exit, job.config
        raw = reference.load(job.config)
        if job.command == "sweep":
            refs = [reference.sim_reference(reference.swept_config(raw, v))
                    for v in job.sweep_values]
            problems[job.id] = reference.check_sweep(
                pathlib.Path(job.out).read_text(), job.sweep_values, refs
            )
            continue
        ref = reference.sim_reference(raw)
        problems[job.id] = reference.check_simulate(
            reference.load(job.out), ref, rk4=job.kind == "rk4"
        )
        if job.csv:
            problems[job.id] += reference.check_csv(job.csv, raw, ref)[0]
    return kinds, {job: found for job, found in problems.items() if found}


def test_series_long_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    kinds, problems = _check_simulate_and_sweep_jobs("series_long", tmp_path)
    assert set(kinds) == {"simulate", "sweep", "csv", "rk4"}
    assert problems == {}


def test_csv_export_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    kinds, problems = _check_simulate_and_sweep_jobs("csv_export", tmp_path)
    # the N = 10, N = 30 and shipped exports, and the probe's
    assert kinds.count("csv") == 4
    assert set(kinds) == {"simulate", "sweep", "csv", "rk4"}
    assert problems == {}


def test_certify_rk4_chain_reaches_a_thousand(tmp_path, monkeypatch):
    # certify's seed-1 rk4_n10 chain with horizons [100, 1000] once exited 1
    # on a z drift of 5.232e-9 against its tolerance of 1.760e-9; stepped in
    # the plant frame it passes the benchmark's checks
    monkeypatch.chdir(ROOT)
    jobs = workloads.make_jobs("certify", seed=1, workdir=str(tmp_path))
    (job,) = [job for job in jobs if job.config.endswith("rk4_n10.json")]
    raw = {**reference.load(job.config), "horizons": [100.0, 1000.0]}
    config, out = tmp_path / "rk4_n10_long.json", tmp_path / "report.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["simulate", str(config), "--out", str(out)]) == 0
    report = reference.load(str(out))
    assert report["z_p_drift"] == 0.0
    ref = reference.sim_reference(raw)
    assert reference.check_simulate(report, ref, rk4=True) == []
