"""The qchain benchmark: run one workload, check every output, print metrics.

    python3 qbench/run.py --workload series_long --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's configs are generated from
``--seed`` under ``.bench_work/``.  Set-up time is measured first, in fresh
interpreters.  Then passes run one after another (closed loop, one client):
each pass is a fresh ``worker.py`` process that runs every job of the
workload once through ``qchain.cli.main``.  Passes repeat until the next one
would end after ``--seconds``.  Every job's output is checked against the
independent references in ``reference.py`` after its pass.

With ``--trace 0`` the end-to-end metrics are the medians over passes.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics are the medians over traced passes.  Human-readable lines go first,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of every pass, the environment and any failed check go to
``.bench_results/<workload>-s<seed>-t<trace>.json``.  See README.md in this
directory for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every worker, so the
# two CPUs of a small box do not contend between BLAS threads and the setting
# is identical on every commit compared.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed for ``setup_s``, half before the passes and half
#: after, so that a slow minute on a shared machine moves fewer of them; the
#: median is reported.
SETUP_RUNS = 6

#: Every run, workers included, ends well inside 180 s.
RUN_LIMIT_S = 170.0

KINDS = ("simulate", "sweep", "csv", "verify", "build", "rk4")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("simulate_s", "s"), ("sweep_s", "s"),
    ("csv_s", "s"), ("verify_s", "s"), ("build_s", "s"), ("rk4_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_MODULES = tuple(tracer.layer_name(m) for m in tracer.LAYERS)

#: Functions whose self time (and call count) is reported per layer.
TRACED = (
    "sim.simulate", "core.ConservativeFlow.propagate", "sim.running_average",
    "sim.consensus_report", "analysis.time_average_integral",
    "sim.write_timeseries_csv", "core.check_commutation_preservation",
    "analysis.exp_norm_bound", "core.ConservativeFlow.matrix", "cli.cmd_verify",
    "analysis.split_report", "network.build_chain", "network.connect",
    "network.verify_noise_cancellation", "observer.build_observer",
    "observer.assemble_augmented", "analysis.observer_hamiltonian",
    "analysis.convergence_certificate", "core.ConservativeFlow.__init__",
    "cli.load_config", "kernels.rk4_steps",
)

PER_LAYER = (
    tuple((f"layer.{m}.self_ms", "ms") for m in LAYER_MODULES)
    + tuple(x for f in TRACED for x in ((f"{f}.self_ms", "ms"), (f"{f}.calls", "count")))
    + (
        ("setup.import_s", "s"), ("sim.samples_evaluated", "count"),
        ("sim.samples_used", "count"), ("sim.useful_sample_ratio", "ratio"),
        ("sim.csv_bytes", "B"), ("sim.z_p_drift_max", "abs"),
        ("sim.ref_gap_max", "abs"), ("sim.envelope_use_max", "ratio"),
        ("trace.overhead_s", "s"), ("trace.attributed_frac", "ratio"),
    )
)


def _median_q(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "commit": commit,
    }


class Runner:
    """Generates a workload, runs its passes in workers and checks them."""

    def __init__(self, workload: str, seed: int, workdir: str, t_start: float):
        import reference
        import workloads

        self.ref = reference
        self.workdir = workdir
        self.t_start = t_start
        self.jobs = workloads.make_jobs(workload, seed, workdir)
        self.raw = {j.id: reference.load(j.config) for j in self.jobs}
        self.sim_refs = {}
        for j in self.jobs:
            raw = self.raw[j.id]
            if j.command == "simulate":
                self.sim_refs[j.id] = reference.sim_reference(raw)
            elif j.command == "sweep":
                self.sim_refs[j.id] = [
                    reference.sim_reference(reference.swept_config(raw, v))
                    for v in j.sweep_values]
        self.jobs_path = os.path.join(workdir, "jobs.json")
        with open(self.jobs_path, "w") as f:
            json.dump([{"id": j.id, "argv": j.argv(), "repeat": j.repeat}
                       for j in workloads.schedule(workload, self.jobs)], f)
        self.csv_digest: dict[str, str] = {}
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE,
                        PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("QCHAIN_LOG", None)

    def _python(self, args):
        return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(5.0, self.left()))

    def left(self) -> float:
        """Seconds until the run must end."""
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def setup_probe(self) -> dict:
        proc = self._python(["setup", self.jobs[0].config])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, trace: bool) -> dict:
        """Run one pass in a fresh worker and check every job's output."""
        result_path = os.path.join(self.workdir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        args = ["pass", self.jobs_path, result_path] + (["--trace"] if trace else [])
        try:
            proc = self._python(args)
            err = "" if proc.returncode == 0 else proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            err = "worker timed out"
        if err:
            return {"traced": trace, "crashed": err, "failed": [j.id for j in self.jobs],
                    "problems": {"worker": [err]}}
        with open(result_path) as f:
            result = json.load(f)
        result["traced"] = trace
        self.check(result)
        return result

    def check(self, result: dict) -> None:
        """Count a job failed if any call exited wrongly or its output is wrong."""
        ref = self.ref
        exits: dict[str, list[int]] = {}
        for entry in result["jobs"]:
            exits.setdefault(entry["id"], []).extend(entry["exits"])
        problems: dict[str, list[str]] = {}
        fig = {"samples_used": 0, "csv_bytes": 0, "z_p_drift_max": 0.0,
               "ref_gap_max": 0.0, "envelope_use_max": 0.0}
        for job in self.jobs:
            raw = self.raw[job.id]
            p = []
            if any(rc != job.expect_exit for rc in exits[job.id]):
                p.append(f"exit codes {exits[job.id]}, expected {job.expect_exit}")
            try:
                if job.command == "build":
                    p += ref.check_build(ref.load(job.out), raw)
                elif job.command == "verify":
                    p += ref.check_verify(ref.load(job.out), raw, job.expect_failed_checks)
                elif job.command == "sweep":
                    with open(job.out) as f:
                        text = f.read()
                    p += ref.check_sweep(text, job.sweep_values, self.sim_refs[job.id])
                    fig["samples_used"] += len(job.sweep_values)
                else:
                    p += self._check_simulate(job, ref.load(job.out), fig)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                p.append(f"unreadable output: {exc!r}")
            if p:
                problems[job.id] = p
        result["problems"] = problems
        result["failed"] = sorted(problems)
        result["figures"] = fig

    def _check_simulate(self, job, report: dict, fig: dict) -> list[str]:
        ref = self.ref
        sref = self.sim_refs[job.id]
        p = ref.check_simulate(report, sref, rk4=job.kind == "rk4")
        pe = report["per_element_error"]
        fig["samples_used"] += len(report["horizons"])
        fig["z_p_drift_max"] = max(fig["z_p_drift_max"], report["z_p_drift"])
        fig["envelope_use_max"] = max(
            fig["envelope_use_max"],
            max(e / env for er, ev in zip(pe, report["trajectory_envelope"])
                for e, env in zip(er, ev)))
        if job.kind != "rk4":
            gap = min(max(abs(a - b) for ra, rb in zip(pe, t) for a, b in zip(ra, rb))
                      for t in sref.errors())
            fig["ref_gap_max"] = max(fig["ref_gap_max"], gap)
        if job.csv:
            cp, digest, rows, nbytes = ref.check_csv(job.csv, self.raw[job.id], sref)
            if digest != self.csv_digest.setdefault(job.id, digest):
                cp.append("csv bytes differ from the first pass of this run")
            fig["samples_used"] += rows
            fig["csv_bytes"] += nbytes
            os.remove(job.csv)
            p += cp
        return p


def end_to_end(jobs, plain: list[dict], setups: list[dict]) -> dict:
    """``name -> (value, q1, q3, n)`` for every end-to-end metric.

    A command-kind time is the sum over its jobs of each job's median over
    all its calls in the run (q1 and q3 likewise); ``n`` is the fewest calls
    of one job.  Wall time and RSS are over passes, set-up over probes.
    """
    calls: dict[str, list[float]] = {}
    for p in plain:
        for entry in p["jobs"]:
            calls.setdefault(entry["id"], []).extend(entry["times"])
    out = {"setup_s": _median_q([s["setup_s"] for s in setups]) + (len(setups),)}
    for name in ("wall_s", "peak_rss_mb"):
        out[name] = _median_q([p[name] for p in plain]) + (len(plain),)
    for kind in KINDS:
        stats = [_median_q(calls[j.id]) for j in jobs if j.kind == kind]
        out[f"{kind}_s"] = tuple(sum(col) for col in zip(*stats)) + (
            min(len(calls[j.id]) for j in jobs if j.kind == kind),)
    return out


def _layers(result: dict) -> dict:
    trace = result["trace"]
    stats = trace["stats"]
    out = {f"layer.{m}.self_ms": 0.0 for m in LAYER_MODULES}
    for name, (_calls, _total, self_s, _exc) in stats.items():
        out[f"layer.{name.split('.')[0]}.self_ms"] += 1e3 * self_s
    for f in TRACED:
        calls, _total, self_s, _exc = stats.get(f, (0, 0.0, 0.0, 0))
        out[f"{f}.self_ms"] = 1e3 * self_s
        out[f"{f}.calls"] = calls
    fig = result["figures"]
    evaluated = trace["samples_evaluated"]
    out.update({
        "sim.samples_evaluated": evaluated,
        "sim.samples_used": fig["samples_used"],
        "sim.useful_sample_ratio": fig["samples_used"] / max(evaluated, 1),
        "sim.csv_bytes": fig["csv_bytes"],
        "sim.z_p_drift_max": fig["z_p_drift_max"],
        "sim.ref_gap_max": fig["ref_gap_max"],
        "sim.envelope_use_max": fig["envelope_use_max"],
        "trace.attributed_frac": (
            sum(r["traced_self_s"] for r in result["jobs"])
            / sum(sum(r["times"]) for r in result["jobs"])),
    })
    return out


def per_layer(traced: list[dict], plain: list[dict], setups: list[dict]) -> dict:
    """``name -> (median, q1, q3, n)`` over traced passes for every per-layer metric."""
    rows = [_layers(p) for p in traced]
    out = {name: _median_q([r[name] for r in rows]) + (len(rows),) for name in rows[0]}
    out["setup.import_s"] = _median_q([s["import_s"] for s in setups]) + (len(setups),)
    overhead = (_median_q([p["wall_s"] for p in traced])[0]
                - _median_q([p["wall_s"] for p in plain])[0])
    out["trace.overhead_s"] = (overhead, overhead, overhead, 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "qchain", "cli.py")):
        print(f"qbench: no qchain sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"qbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str, t_start: float) -> int:
    env = environment(args.seed)
    runner = Runner(args.workload, args.seed, workdir, t_start)
    setups = [runner.setup_probe() for _ in range(SETUP_RUNS // 2)]

    # Untraced and traced passes alternate when tracing; a new pass starts
    # only if it should end within --seconds, but the first one (the first
    # two when tracing) always runs.
    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        p_start = time.perf_counter()
        passes.append(runner.run_pass(trace=bool(args.trace) and len(passes) % 2 == 1))
        longest = max(longest, time.perf_counter() - p_start)
        if "crashed" in passes[-1] or runner.left() < longest + 5.0:
            break
        if len(passes) >= 1 + args.trace and time.perf_counter() + longest > t0 + args.seconds:
            break

    setups += [runner.setup_probe() for _ in range(SETUP_RUNS - len(setups))]

    attempted = len(passes) * len(runner.jobs)
    failed = sum(len(p["failed"]) for p in passes)
    plain = [p for p in passes if not p["traced"] and "crashed" not in p]
    traced = [p for p in passes if p["traced"] and "crashed" not in p]
    summary = end_to_end(runner.jobs, plain, setups) if plain else {}
    if traced and plain:
        summary.update(per_layer(traced, plain, setups))
    absent = sorted({a for p in traced for a in p["trace"]["absent"]})
    problems = {f"pass{k}:{jid}": msgs for k, p in enumerate(passes)
                for jid, msgs in p.get("problems", {}).items()}
    _report(args, env, passes, summary, absent, problems, attempted, failed)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {n: {"value": summary[n][0], "unit": u} for n, u in units.items()
               if n in summary}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _report(args, env, passes, summary, absent, problems, attempted, failed) -> None:
    n_plain = sum(1 for p in passes if not p["traced"])
    print(f"qbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)} (untraced {n_plain})")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = dict(END_TO_END + PER_LAYER)
    for name, (value, q1, q3, n) in summary.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} n={n}")
    print(f"  failed {failed} of {attempted} jobs attempted "
          f"(failed_frac {failed / max(attempted, 1):.4g})")
    if absent:
        print("  absent: " + ", ".join(absent))
    for p in passes[:2]:
        if p["traced"] and "crashed" not in p:
            print("  largest self times per job (first call, traced pass):")
            seen = set()
            for entry in p["jobs"]:
                if entry["id"] in seen:
                    continue
                seen.add(entry["id"])
                total = sum(entry["times"])
                top = ", ".join(f"{name} {100 * t / total:.0f}%"
                                for name, t in entry["top_self_s"])
                print(f"    {entry['id']:14s} {total:8.3f} s  {top}")
    for key, msgs in list(problems.items())[:10]:
        print(f"  FAILED {key}: {'; '.join(msgs)}", file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_results",
                        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "metrics": {k: dict(zip(("value", "q1", "q3", "n"), v))
                          for k, v in summary.items()},
              "absent": absent, "problems": problems, "passes": passes}
    with open(path, "w") as f:
        json.dump(detail, f, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
