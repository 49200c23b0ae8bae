"""Seeded job lists for the three benchmark workloads.

A job is one ``qchain`` command line plus what the checker needs to know
about it.  Every config the program reads is either generated here from the
workload seed and written as JSON, or one of the shipped ``configs/*.json``;
the program never sees the seed itself.

Each workload is its focus jobs plus the same small probe list (one job per
command kind on a short N = 3 chain), so that every end-to-end metric is
measured on every workload and the "predicted flat" claims of the benchmark
doc can be checked.  Probe jobs take milliseconds and their times scatter by
+-20 % from one call to the next on a shared machine, so :func:`schedule`
spreads rounds of them evenly between the focus jobs and the benchmark
reports the median over every call.  A ``series_long`` pass takes ~20 s, so
one fits in a run; it gets three times the rounds of the other workloads,
which fit two to four passes, so every workload collects 16 to 32 calls of
each probe per run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("series_long", "csv_export", "certify")

SHIPPED = ("configs/canonical_n3.json", "configs/mirror_kappas.json",
           "configs/single_element.json")

#: Back-to-back calls of one job; its time is the median over all calls.
BUILD_REPEATS = 10
RK4_REPEATS = 5

#: Verify checks a detuned chain must fail, and only those.
DETUNED_FAILS = ("hermitian_split", "steady_configuration")



@dataclass
class Job:
    """One command line and the facts the output check relies on."""

    id: str
    command: str            # build | verify | simulate | sweep
    config: str             # path of the config JSON
    kind: str               # metric bucket: simulate | csv | sweep | verify | build | rk4
    repeat: int = 1
    probe: bool = False
    csv: str | None = None
    sweep_values: tuple[float, ...] = ()
    expect_exit: int = 0
    expect_failed_checks: tuple[str, ...] = ()
    out: str = ""

    def argv(self) -> list[str]:
        args = [self.command, self.config, "--out", self.out]
        if self.csv:
            args += ["--csv", self.csv]
        if self.command == "sweep":
            args += ["--param", "mu_1", "--values"]
            args += [repr(v) for v in self.sweep_values]
        return args


def _design_chain(rng, n: int, form: str) -> dict:
    """A chain following the design rule, as the ``mu`` or ``mu_1``+``kappas`` form."""
    if form == "mu":
        return {"mu": [float(v) for v in rng.uniform(0.5, 1.5, n)]}
    return {
        "mu_1": float(rng.uniform(0.5, 1.5)),
        "kappas": [float(v) for v in rng.uniform(2.0, 6.0, 2 * n - 2)],
    }


def _config(rng, name: str, n: int, horizons, form: str = "mu",
            observer: str = "zero", **extra) -> dict:
    theta = rng.uniform(0.0, 2.0 * np.pi)
    plant = rng.normal(0.0, 1.0, 2)
    if observer == "random":
        obs = [float(v) for v in rng.normal(0.0, 0.5, 2 * n)]
    else:
        obs = observer
    cfg = {
        "name": name,
        "plant": {"alpha": [float(np.cos(theta)), float(np.sin(theta))]},
        "chain": _design_chain(rng, n, form),
        "initial": {"plant": [float(v) for v in plant], "observer": obs},
        "horizons": [float(h) for h in horizons],
        "sample_dt": 0.01,
        "seed": int(rng.integers(0, 2**31)),
    }
    cfg.update(extra)
    return cfg


def _detuned(cfg: dict, factor: float = 1.1) -> dict:
    mu = cfg["chain"]["mu"]
    design = [m + (mu[i + 1] if i + 1 < len(mu) else 0.0) for i, m in enumerate(mu)]
    out = json.loads(json.dumps(cfg))
    out["name"] = cfg["name"] + "_detuned"
    out["chain"]["omega_override"] = [factor * w for w in design]
    return out


class _Builder:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[Job] = []

    def write(self, cfg: dict) -> str:
        path = os.path.join(self.workdir, cfg["name"] + ".json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1)
        return path

    def add(self, command: str, config: str, kind: str, **kw) -> Job:
        job = Job(id=f"j{len(self.jobs):02d}_{kind}", command=command,
                  config=config, kind=kind, **kw)
        job.out = os.path.join(self.workdir, job.id + ".out")
        if kind == "csv":
            job.csv = os.path.join(self.workdir, job.id + ".csv")
        self.jobs.append(job)
        return job


def _probes(b: _Builder, rng) -> None:
    cfg = b.write(_config(rng, "probe_n3", 3, [10.0, 100.0], csv_stride=5))
    rk4 = b.write(_config(rng, "probe_n3_rk4", 3, [2.0, 20.0], method="rk4"))
    values = tuple(float(v) for v in np.round(rng.uniform(0.5, 1.5, 3), 6))
    b.add("build", cfg, "build", repeat=BUILD_REPEATS // 2, probe=True)
    b.add("verify", cfg, "verify", probe=True)
    b.add("simulate", cfg, "simulate", probe=True)
    b.add("simulate", cfg, "csv", probe=True)
    b.add("sweep", cfg, "sweep", sweep_values=values, probe=True)
    b.add("simulate", rk4, "rk4", probe=True)


def _series_long(b: _Builder, rng) -> None:
    # Sampled series evaluation dominates; N sets the cost per sample.
    for n, T, form, obs in ((3, 1e4, "mu", "zero"), (10, 1e4, "kappas", "random"),
                            (30, 3e3, "mu", "random"), (100, 1e3, "kappas", "zero")):
        hz = [T / 100, T / 10, T]
        b.add("simulate", b.write(_config(rng, f"series_n{n}", n, hz, form, obs)),
              "simulate")
    for path in SHIPPED:
        b.add("simulate", path, "simulate")
    b.add("sweep", SHIPPED[0], "sweep", sweep_values=(0.25, 1.0, 2.0))


def _csv_export(b: _Builder, rng) -> None:
    # Two stride-1 jobs where the writer dominates, one stride-100 job where
    # evaluation does.
    b.add("simulate", b.write(_config(rng, "csv_n10", 10, [10.0, 100.0, 1000.0],
                                      csv_stride=1)), "csv")
    b.add("simulate", b.write(_config(rng, "csv_n30", 30, [3.0, 30.0, 300.0],
                                      "kappas", "random", csv_stride=1)), "csv")
    b.add("simulate", SHIPPED[0], "csv")


def _certify(b: _Builder, rng) -> None:
    hz = [10.0, 100.0, 1000.0]
    for n in (1, 2, 5, 10, 30, 100):
        for form in ("mu", "kappas"):
            path = b.write(_config(rng, f"cert_n{n}_{form}", n, hz, form))
            b.add("build", path, "build", repeat=BUILD_REPEATS)
            b.add("verify", path, "verify")
    for path in SHIPPED:
        b.add("build", path, "build", repeat=BUILD_REPEATS)
        b.add("verify", path, "verify")
    for n in (3, 10, 30):
        path = b.write(_detuned(_config(rng, f"cert_n{n}", n, hz)))
        b.add("build", path, "build", repeat=BUILD_REPEATS)
        b.add("verify", path, "verify", expect_exit=1,
              expect_failed_checks=DETUNED_FAILS)
    for n in (3, 10):
        path = b.write(_config(rng, f"rk4_n{n}", n, [10.0, 100.0], method="rk4"))
        b.add("simulate", path, "rk4", repeat=RK4_REPEATS)


#: Focus jobs and probe rounds per pass of each workload.
_FOCUS = {"series_long": (_series_long, 24), "csv_export": (_csv_export, 8),
          "certify": (_certify, 8)}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's configs under ``workdir`` and return its jobs."""
    if workload not in _FOCUS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = _Builder(workdir)
    _FOCUS[workload][0](b, rng)
    _probes(b, rng)
    return b.jobs


def schedule(workload: str, jobs: list[Job]) -> list[Job]:
    """Run order of one pass: the focus jobs with probe rounds spread between."""
    rounds = _FOCUS[workload][1]
    focus = [j for j in jobs if not j.probe]
    probes = [j for j in jobs if j.probe]
    after = [max(1, round((k + 1) * len(focus) / rounds)) for k in range(rounds)]
    order = []
    for i, job in enumerate(focus, start=1):
        order.append(job)
        order += probes * after.count(i)
    return order
