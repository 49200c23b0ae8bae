"""One benchmark pass, or one set-up probe, in a fresh interpreter.

    python3 qbench/worker.py pass JOBS.json RESULT.json [--trace]
    python3 qbench/worker.py setup CONFIG.json

``pass`` runs every job of ``JOBS.json`` through ``qchain.cli.main`` one at
a time and writes per-job exit codes and wall times, the pass wall time and
the process's peak RSS to ``RESULT.json``.  With ``--trace`` the tracer is
installed first and its per-function figures are written too.

``setup`` times what a user pays before the first command does any work:
``import qchain``, then ``cli.load_config``, ``cli.realize`` and
``observer.assemble_augmented`` on one config.  It prints one JSON line.

``run.py`` starts this script with ``PYTHONPATH`` pointing at ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _setup(config: str) -> None:
    t0 = time.perf_counter()
    import qchain  # noqa: F401
    from qchain import cli, observer

    t1 = time.perf_counter()
    cfg = cli.load_config(config)
    plant, realization = cli.realize(cfg)
    observer.assemble_augmented(realization, plant)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def _pass(jobs_path: str, result_path: str, trace: bool) -> None:
    with open(jobs_path) as f:
        jobs = json.load(f)
    t0 = time.perf_counter()
    from qchain import cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    out = []
    start = time.perf_counter()
    for job in jobs:
        times, exits, errors = [], [], []
        before = {k: v[2] for k, v in tracer.stats.items()} if tracer else {}
        for _ in range(job["repeat"]):
            err = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
            times.append(time.perf_counter() - t)
            exits.append(rc)
            if err.getvalue():
                errors.append(err.getvalue()[-500:])
        entry = {"id": job["id"], "times": times, "exits": exits, "stderr": errors}
        if tracer:
            delta = {k: v[2] - before[k] for k, v in tracer.stats.items()}
            entry["traced_self_s"] = sum(delta.values())
            entry["top_self_s"] = sorted(delta.items(), key=lambda kv: -kv[1])[:3]
        out.append(entry)
    wall_s = time.perf_counter() - start
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": out,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = {"stats": tracer.stats, "absent": tracer.absent,
                           "samples_evaluated": tracer.samples_evaluated}
    with open(result_path, "w") as f:
        json.dump(result, f)


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        _setup(argv[1])
        return 0
    if len(argv) >= 3 and argv[0] == "pass":
        _pass(argv[1], argv[2], trace="--trace" in argv[3:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
