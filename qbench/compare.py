"""Compare two checkouts (parent and change) on one workload.

    python3 qbench/compare.py --base ../parent --change . --workload series_long \\
        --pairs 10 --seed 1000

Each pair runs ``qbench/run.py`` once in each checkout on the same seed,
alternating which side goes first, with ``--seconds`` from BENCHMARK.json.
Both checkouts must hold the same ``qbench/`` files, so that both sides are
measured by identical benchmark code.  For every end-to-end metric it prints
each side's median and quartiles, how many pairs the change won, and a
verdict:

* ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the distance between the parent's quartiles;
* ``regression``: the change's median is worse by more than the metric's
  bound;
* ``unresolved``: the parent's own quartile spread is wider than the bound,
  and the change did not win or lose every pair;
* ``unchanged`` otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _same_benchmark(a: str, b: str) -> bool:
    da, db = os.path.join(a, "qbench"), os.path.join(b, "qbench")
    names = sorted(n for n in os.listdir(da) if not n.startswith(("__", ".")))
    match, mismatch, errors = filecmp.cmpfiles(da, db, names, shallow=False)
    return not mismatch and not errors


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: benchmark failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args(argv)
    base, change = os.path.abspath(args.base), os.path.abspath(args.change)
    if not _same_benchmark(base, change):
        print("compare: the two checkouts hold different qbench/ files", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)

    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            root = base if side == "base" else change
            result = _run(root, args.workload, args.seed + k, bench["run_seconds"])
            if not result["correct"]:
                print(f"compare: {side} pair {k} reported incorrect output", file=sys.stderr)
            runs[side].append(result)
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        bm, bq1, bq3 = _quartiles(b)
        cm, cq1, cq3 = _quartiles(c)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        losses = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        worse = sign * (cm - bm) / bm
        if wins >= 0.9 * len(b) and abs(cm - bm) > bq3 - bq1:
            verdict = "gain"
        elif worse > bound:
            verdict = "regression"
        elif (bq3 - bq1) / bm > bound and wins != len(b) and losses != len(b):
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print(f"  {name:12s} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
              f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {metric['unit']}  "
              f"change won {wins}/{len(b)}  {worse:+.1%} worse  {verdict}")
    print(f"  failed jobs: base {sum(r['failed'] for r in runs['base'])}, "
          f"change {sum(r['failed'] for r in runs['change'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
