"""Does the benchmark agree with itself?  ``python -m perfbench.repeat``

Runs the contract's command ``--runs`` times per workload in each of
``--sets`` sets of the *same* code, alternating which set goes first, run
``r`` of every set with seed ``first_seed + r``.  For every end-to-end metric
of every workload it prints each set's median and quartiles, the spread
(quartile distance over median — what the driver holds within the metric's
bound, ``setup_s`` excepted) and the gap between set medians in the worse
direction (which the driver holds within the bound for every metric).

Writes ``perfbench/out/repeat.json``; exits non-zero if any spread or gap is
beyond its bound, or any run reported a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import List

from perfbench.stats import ROOT, contract, quartiles, spread, worse_by


def collect(sets: int, runs: int, seconds: float, first_seed: int,
            workloads: List[str]):
    """``values[workload][metric][set]`` = one value per run, and one line
    per run that reported failed operations."""
    spec = contract()
    values = {w: {m["name"]: [[] for _ in range(sets)] for m in spec["end_to_end"]}
              for w in workloads}
    failures: List[str] = []
    for run in range(runs):
        order = list(range(sets))
        if run % 2:
            order.reverse()
        for which in order:
            for workload in workloads:
                command = spec["command"] + [
                    "--workload", workload, "--seed", str(first_seed + run),
                    "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, check=True)
                result = json.loads(done.stdout.splitlines()[-1])
                if not result["correct"]:
                    failures.append(f"{workload} seed {first_seed + run} set {which + 1}: "
                                    f"{result['failed']} failed operations")
                for name, metric in result["metrics"].items():
                    values[workload][name][which].append(metric["value"])
                print(f"run {run + 1}/{runs} set {which + 1} {workload} done",
                      file=sys.stderr)
    return values, failures


def report(values, failures: List[str], runs: int) -> dict:
    spec = contract()
    rows, worst = [], 0.0
    print(f"{'workload':13} {'metric':30} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'gap':>7} {'bound':>6}")
    for workload, metrics in values.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = metrics[name]
            first = statistics.median(per_set[0])
            for which, samples in enumerate(per_set):
                q1, median, q3 = quartiles(samples)
                wide = spread(samples)
                gap = worse_by(first, statistics.median(samples), metric["better"])
                beyond = (wide > bound and name != "setup_s") or gap > bound
                worst = max(worst, gap / bound,
                            0.0 if name == "setup_s" else wide / bound)
                rows.append({"workload": workload, "metric": name, "set": which + 1,
                             "median": median, "q1": q1, "q3": q3, "spread": wide,
                             "gap": gap, "bound": bound, "beyond": beyond})
                print(f"{workload:13} {name:30} {which + 1:3d} {median:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {wide:7.3f} {gap:+7.3f} {bound:6.2f}"
                      + ("  BEYOND" if beyond else ""))
    print(f"worst spread or gap: {worst:.2f} of its bound")
    for line in failures:
        print(f"FAILED {line}")
    return {"runs_per_set": runs, "rows": rows, "values": values, "failures": failures,
            "ok": not failures and not any(row["beyond"] for row in rows)}


def main(argv=None) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3, help="runs per set (at least 2)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="only this workload (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs per set")
    values, failures = collect(args.sets, args.runs, args.seconds, args.first_seed,
                               args.workload or names)
    summary = report(values, failures, args.runs)
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "repeat.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
