#!/usr/bin/env python3
"""The benchmark's one command.

The driver's form — one workload per process — ::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit and ends with the one-line JSON
result the contract in ``BENCHMARK.json`` prescribes: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all four workloads, each in a child process of
its own, first untraced and then traced, prints one table and writes
``perfbench/out/result.json``.

``--seconds`` sizes the run: every workload executes a fixed number of
operations (``perfbench/gen.py``, ``OPS_PER_SECOND``) chosen to take about
that long on the 2-core reference box, so that counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run as a script, Python puts this directory first on the path, where
# ``trace.py`` and ``stats.py`` would shadow standard-library modules.
sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
    entry for entry in sys.path if os.path.abspath(entry or os.curdir) != HERE]

from perfbench import yardstick  # noqa: E402
from perfbench.gen import WORKLOADS  # noqa: E402
from perfbench.stats import attach_units, contract  # noqa: E402

IMPORT_REPEATS = 3
_TIMED_IMPORT = ("import time; began = time.perf_counter(); import perfbench.harness; "
                 "print(time.perf_counter() - began)")


def import_seconds() -> float:
    """What importing the harness, and the engine with it, costs: the scaled
    median of this process's own import and of ``IMPORT_REPEATS - 1`` fresh
    interpreters'.  (Once is not enough: a 150 ms interval, half of it spent in
    the file system, repeats within +-30 % on the reference box.)"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path[:2])}
    samples = []
    for fresh in range(IMPORT_REPEATS):
        before = yardstick.spin(3)
        if fresh:
            taken = float(subprocess.run([sys.executable, "-c", _TIMED_IMPORT], env=env,
                                         stdout=subprocess.PIPE, text=True, check=True).stdout)
        else:
            began = time.perf_counter()
            import perfbench.harness  # noqa: F401
            taken = time.perf_counter() - began
        samples.append(taken * yardstick.factor(before, yardstick.spin(3)))
    return statistics.median(samples)


def run_one(args: argparse.Namespace) -> int:
    if args.trace:
        from perfbench import harness
        result = harness.run_traced(args.workload, args.seed, args.seconds)
        specs = contract()["per_layer"]
    else:
        import_s = import_seconds()  # the engine's import time is set-up time
        from perfbench import harness
        result = harness.run_untraced(args.workload, args.seed, args.seconds, import_s)
        specs = contract()["end_to_end"]
    metrics = attach_units(result.pop("values"), specs)
    for name, metric in metrics.items():
        print(f"{args.workload:13} {name:42} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for trace in (0,) if args.no_trace else (0, 1):
        for workload in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            entry = results.setdefault(workload, {"correct": True, "attempted": 0,
                                                  "failed": 0, "metrics": {}})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':42} {'unit':7}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name in names:
        cells = [results[w]["metrics"][name] for w in WORKLOADS]
        print(f"{name:42} {cells[0]['unit']:7}"
              + "".join(f"{cell['value']:15.4f}" for cell in cells))
    for label in ("attempted", "failed"):
        print(f"{label:50}" + "".join(f"{results[w][label]:15d}" for w in WORKLOADS))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "result.json"), "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": results},
                  handle, indent=1)
    return 0 if all(entry["correct"] for entry in results.values()) else 1


def pin_hash_seed() -> None:
    """Start over with ``PYTHONHASHSEED=0``.  The buffer pool picks a page's
    lock stripe by ``hash()`` of a key that holds a string, so under Python's
    per-process hash randomisation which pages share an LRU list — and with
    it every pool, device and checksum counter — differs from process to
    process (README, "known engine issues")."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in this process (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"],
                        help="how long a measured phase should last; sizes the op lists")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics (an untraced pass plus a traced one)")
    parser.add_argument("--no-trace", action="store_true",
                        help="with all workloads: skip the traced runs")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # perfbench/out is addressed relative to the checkout
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
