#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --workload isotropy --seeds 0-9 --seconds 30
    python3 perfbench/spread.py --workload isotropy --seeds 0-9 --fixed 5 \\
        --seconds 30 --baseline perfbench/baseline.json

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the median of its values and the distance between their first and
third quartiles as a share of that median, the figure the bounds in
BENCHMARK.json are checked against.  Each seed draws other instances, so
this spread mixes the machine's noise with the instances' difficulty.
``--fixed N`` adds a second set of N runs that all use the default seed,
so that the instances are the same in every run and only the machine
varies.  ``--baseline FILE`` also makes one traced run at the default
seed and writes the workload's entry of FILE (other workloads' entries
are kept): both sets with their runs and summaries, and the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)

from run import DEFAULT_SEED, quartiles  # noqa: E402

WHAT = (
    "Baseline of the benchmark, written by perfbench/spread.py --baseline. "
    "Per workload: 'seeds' is one untraced run per seed; 'fixed_seed' is "
    "repeated untraced runs at the default seed; each summary gives the "
    "median, the quartiles (statistics.quantiles, n=4), min, max and "
    "iqr_share = (q3 - q1) / median of the per-run values. 'per_layer' is "
    "one traced run at the default seed."
)


def seed_list(text):
    """``0-9`` or ``0,3,5-7``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace=0):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": time.perf_counter() - start,  # the whole run, set-up and gate too
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarise(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        if any(v is None for v in vals):
            summary[name] = None
            continue
        med = statistics.median(vals)
        q1, _, q3 = quartiles(vals)
        summary[name] = {
            "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "min": min(vals), "max": max(vals), "n": len(vals),
        }
    return summary


def run_set(title, workload, seeds, seconds):
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds))
        print(json.dumps(runs[-1]), flush=True)
    summary = summarise(runs)
    print(f"-- {workload}, {title}:")
    for name, s in summary.items():
        if s is None:
            print(f"{name}: null in some runs")
            continue
        print(f"{name}: median {s['median']:.6g}, IQR/median {s['iqr_share']}, "
              f"min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}", flush=True)
    return {"seeds": seeds, "summary": summary, "runs": runs}


def write_baseline(path, workload, entry):
    doc = {}
    if os.path.isfile(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["what"] = WHAT
    doc.setdefault("hardware", {})[workload] = (
        f"{os.cpu_count()} CPUs, {platform.machine()}, "
        f"{platform.python_implementation()} {platform.python_version()}, "
        f"{platform.system()} {platform.release()}"
    )
    doc.setdefault("workloads", {})[workload] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--fixed", type=int, default=0,
                    help="also this many runs at the default seed")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--baseline", metavar="FILE",
                    help="write the workload's baseline entry to FILE")
    args = ap.parse_args(argv)
    entry = {"seconds": args.seconds,
             "seeds": run_set("one run per seed", args.workload, args.seeds, args.seconds)}
    if args.fixed:
        entry["fixed_seed"] = run_set(
            f"{args.fixed} runs at seed {DEFAULT_SEED}", args.workload,
            [DEFAULT_SEED] * args.fixed, args.seconds,
        )
    if args.baseline:
        traced = run_once(args.workload, DEFAULT_SEED, args.seconds, trace=1)
        entry["per_layer"] = traced
        write_baseline(args.baseline, args.workload, entry)


if __name__ == "__main__":
    main()
