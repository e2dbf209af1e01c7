#!/usr/bin/env python3
"""Benchmark of the multilin library, one workload per run.

    python3 perfbench/run.py --workload isotropy --seed 0 --seconds 30 --trace 0

Single process, single thread, closed loop with one client: the batch of
seeded instances is solved one after another, pass after pass, until the
passes have taken about ``--seconds``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass (alternated with untraced passes) with ``--trace 1``.  Times
are scaled to a reference host speed (see hostspeed.py).  A
human-readable summary goes to stderr, and the traced run writes its
instance and stage spans to ``.bench_out/`` in the checkout.

The library is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)

from hostspeed import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Canonical outputs at this seed are compared against digests.json.
DEFAULT_SEED = 0
# Set-up is timed in fresh processes: one before the first pass and then
# one after the first solve that ends at least 1/SETUP_PROBES of --seconds
# after the previous probe, outside the measured time, so that the probes
# sample the whole run rather than a few seconds of it; setup_s is their
# median.
SETUP_PROBES = 20


class SetupError(Exception):
    pass


def load_multilin():
    if not os.path.isfile(os.path.join(SRC, "multilin", "__init__.py")):
        raise SetupError(f"no multilin package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import multilin

    return multilin


def setup(workload, seed):
    """Import the library, build and warm the fields, draw the instances.
    Returns (module, instances, timings); ``setup_s`` and ``field_s`` are
    host-speed scaled (see hostspeed), ``raw_setup_s`` is not."""
    with Clock() as clock:
        ml = load_multilin()
        t1 = time.perf_counter()
        fields = workload.fields(ml)
        t2 = time.perf_counter()
        from multilin.prng import SplitMix64

        instances = workload.instances(ml, fields, SplitMix64(seed))
    timing = {
        "setup_s": clock.scaled,
        "raw_setup_s": clock.elapsed,
        "field_s": (t2 - t1) * clock.scale,
    }
    return ml, instances, timing


def probe_setup(name, seed):
    """Set-up timings from a fresh interpreter process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Pass:
    """One solve of the whole batch."""

    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0  # sum of the raw solve times
        self.times = []  # per-instance solve seconds
        self.scales = []  # per-instance host-speed scale, see hostspeed
        self.outs = []  # output, or the exception the solve raised
        self.tracer = None
        self.peak_rss_mb = 0.0


def run_pass(ml, workload, instances, traced, between=None):
    """Solve the batch once, each solve under a host-speed ``Clock``.
    ``between()`` runs after every solve, outside the measured time."""
    p = Pass(traced)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        for i, inst in enumerate(instances):
            clock = Clock()
            try:
                with clock:
                    if tracer:
                        with tracer.span("instance", index=i, cls=inst.cls.label):
                            out = workload.solve(ml, inst, tracer.span)
                    else:
                        out = workload.solve(ml, inst)
            except Exception as exc:  # a failed solve is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = exc
            p.times.append(clock.elapsed)
            p.scales.append(clock.scale)
            p.outs.append(out)
            if between is not None:
                between()
    finally:
        if tracer:
            tracer.uninstall()
    p.wall = sum(p.times)
    p.tracer = tracer
    # Peak so far; read after the first pass, where later passes would
    # only add allocator fragmentation that depends on the pass count.
    p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return p


def scaled_times(p):
    """The pass's solve times at the reference host speed."""
    return [t * k for t, k in zip(p.times, p.scales)]


def run_passes(ml, workload, instances, seconds, trace, between=None):
    """Passes while the next one would end less than half a pass after
    ``seconds`` (so the passes' total time is ``seconds`` give or take half
    a pass); with tracing, untraced and traced passes alternate (at least
    one of each).  ``between`` goes to every pass."""
    kinds = (False, True) if trace else (False,)
    passes = []
    while True:
        for traced in kinds:
            passes.append(run_pass(ml, workload, instances, traced, between))
        elapsed = sum(p.wall for p in passes)
        cycle = elapsed / (len(passes) / len(kinds))
        if elapsed + cycle / 2 > seconds:
            return passes


def recorded_digests(workload, seed):
    if seed != DEFAULT_SEED or not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        entry = json.load(fh).get(workload.name)
    labels = [c.label + f"x{c.count}" for c in workload.classes]
    if not entry or entry["classes"] != labels:
        return None  # recorded for another batch (tests run tiny classes)
    return entry["digests"]


def gate(ml, workload, instances, passes, seed):
    """Count failed solves.  An instance fails when a solve raised, the
    independent check rejects the first pass's output, any later pass
    disagrees with the first, or at the default seed its digest differs
    from the recorded one."""
    first = passes[0].outs
    bad = set()
    digests = []
    for i, (inst, out) in enumerate(zip(instances, first)):
        if isinstance(out, Exception):
            bad.add(i)
            digests.append(None)
            continue
        try:
            errors = workload.check(ml, inst, out)
        except Exception as exc:  # the oracle itself failed
            errors = [f"check raised {exc!r}"]
        for err in errors:
            print(f"FAIL {inst.cls.label} #{i}: {err}", file=sys.stderr)
        if errors:
            bad.add(i)
        digests.append(workload.digest(inst, out))
    want = recorded_digests(workload, seed)
    if want is not None:
        for i, (got, exp) in enumerate(zip(digests, want)):
            if got != exp:
                print(f"FAIL #{i}: digest {got} != recorded {exp}", file=sys.stderr)
                bad.add(i)
    failed = 0
    for p in passes:
        for i, (inst, out) in enumerate(zip(instances, p.outs)):
            if i in bad or isinstance(out, Exception):
                failed += 1
            elif p is not passes[0] and workload.digest(inst, out) != digests[i]:
                print(f"FAIL #{i}: output changed between passes", file=sys.stderr)
                failed += 1
    return failed, digests


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (one value: itself)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload, instances, passes, setups, failed, attempted):
    """The end-to-end metrics, every time scaled to the reference host
    speed (see hostspeed), the samples they come from, and raw times."""
    # An instance's solve time is its mean over the run's passes.
    n = len(instances)
    scaled = [scaled_times(p) for p in passes]
    times = [statistics.fmean(s[i] for s in scaled) for i in range(n)]
    largest = [
        t for t, inst in zip(times, instances) if inst.cls.label == workload.largest
    ]
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "batch_s": [sum(s) for s in scaled],
        "solve_p50_s": times,
        "largest_s": largest,
    }
    metrics = {k: (statistics.median(v), "s") for k, v in samples.items()}
    metrics["peak_rss_mb"] = (passes[0].peak_rss_mb, "MB")
    metrics["ok_frac"] = (1 - failed / attempted, "ratio")
    raw = {
        "setup_s": [s["raw_setup_s"] for s in setups],
        "batch_s": [p.wall for p in passes],
        "host_scale": [k for p in passes for k in p.scales],
    }
    return metrics, samples, raw


def per_layer(passes, setups):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    layers = [p.tracer.layer_metrics() for p in traced]
    # A traced pass's self times take its time-weighted host-speed scale.
    scales = [sum(scaled_times(p)) / p.wall for p in traced]
    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            if value is not None:
                value = statistics.median(l[name] * k for l, k in zip(layers, scales))
            metrics[name] = (value, "s")
            continue
        if any(l[name] != value for l in layers):
            print(f"note: {name} differs between traced passes", file=sys.stderr)
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["field.setup_s"] = (statistics.median(s["field_s"] for s in setups), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(scaled_times(p)) for p in traced)
        / statistics.median(sum(scaled_times(p)) for p in untraced) - 1,
        "ratio",
    )
    return metrics


def write_spans(workload, seed, passes):
    traced = next(p for p in passes if p.traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    doc = {
        "columns": ["span_id", "parent_id", "name", "start_s", "end_s", "attrs"],
        "spans": traced.tracer.spans,
        "layers": {
            name: {"calls": traced.tracer.calls[name], "self_s": traced.tracer.self_s[name]}
            for name in sorted(traced.tracer.calls)
        },
        "counts": traced.tracer.counts,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    try:
        if args.setup_only:
            _, _, timing = setup(workload, args.seed)
            print(json.dumps(timing))
            return 0
        ml, instances, _ = setup(workload, args.seed)
        setups = [probe_setup(workload.name, args.seed)]
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    gap = args.seconds / SETUP_PROBES
    last = [time.perf_counter()]

    def between():
        if time.perf_counter() - last[0] >= gap:
            setups.append(probe_setup(workload.name, args.seed))
            last[0] = time.perf_counter()

    passes = run_passes(ml, workload, instances, args.seconds, args.trace, between)
    failed, digests = gate(ml, workload, instances, passes, args.seed)
    attempted = len(passes) * len(instances)

    print(f"{workload.name} seed={args.seed}: {len(instances)} instances, "
          f"{len(passes)} passes, digests {digests}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes, setups)
        print(f"spans: {write_spans(workload, args.seed, passes)}", file=sys.stderr)
    else:
        metrics, samples, raw = end_to_end(
            workload, instances, passes, setups, failed, attempted
        )
        for label, group in (("scaled", samples), ("raw", raw)):
            for name, values in group.items():
                q1, med, q3 = quartiles(values)
                print(f"  {label} {name}: median {med:.4f}, "
                      f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
