"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
self-time arithmetic, failure counting, trace determinism, the
tracer's behaviour when a wrapped name disappears, and the host-speed
clock."""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracer as tracer_mod
from tracer import Tracer
from workloads import AnalyticRank, BoxFree, Cls, Isotropy

TINY = {
    "isotropy": Isotropy(
        classes=[Cls("alt", 2, 5, 3, 1), Cls("alt", 3, 4, 3, 2), Cls("min", 2, 4, 3, 1)],
        largest="alt:q2n5d3m1",
    ),
    "analytic-rank": AnalyticRank(
        classes=[Cls("hom", 2, 3, 3, 1), Cls("hom", 4, 2, 2, 1), Cls("hom", 3, 2, 3, 2)],
        largest="hom:q2n3d3m1",
    ),
    "boxfree": BoxFree(
        classes=[Cls("hom", 2, 4, 2, 1), Cls("plane", 3, 3, 2, 1)],
        largest="hom:q2n4d2m1",
    ),
}


def solved(name, traced=False):
    workload = TINY[name]
    ml, instances, _ = run.setup(workload, seed=7)
    p = run.run_pass(ml, workload, instances, traced)
    return ml, workload, instances, p


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_passes_the_gate(name):
    ml, workload, instances, p = solved(name, traced=True)
    failed, digests = run.gate(ml, workload, instances, [p], seed=7)
    assert failed == 0
    assert all(digests)
    assert any(p.tracer.layer_metrics().values())


def test_clock_samples_inside_the_block_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with hostspeed.Clock() as clock:
        while time.perf_counter() - t0 < 0.1:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4  # entry, exit and ticks every 10 ms
    assert 0 < clock.elapsed < wall  # the handler's time is taken out
    assert clock.scaled == clock.elapsed * clock.scale > 0


def test_uninstall_restores_every_binding():
    run.load_multilin()
    t = Tracer()
    t.install()
    undo = list(t._undo)
    try:
        assert undo
        assert all(getattr(owner, key) is not orig for owner, key, orig in undo)
    finally:
        t.uninstall()
    assert all(getattr(owner, key) is orig for owner, key, orig in undo)


def test_self_time_of_nested_spans():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    t = Tracer(clock=lambda: now[0])

    def rref():
        advance(5)

    def kernel_basis():
        advance(3)
        rref_w()
        advance(4)
        rref_w()

    def alpha_alt():
        advance(1)
        kernel_w()
        advance(2)

    rref_w = t.timed("grassmann.rref", rref)
    kernel_w = t.timed("grassmann.kernel", kernel_basis)
    alpha_w = t.timed("isotropy.alpha_alt", alpha_alt)
    with t.span("instance"):
        alpha_w()
        advance(10)
    assert t.calls == {"grassmann.rref": 2, "grassmann.kernel": 1,
                       "isotropy.alpha_alt": 1, "instance": 1}
    assert t.self_s == {"grassmann.rref": 10, "grassmann.kernel": 7,
                        "isotropy.alpha_alt": 3, "instance": 10}
    (span,) = t.spans
    assert span[2:5] == ("instance", 0.0, 30.0)


def test_span_nested_in_the_same_layer_adds_no_call():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def first():
        now[0] += 2

    def slot():
        now[0] += 1
        first_w()

    first_w = t.timed("tensor.contract", first)
    slot_w = t.timed("tensor.contract", slot)
    slot_w()
    first_w()
    assert t.calls == {"tensor.contract": 2}
    assert t.self_s == {"tensor.contract": 5}


def test_delegating_field_op_counts_once():
    ml = run.load_multilin()
    F = ml.field_of_order(4)
    t = Tracer()
    t.install()
    try:
        F.sub(F.one, F.one)  # Field.sub delegates to add and neg
        F.add_func()(F.one, F.one)
        F.mul(F.one, F.one)
    finally:
        t.uninstall()
    assert t.counts["field.ops"] == 3


def test_planted_wrong_result_counts_as_failure():
    ml, workload, instances, p = solved("isotropy")
    planted = run.Pass(False)
    planted.outs = list(p.outs)
    planted.outs[0] = dataclasses.replace(p.outs[0], index=p.outs[0].index + 1)
    planted.times = p.times
    failed, _ = run.gate(ml, workload, instances, [planted, p], seed=7)
    assert failed == 2  # the wrong instance, in both passes
    p.outs[1] = RuntimeError("planted")
    failed, _ = run.gate(ml, workload, instances, [p], seed=7)
    assert failed == 1


def test_second_traced_run_gives_identical_counts():
    ml, workload, instances, a = solved("boxfree", traced=True)
    b = run.run_pass(ml, workload, instances, traced=True)
    ma, mb = a.tracer.layer_metrics(), b.tracer.layer_metrics()
    counts = [k for k in ma if not k.endswith("_s")]
    assert {k: ma[k] for k in counts} == {k: mb[k] for k in counts}


def test_vanished_name_reports_null(monkeypatch):
    monkeypatch.setitem(
        tracer_mod.LAYERS, "boxfree.freeness", [("multilin.boxfree", "no_such_scan")]
    )
    ml, workload, instances, p = solved("boxfree", traced=True)
    metrics = p.tracer.layer_metrics()
    assert metrics["boxfree.freeness.self_s"] is None
    assert metrics["boxfree.freeness.pairs_computed"] is None


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boxfree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ml, workload, instances, traced = solved("analytic-rank", traced=True)
    plain = run.run_pass(ml, workload, instances, traced=False)
    setups = [{"setup_s": 0.1, "raw_setup_s": 0.1, "field_s": 0.01}]
    e2e, _, _ = run.end_to_end(workload, instances, [plain], setups, 0, 3)
    layers = run.per_layer([plain, traced], setups)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_recorded_digests_apply_only_to_the_default_batch():
    for workload in run.WORKLOADS.values():
        recorded = run.recorded_digests(workload, run.DEFAULT_SEED)
        assert len(recorded) == sum(c.count for c in workload.classes)
        assert run.recorded_digests(workload, run.DEFAULT_SEED + 1) is None
    assert run.recorded_digests(TINY["boxfree"], run.DEFAULT_SEED) is None


def test_digest_mismatch_at_default_seed_counts_as_failure(monkeypatch):
    ml, workload, instances, p = solved("analytic-rank")
    _, digests = run.gate(ml, workload, instances, [p], seed=7)
    planted = ["0" * 16] + digests[1:]
    monkeypatch.setattr(run, "recorded_digests", lambda w, seed: planted)
    failed, _ = run.gate(ml, workload, instances, [p, p], seed=run.DEFAULT_SEED)
    assert failed == 2  # the first instance, in both passes
