"""The benchmark under `perfbench/` still runs against this library.

The benchmark reads about thirty library names (local queries, runners,
`from_spec`, `SchedulingInstance.oracle`, `MemoView` internals,
`harness.bench_family`, `harness.canonical_family`...), so a change that
drops one breaks every benchmark run while the other tests pass.  This runs
three cheap workloads with the tracer installed, and a small grid of every
lcmd-bench row, checked record by record against the global runners that
workload checks it with.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from localmech.instances import InstanceSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone after the test
    try:
        yield importlib.import_module("workloads")
    finally:
        # the benchmark's modules are not the library's: forget them
        for name in set(sys.modules) - before:
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]


def test_benchmark_workloads_run_correctly_under_the_tracer(workloads):
    tracer = importlib.import_module("tracer").Tracer()
    original = workloads.scheduling.slms_online
    tracer.install()
    try:
        ball = workloads.matching_ball(1, 1)
        cold = workloads.cold_build(1, 1)
        pay = workloads.auction_payments(1, 1)
    finally:
        tracer.uninstall()
    assert workloads.scheduling.slms_online is original
    assert (ball.attempted, ball.failed, ball.problems) == (100, 0, [])
    assert (cold.attempted, cold.failed, cold.problems) == (5000, 0, [])
    assert (pay.attempted, pay.failed, pay.problems) == (1380, 0, [])
    layers = tracer.layer_metrics()
    assert layers["scheduling.local_calls"] > 0
    assert layers["auctions.local_calls"] > 0


def test_lcmd_bench_rows_match_the_global_runners(workloads):
    harness = workloads.harness
    for slug, family, k, d in workloads.LCMD_ROWS:
        argv = ["bench", family, "--n", "64", "--seeds", "2", "--queries", "5"]
        _, records = workloads._run_lcmd([*argv, "--k", str(k), "--d", str(d)])
        assert len(records) == 10, slug
        canonical = harness.canonical_family(family)
        size = workloads._lcmd_size(family, k, d)
        for seed in {rec.seed for rec in records}:
            spec = InstanceSpec(seed=seed, family=canonical, n=64, m=64, k=size)
            answer = workloads._lcmd_global(canonical, workloads._build_forced(spec), k)
            for rec in records:
                if rec.seed == seed:
                    want = workloads._bench_digest(answer(rec.query))
                    assert (rec.family, rec.n, rec.digest) == (canonical, 64, want), (slug, rec)
