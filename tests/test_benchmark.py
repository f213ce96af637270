"""The benchmark under `perfbench/` still runs against this library.

The benchmark reads about thirty library names (local queries, runners,
`from_spec`, `SchedulingInstance.oracle`, `MemoView` internals...), so a
change that drops one breaks every benchmark run while the other tests
pass.  This runs three cheap workloads with the tracer installed.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_run_correctly_under_the_tracer(monkeypatch):
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone after the test
    try:
        workloads = importlib.import_module("workloads")
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
    finally:
        # the benchmark's modules are not the library's: forget them
        for name in set(sys.modules) - before:
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]
