"""localmech benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload matching-ball --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it measures the `src/` tree there.
`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` runs the workload once untraced and once traced with the same
inputs, prints the per-layer metrics of the traced run and the tracing
overhead (traced minus untraced wall time), and writes the traced run's
spans to perfbench/out/.  The last line of stdout is the result as JSON:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and the map between them: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

from stats import percentile

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("global_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("probes_p50", "count"),
    ("probes_p99", "count"),
    ("peak_rss_mb", "MB"),
)
# probes_max is printed with every run but kept out of the result line: the
# maximum of a heavy tail moves by a third from one seed to the next on
# cold-build, beyond any bound the result line may carry.  It repeats exactly
# for one seed, and the traced run reports it as probes.query_max.

# The per-layer metrics of the result line.  Times a workload can leave at
# zero (one family's layer, harness, cli) are printed in the table above it
# and written with the spans instead; the per-family call counts and the
# local/global self-time sums stand for them here.
PER_LAYER = (
    ("randomness.u64_calls", "count"),
    ("randomness.u64_query_calls", "count"),
    ("randomness.u64_s", "s"),
    ("randomness.draw_calls", "count"),
    ("randomness.draw_s", "s"),
    ("probes.view_reads", "count"),
    ("probes.view_s", "s"),
    ("probes.memo_hit_ratio", "ratio"),
    ("probes.charged_fwd", "count"),
    ("probes.charged_rev", "count"),
    ("probes.closure_p50", "count"),
    ("probes.closure_max", "count"),
    ("probes.query_max", "count"),
    ("probes.oracle_build_s", "s"),
    ("instances.build_s", "s"),
    ("instances.builds", "count"),
    ("scheduling.oracle_builds", "count"),
    ("matching.local_calls", "count"),
    ("scheduling.local_calls", "count"),
    ("auctions.local_calls", "count"),
    ("rsd.local_calls", "count"),
    ("local.self_s", "s"),
    ("global.self_s", "s"),
    ("auctions.payment_share", "ratio"),
    ("harness.cells", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _pin_to_one_cpu() -> None:
    """Keep the process, and so the calibration thread with it, on one CPU:
    a side thread on another core would time that core's speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(workload, seed: int, seconds: int):
    tally = workload(seed, seconds)
    return tally, tally.finish()


def end_to_end(tally, measured) -> dict[str, float]:
    return {
        "run_s": measured.run_s,
        "setup_s": statistics.median(measured.setup_s),
        "global_s": statistics.median(measured.global_s),
        "queries_per_s": len(measured.latency_s) / sum(measured.latency_s),
        "query_p50_us": 1e6 * percentile(measured.latency_s, 0.50),
        "query_p99_us": 1e6 * percentile(measured.latency_s, 0.99),
        "probes_p50": percentile(tally.probes, 0.50),
        "probes_p99": percentile(tally.probes, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _probes_by_config(tally) -> None:
    by_config: dict[str, list[int]] = {}
    for config, probes in zip(tally.configs, tally.probes):
        by_config.setdefault(config, []).append(probes)
    print("  probes per query by configuration (queries, p50, p99, max):")
    for config, probes in by_config.items():
        print(f"    {config:<36} {len(probes):>6} {percentile(probes, 0.5):>7} "
              f"{percentile(probes, 0.99):>7} {max(probes):>7}")


def _table(values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6f} {units.get(name, '')}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    _pin_to_one_cpu()

    tally, measured = _run(workload, args.seed, args.seconds)
    attempted, failed, problems = tally.attempted, tally.failed, list(tally.problems)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  queries timed: {len(tally.probes)}, answers checked: {attempted}, "
          f"mismatch_rate: {failed / attempted:.6f}")
    print(f"  answer digest: {tally.digest.hexdigest()}, probes_max: {max(tally.probes)}")
    _probes_by_config(tally)
    print(f"  raw wall time: run {measured.run_raw_s:.6f} s, query p50 "
          f"{1e6 * percentile(measured.latency_raw_s, 0.5):.3f} us; reference-speed "
          f"factor {measured.run_s / measured.run_raw_s:.4f}")
    run_s = measured.run_s
    if args.trace == 0:
        units = dict(END_TO_END)
        values = end_to_end(tally, measured)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_measured = _run(workload, args.seed, args.seconds)
        finally:
            tracer.uninstall()
        traced_s = traced_measured.run_s
        if traced.digest.hexdigest() != tally.digest.hexdigest():
            problems.append("traced run gave other answers than the untraced run")
            failed += 1
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
        layers = tracer.layer_metrics()
        layers["probes.query_max"] = max(traced.probes)
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - run_s
        print(f"  untraced run_s {run_s:.6f} s, traced run_s {traced_s:.6f} s "
              f"(+{100 * (traced_s - run_s) / run_s:.1f}%)")
        print("  every layer figure of the traced run:")
        _table(layers, {name: ("s" if name.endswith("_s") else "") for name in layers})
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        print(f"  {tracer.write_spans(spans)} spans written to {spans}")
        units = dict(PER_LAYER)
        values = {name: layers[name] for name in units}
    for problem in problems:
        print(f"  MISMATCH {problem}")
    print("result:")
    _table(values, units)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
