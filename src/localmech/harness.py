"""Experiment orchestration: verification batteries, probe benchmarks, CSV.

Output contracts (consumed by the CLI and by external plotting scripts):

* bench records CSV — columns ``family,n,seed,query,probes,digest``, one row
  per answered query, sorted by (family, n, seed, query).  Per-query wall
  times live on the in-memory records only; timing and timestamps are
  confined to ``#`` header comments so reruns are byte-identical.
* bench summary CSV — columns ``family,n,stat,value``: per-n probe stats
  (median / p99 / max) followed by the growth diagnostics fitted to the
  per-n maxima: ``power_exponent`` (slope of log probes vs log n) and the
  ``polylog_constant`` / ``polylog_exponent`` pair of probes ≈ c·(ln n)^p.
* verify report CSV — columns ``name,instances,violations``, one row per
  invariant battery.

Bench cells and verify batteries both read the one family table,
`instances.FAMILIES`: the size parameter (k or d) that builds a family's
instances, its query kinds with their local answers and canonical strings
(the bench digest input), its global answers and its extra invariant rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from hashlib import blake2b
from statistics import median
from typing import Iterable, Sequence

from .instances import FAMILIES, InstanceSpec, build_instance
from .probes import ProbeCounter
from .randomness import RandomTape, sample_without_replacement

__all__ = [
    "ExperimentConfig",
    "BenchRecord",
    "BENCH_COLUMNS",
    "SUMMARY_COLUMNS",
    "VERIFY_COLUMNS",
    "canonical_family",
    "bench_family",
    "bench_points",
    "summarize_bench",
    "fit_power_exponent",
    "fit_polylog",
    "verify_family",
    "render_csv",
    "csv_body",
]

BENCH_COLUMNS = ("family", "n", "seed", "query", "probes", "digest")
SUMMARY_COLUMNS = ("family", "n", "stat", "value")
VERIFY_COLUMNS = ("name", "instances", "violations")

# CLI-facing aliases for the canonical instance families.
_ALIASES = {
    "rsd": "housing",
    "scheduling": "scheduling-res",
    "auction": "uduv",
}


def canonical_family(name: str) -> str:
    fam = _ALIASES.get(name, name)
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return fam


@dataclass(frozen=True)
class ExperimentConfig:
    """One orchestration request: which family, which sizes, how much work."""

    family: str
    ns: tuple[int, ...]
    seeds: int
    queries: int = 100
    k: int = 3
    d: int = 2
    rounds: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", canonical_family(self.family))
        object.__setattr__(self, "ns", tuple(int(x) for x in self.ns))
        if not self.ns or any(x < 1 for x in self.ns):
            raise ValueError("n grid must be nonempty and positive")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.queries < 1:
            raise ValueError("queries must be >= 1")


@dataclass(frozen=True)
class BenchRecord:
    family: str
    n: int
    seed: int
    query: int
    probes: int
    wall_time: float
    digest: str


def _digest(text: str) -> str:
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _cell(family: str, n: int, seed: int, k: int, d: int, rounds: int | None):
    """The table entry, the instance and the matching round budget of one
    (family, n, seed) cell."""
    fam = FAMILIES[family]
    size = {"k": k, "d": d}[fam.size]
    inst = build_instance(InstanceSpec(seed=seed, family=family, n=n, m=n, k=size))
    return fam, inst, rounds if rounds is not None else 2 * k * k


def _bench_cell(
    family: str, n: int, seed: int, queries: int, k: int, d: int, rounds: int | None
) -> list[BenchRecord]:
    fam, inst, budget = _cell(family, n, seed, k, d, rounds)
    kind = fam.queries[0]
    population = getattr(inst, kind.side)
    tape = RandomTape(seed)
    picks = sample_without_replacement(
        tape, ("bench-query", family, n), population, min(queries, population)
    )
    records = []
    for q in sorted(picks):
        counter = ProbeCounter()
        t0 = time.perf_counter()
        canon = kind.canon(kind.local(inst, budget, q, counter))
        dt = time.perf_counter() - t0
        records.append(
            BenchRecord(
                family=family,
                n=n,
                seed=seed,
                query=q,
                probes=counter.count,
                wall_time=dt,
                digest=_digest(canon),
            )
        )
    return records


def bench_points(
    family: str,
    points: Sequence[tuple[int, int, int]],
    k: int = 3,
    d: int = 2,
    rounds: int | None = None,
) -> list[BenchRecord]:
    """Probe benchmark over explicit (n, seeds, queries) points, one cell
    per (n, seed), records sorted by (family, n, seed, query)."""
    family = canonical_family(family)
    records = [
        rec
        for n, seeds, queries in points
        for seed in range(seeds)
        for rec in _bench_cell(family, n, seed, queries, k, d, rounds)
    ]
    records.sort(key=lambda r: (r.family, r.n, r.seed, r.query))
    return records


def bench_family(config: ExperimentConfig) -> list[BenchRecord]:
    points = [(n, config.seeds, config.queries) for n in config.ns]
    return bench_points(config.family, points, k=config.k, d=config.d, rounds=config.rounds)


# ---------------------------------------------------------------------------
# summaries and fits
# ---------------------------------------------------------------------------


def fit_power_exponent(ns: Sequence[int], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log n."""
    import numpy as np

    if len(ns) < 2:
        raise ValueError("need at least two grid points to fit")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.maximum(np.asarray(ys, dtype=float), 1.0))
    return float(np.polyfit(x, y, 1)[0])


def fit_polylog(ns: Sequence[int], ys: Sequence[float]) -> tuple[float, float]:
    """Fit y ≈ c·(ln n)^p; returns (c, p)."""
    import numpy as np

    if len(ns) < 2:
        raise ValueError("need at least two grid points to fit")
    x = np.log(np.log(np.asarray(ns, dtype=float)))
    y = np.log(np.maximum(np.asarray(ys, dtype=float), 1.0))
    p, intercept = np.polyfit(x, y, 1)
    return float(math.exp(intercept)), float(p)


def summarize_bench(records: Sequence[BenchRecord]) -> list[tuple[str, str, str, str]]:
    """Summary rows (family, n, stat, value): per-n median/p99/max probes,
    then the growth fits over the per-n maxima."""
    by_fn: dict[tuple[str, int], list[int]] = {}
    for rec in records:
        by_fn.setdefault((rec.family, rec.n), []).append(rec.probes)
    rows: list[tuple[str, str, str, str]] = []
    maxima: dict[str, list[tuple[int, int]]] = {}
    for (family, n), probes in sorted(by_fn.items()):
        probes = sorted(probes)
        p99 = probes[max(0, math.ceil(0.99 * len(probes)) - 1)]
        rows.append((family, str(n), "median", f"{float(median(probes)):g}"))
        rows.append((family, str(n), "p99", str(p99)))
        rows.append((family, str(n), "max", str(probes[-1])))
        maxima.setdefault(family, []).append((n, probes[-1]))
    for family, pairs in sorted(maxima.items()):
        if len(pairs) < 2:
            continue
        ns = [n for n, _ in pairs]
        ys = [y for _, y in pairs]
        c, p = fit_polylog(ns, ys)
        rows.append((family, "", "power_exponent", f"{fit_power_exponent(ns, ys):.6f}"))
        rows.append((family, "", "polylog_constant", f"{c:.6f}"))
        rows.append((family, "", "polylog_exponent", f"{p:.6f}"))
    return rows


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def render_csv(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> str:
    """Plain CSV with optional '#' header comments.  Values are str()-ed;
    none of ours contain commas."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def csv_body(text: str) -> str:
    """The comparison payload for determinism checks: all non-comment lines."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def bench_records_csv(records: Sequence[BenchRecord], comments: Sequence[str] = ()) -> str:
    total = sum(rec.wall_time for rec in records)
    head = [
        f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
        f"total-wall-time-s: {total:.3f}",
        *comments,
    ]
    rows = [
        (rec.family, rec.n, rec.seed, rec.query, rec.probes, rec.digest) for rec in records
    ]
    return render_csv(BENCH_COLUMNS, rows, head)


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------


def _tally(rows: dict[str, list[int]], name: str, bad: int) -> None:
    row = rows.setdefault(name, [0, 0])
    row[0] += 1
    row[1] += bad


def verify_family(
    family: str,
    ns: Sequence[int],
    seeds: int,
    k: int = 3,
    d: int = 2,
    rounds: int | None = None,
) -> list[tuple[str, int, int]]:
    """Run the family's invariant battery; returns (name, instances,
    violations) rows.  A clean battery has all violation counts at 0."""
    family = canonical_family(family)
    ns = [int(n) for n in ns]
    if not ns or seeds < 1:
        raise ValueError("need a nonempty n grid and seeds >= 1")
    rows: dict[str, list[int]] = {}
    for n in ns:
        for seed in range(seeds):
            fam, inst, budget = _cell(family, n, seed, k, d, rounds)
            run, answers = fam.run(inst, budget)
            for kind, want in zip(fam.queries, answers):
                population = range(getattr(inst, kind.side))
                local, canon = kind.local, kind.canon
                bad = sum(canon(local(inst, budget, e, None)) != canon(want[e]) for e in population)
                _tally(rows, f"{kind.entity}_local_matches_global", bad)
            for name, bad in fam.extra(inst, run):
                _tally(rows, name, bad)
    return [(name, vals[0], vals[1]) for name, vals in rows.items()]
