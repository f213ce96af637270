"""The benchmark's workloads.

Each workload is a function `(seed, seconds) -> Tally`.  It builds its inputs
from `seed` with Python's own `random` module (never with the program's tape,
so the inputs do not move when the program's randomness layer changes), and
sizes its work from `seconds` alone, never from a clock, so that two runs
with the same arguments do the same work and report the same probe counts.

Every call into the program goes through a module attribute
(`matching.local_ags`, not a name imported once), so the tracer in
`tracer.py` can wrap those functions for a traced run.

A pass builds fresh instances, forces their lazy state, runs the global
reference runners and then times one batch of distinct local queries, so
set-up never lands in a query timing and no entity is timed twice in a run.
lcmd-bench, which runs the `lcmd bench` command whole, says at its function
how it departs from this.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from hashlib import blake2b, sha256
from time import perf_counter

from library import REFS
from refclock import SPAN, RefClock
from localmech import auctions, cli, harness, matching, rsd, scheduling
from localmech.instances import InstanceSpec, build_instance
from localmech.probes import ProbeCounter

# ---------------------------------------------------------------------------
# configuration of each workload
# ---------------------------------------------------------------------------

MATCHING_N, MATCHING_K, MATCHING_ROUNDS = 1024, 3, 18
MATCHING_PASSES = 4

AUCTION_N, AUCTION_K = 4096, 3
# Instances whose reference answers perfbench/record_refs.py recorded once:
# udubv_run and ksmb_run take minutes at n=4096.
AUCTION_POOL = (("udubv", 0), ("udubv", 1), ("ksmb", 0), ("ksmb", 1))
# Fresh small instances checked against an in-run global run in every pass.
AUCTION_SMALL_N = 128
AUCTION_PASSES = 5

COLD_N = 16384
COLD_QUERIES = 1000
# family, list/set/menu size; matching runs 2·k² = 2 rounds.
COLD_FAMILIES = (
    ("housing", 2),
    ("scheduling-std", 2),
    ("scheduling-res", 2),
    ("uduv", 2),
    ("matching", 1),
)

# Criterion 11's cheap rows, as `lcmd bench` runs them: slug, family, k, d.
LCMD_GRID = ("--n", "256,1024,4096", "--seeds", "10", "--queries", "100")
LCMD_ROWS = (
    ("rsd-d2", "rsd", 3, 2),
    ("scheduling-d2", "scheduling", 3, 2),
    ("auction-uduv-k2", "auction", 2, 2),
    ("matching-k1-l2", "matching", 1, 2),
)
LCMD_THREADS = 2
# Sets of cells per run checked row by row against the global runners.
LCMD_CHECK_SETS = 4


def auction_ref_path(family: str, seed: int):
    return REFS / f"{family}_n{AUCTION_N}_k{AUCTION_K}_seed{seed}.json"


# ---------------------------------------------------------------------------
# measurement record
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """A finished run's times in reference-speed seconds (see refclock.py),
    with the raw wall times beside them."""

    run_s: float
    run_raw_s: float
    setup_s: list[float]
    global_s: list[float]
    latency_s: list[float]
    latency_raw_s: list[float]


class Tally:
    """Everything one workload run measures, plus its correctness record."""

    def __init__(self) -> None:
        self.clock = RefClock()
        self.probes: list[int] = []
        self.configs: list[str] = []  # each query's configuration, see _config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = blake2b(digest_size=16)
        # (start, end) of each pass's set-up and global phase
        self._phases: dict[str, list[tuple[float, float]]] = {"setup": [], "global": []}
        # (raw seconds, start and end of the interval whose speed applies)
        self._queries: list[tuple[float, float, float]] = []
        self.clock.calibrate(SPAN)

    def check(self, label: str, got, want) -> None:
        """Count one answer; every disagreement with the reference fails it."""
        self.attempted += 1
        self.digest.update(f"{label}={got!r}\n".encode())
        if got != want:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: got {got!r}, reference {want!r}")

    def timed(self, kind: str, fn):
        """Run `fn()` as one pass's set-up ("setup") or global-reference
        ("global") phase, calibrated on both sides and, from a side thread,
        during it."""
        self.clock.calibrate(SPAN)
        with self.clock.background():
            t0 = perf_counter()
            out = fn()
            t1 = perf_counter()
        self.clock.calibrate(SPAN)
        self._phases[kind].append((t0, t1))
        return out

    def query(self, label: str, config: str, local, args: tuple, canon, want) -> None:
        """Time one local query with a fresh probe counter and check it."""
        self.clock.tick()
        counter = ProbeCounter()
        t0 = perf_counter()
        got = local(*args, counter)
        t1 = perf_counter()
        self._queries.append((t1 - t0, t0, t1))
        self.probes.append(counter.count)
        self.configs.append(config)
        self.check(label, canon(got), want)

    def timed_elsewhere(
        self, seconds: float, probes: int, config: str, t0: float, t1: float
    ) -> None:
        """A query the program timed itself, inside the interval t0..t1."""
        self._queries.append((seconds, t0, t1))
        self.probes.append(probes)
        self.configs.append(config)

    def finish(self) -> Measured:
        self.clock.calibrate(SPAN)
        scale = self.clock.factor
        raw_run, run_s = self.clock.total()

        def phase(kind):
            return [(t1 - t0) * scale(t0, t1) for t0, t1 in self._phases[kind]]

        return Measured(
            run_s=run_s,
            run_raw_s=raw_run,
            setup_s=phase("setup"),
            global_s=phase("global"),
            latency_s=[raw * scale(t0, t1) for raw, t0, t1 in self._queries],
            latency_raw_s=[raw for raw, _, _ in self._queries],
        )


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _instance_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# canonical answer forms, shared by local answers and global references
def _buyer(got: dict) -> tuple:
    return (tuple(got["award"]), str(got["payment"]))


def _same(x):
    return x


def _config(family: str, n: int, size: int) -> str:
    """A query's full configuration: probe statistics are keyed by it, never
    by family alone (matching k=1 and k=3 differ by four orders)."""
    if family == "matching":
        return f"matching k={size} rounds={2 * size * size} n={n}"
    name = "k" if family in ("uduv", "udubv", "ksmb") else "d"
    return f"{family} {name}={size} n={n}"


# ---------------------------------------------------------------------------
# matching-ball
# ---------------------------------------------------------------------------


def matching_ball(seed: int, seconds: int) -> Tally:
    """k=3, 18 rounds, n=1024: the radius-36 ball covers about the whole
    instance, so a query is dominated by keyed hashing and view reads."""
    rng = _rng("matching-ball", seed)
    per_pass = 25 * seconds
    config = _config("matching", MATCHING_N, MATCHING_K)
    tally = Tally()
    for _ in range(MATCHING_PASSES):
        spec = InstanceSpec(
            seed=_instance_seed(rng), family="matching", n=MATCHING_N, m=MATCHING_N, k=MATCHING_K
        )
        inst = tally.timed("setup", lambda: build_instance(spec))
        statuses, _ = tally.timed("global", lambda: matching.abridged_gs(inst, MATCHING_ROUNDS))
        for man in rng.sample(range(MATCHING_N), min(per_pass, MATCHING_N)):
            tally.query(
                f"matching/{spec.seed}/man{man}",
                config,
                matching.local_ags,
                (inst, MATCHING_ROUNDS, man),
                _same,
                statuses[man],
            )
    return tally


# ---------------------------------------------------------------------------
# auction-payments
# ---------------------------------------------------------------------------

_AUCTION_LOCAL = {"udubv": "udubv_local", "ksmb": "ksmb_local"}
_AUCTION_GLOBAL = {"udubv": "udubv_run", "ksmb": "ksmb_run"}


def _load_auction_refs() -> dict[tuple[str, int], list[tuple]]:
    refs = {}
    for family, seed in AUCTION_POOL:
        doc = json.loads(auction_ref_path(family, seed).read_text())
        refs[family, seed] = [(tuple(award), pay) for award, pay in doc["answers"]]
    return refs


def _stratified(rng: random.Random, order: list[int], count: int) -> list[int]:
    """`count` distinct entries of `order`, one from each of `count` equal
    consecutive strata, in random order."""
    bounds = [len(order) * i // count for i in range(count + 1)]
    picks = [order[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(picks)
    return picks


def auction_payments(seed: int, seconds: int) -> Tally:
    """udubv and ksmb buyer queries at n=4096: the upward closure by bid and,
    for winners, the without-her payment replay.  No query draws a hash.

    A query's cost follows its buyer's bid rank, so the buyers are drawn one
    per stratum of bid rank: every run covers the bid range evenly.  The
    n=4096 answers are checked against recorded global runs.  Each pass also
    checks every buyer of a fresh small instance of each mode against an
    in-run global run, which is what `global_s` times."""
    rng = _rng("auction-payments", seed)
    refs = _load_auction_refs()
    per_instance = min(25 * seconds, AUCTION_N)  # over all passes
    picks: dict[tuple[str, int], list[int]] = {}
    tally = Tally()
    for p in range(AUCTION_PASSES):
        pool_specs = [
            InstanceSpec(seed=s, family=family, n=AUCTION_N, m=AUCTION_N, k=AUCTION_K)
            for family, s in AUCTION_POOL
        ]
        small_specs = [
            InstanceSpec(
                seed=_instance_seed(rng),
                family=family,
                n=AUCTION_SMALL_N,
                m=AUCTION_SMALL_N,
                k=AUCTION_K,
            )
            for family in _AUCTION_GLOBAL
        ]
        built = tally.timed("setup", lambda: [build_instance(s) for s in pool_specs + small_specs])
        pool = dict(zip(AUCTION_POOL, built))
        small = built[len(pool_specs):]
        outs = tally.timed(
            "global", lambda: [getattr(auctions, _AUCTION_GLOBAL[i.mode])(i) for i in small]
        )
        for inst, out in zip(small, outs):
            local = getattr(auctions, _AUCTION_LOCAL[inst.mode])
            for b in range(inst.n):
                want = (out.awards[b], str(out.payments[b]))
                tally.check(f"{inst.mode}/{inst.seed}/buyer{b}", _buyer(local(inst, b)), want)

        for (family, s), inst in pool.items():
            if (family, s) not in picks:
                by_bid = sorted(range(inst.n), key=lambda b: (-inst.values[b], b))
                picks[family, s] = _stratified(rng, by_bid, per_instance)
            local = getattr(auctions, _AUCTION_LOCAL[family])
            for b in picks[family, s][p::AUCTION_PASSES]:
                tally.query(
                    f"{family}/{s}/buyer{b}",
                    _config(family, AUCTION_N, AUCTION_K),
                    local,
                    (inst, b),
                    _buyer,
                    refs[family, s][b],
                )
    return tally


# ---------------------------------------------------------------------------
# cold-build
# ---------------------------------------------------------------------------


def _build_forced(spec: InstanceSpec):
    """Build an instance and its lazily built state (the scheduling oracle),
    so that none of it lands in the first query's time."""
    inst = build_instance(spec)
    if isinstance(inst, scheduling.SchedulingInstance):
        inst.oracle  # noqa: B018 - evaluated for its side effect
    return inst


def _cold_global(family: str, inst):
    """Run the family's global runner; return entity -> reference answer."""
    if family == "housing":
        alloc = rsd.rsd_global(inst)
        return alloc.__getitem__
    if family == "scheduling-std":
        alloc = scheduling.slms_online(inst, order=inst.rank_order())
        return alloc.assign.__getitem__
    if family == "scheduling-res":
        alloc = scheduling.rlms_online(inst, order=inst.rank_order())
        return alloc.assign.__getitem__
    if family == "uduv":
        out = auctions.uduv_run(inst)
        return lambda e: (out.awards[e], str(out.payments[e]))
    statuses, _ = matching.abridged_gs(inst, 2 * inst.k * inst.k)
    return statuses.__getitem__


def _cold_local(family: str):
    """(local query taking (inst, entity, counter), canonical form)."""
    if family == "housing":
        return rsd.rsd_local, _same
    if family == "scheduling-std":
        return scheduling.slms_local, _same
    if family == "scheduling-res":
        return scheduling.rlms_local, _same
    if family == "uduv":
        return (lambda i, e, c: auctions.uduv_local(i, ("buyer", e), c)), _buyer
    return (lambda i, e, c: matching.local_ags(i, 2 * i.k * i.k, e, c)), _same


def cold_build(seed: int, seconds: int) -> Tally:
    """Fresh n=16384 instances of five cheap families: set-up and global
    replay dominate, and queries are tiny closures of a few probes."""
    rng = _rng("cold-build", seed)
    passes = max(1, (3 * seconds) // 10)
    tally = Tally()
    for _ in range(passes):
        specs = [
            InstanceSpec(seed=_instance_seed(rng), family=family, n=COLD_N, m=COLD_N, k=size)
            for family, size in COLD_FAMILIES
        ]
        insts = tally.timed("setup", lambda: [_build_forced(spec) for spec in specs])
        refs = tally.timed(
            "global", lambda: [_cold_global(s.family, i) for s, i in zip(specs, insts)]
        )
        for spec, inst, ref in zip(specs, insts, refs):
            local, canon = _cold_local(spec.family)
            config = _config(spec.family, COLD_N, spec.k)
            population = inst.m if spec.family.startswith("scheduling") else inst.n
            for e in rng.sample(range(population), COLD_QUERIES):
                label = f"{spec.family}/{spec.seed}/{e}"
                tally.query(label, config, local, (inst, e), canon, ref(e))
    return tally


# ---------------------------------------------------------------------------
# lcmd-bench
# ---------------------------------------------------------------------------


def _bench_digest(text: str) -> str:
    """The per-row digest of the `lcmd bench` records CSV."""
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _csv_body(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def _body_hash(text: str) -> str:
    return sha256(_csv_body(text).encode()).hexdigest()


def _run_lcmd(argv) -> tuple[str, list]:
    """Run `lcmd` in-process; return its stdout and the bench records that
    `harness.bench_family` handed back to it (they carry per-query times)."""
    records = []
    original = harness.bench_family

    def keep(config):
        out = original(config)
        records.extend(out)
        return out

    harness.bench_family = keep
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        harness.bench_family = original
    if code != 0:
        raise RuntimeError(f"lcmd {' '.join(argv)} exited {code}")
    return out.getvalue(), records


def _lcmd_size(family: str, k: int, d: int) -> int:
    """The list, set or menu size `lcmd bench` builds a cell's instance with."""
    return k if harness.canonical_family(family) in ("matching", "uduv") else d


def lcmd_argv(family: str, k: int, d: int) -> list[str]:
    return ["bench", family, *LCMD_GRID, "--k", str(k), "--d", str(d)]


def lcmd_bench_bodies() -> dict[str, tuple[list[str], dict]]:
    """One pass over LCMD_ROWS: {slug: (argv, body hash and row count)}."""
    bodies = {}
    for slug, family, k, d in LCMD_ROWS:
        argv = lcmd_argv(family, k, d)
        text, records = _run_lcmd(argv)
        bodies[slug] = (argv, {"sha256": _body_hash(text), "rows": len(records)})
    return bodies


def _lcmd_global(family: str, inst, k: int):
    """Global answers of one `lcmd bench` cell in the harness's canonical
    string form, as a function entity -> string."""
    if family == "matching":
        statuses, _ = matching.abridged_gs(inst, 2 * k * k)
        return lambda e: f"{statuses[e].state}|{statuses[e].partner}"
    if family == "scheduling-res":
        alloc = scheduling.rlms_online(inst, order=inst.rank_order())
        return lambda e: str(alloc.assign[e])
    if family == "uduv":
        out = auctions.uduv_run(inst)
        return lambda e: f"{out.awards[e]}|{out.payments[e]}"
    alloc = rsd.rsd_global(inst)
    return lambda e: str(alloc[e])


def _lcmd_pass(tally: Tally, threads: int, timed: bool) -> list[tuple[str, list]]:
    """Run every row once with LCMD_THREADS=threads; with `timed`, keep the
    harness's per-query times as this run's query figures."""
    saved = os.environ.get("LCMD_THREADS")
    os.environ["LCMD_THREADS"] = str(threads)
    out = []
    try:
        with tally.clock.background():
            for _, family, k, d in LCMD_ROWS:
                t0 = perf_counter()
                text, records = _run_lcmd(lcmd_argv(family, k, d))
                t1 = perf_counter()
                if timed:
                    size = _lcmd_size(family, k, d)
                    for rec in records:
                        config = _config(rec.family, rec.n, size)
                        tally.timed_elsewhere(rec.wall_time, rec.probes, config, t0, t1)
                out.append((text, records))
    finally:
        if saved is None:
            del os.environ["LCMD_THREADS"]
        else:
            os.environ["LCMD_THREADS"] = saved
    return out


def lcmd_bench(seed: int, seconds: int) -> Tally:
    """`lcmd bench` over criterion 11's cheap rows, run in-process once with
    LCMD_THREADS=1 and once with the pool of LCMD_THREADS=2.

    The one-thread pass gives the per-query figures.  In the pool a query's
    time includes the other thread's turns with the interpreter lock, which
    put its p99 on the edge between interrupted and uninterrupted queries
    (a 33% spread from seed to seed).  The pool pass counts in `run_s`, and
    its CSV bodies must equal the first pass's.

    The command's inputs are fixed by its grid (instance seeds 0..9), so
    `seconds` does not size this workload.  The first pass's bodies are
    checked against the recorded hashes.  `seed` picks LCMD_CHECK_SETS sets
    of cells, one instance seed per row and n in each.  Every record of those
    cells is checked against the family's global runner, and the set-up and
    global figures time those sets."""
    del seconds
    rng = _rng("lcmd-bench", seed)
    recorded = json.loads((REFS / "lcmd_bench.json").read_text())
    tally = Tally()
    runs = [_lcmd_pass(tally, 1, timed=True), _lcmd_pass(tally, LCMD_THREADS, timed=False)]

    cells = {}
    for row, (slug, family, k, d) in enumerate(LCMD_ROWS):
        text, records = runs[0][row]
        tally.check(f"{slug}/body-sha256", _body_hash(text), recorded[slug]["sha256"])
        pooled = _body_hash(runs[1][row][0])
        tally.check(f"{slug}/threads-{LCMD_THREADS}-body-sha256", pooled, _body_hash(text))
        for rec in records:
            cells.setdefault((row, rec.n, rec.seed), []).append(rec)
    grid = sorted({(row, n) for row, n, _ in cells})
    seeds = {
        (row, n): rng.sample(sorted(s for r, m, s in cells if (r, m) == (row, n)), LCMD_CHECK_SETS)
        for row, n in grid
    }
    for i in range(LCMD_CHECK_SETS):
        chosen = []
        for row, n in grid:
            _, family, k, d = LCMD_ROWS[row]
            family = harness.canonical_family(family)
            seed_i = seeds[row, n][i]
            spec = InstanceSpec(seed=seed_i, family=family, n=n, m=n, k=_lcmd_size(family, k, d))
            chosen.append((row, k, spec))
        insts = tally.timed("setup", lambda: [_build_forced(spec) for _, _, spec in chosen])
        answers = tally.timed(
            "global",
            lambda: [_lcmd_global(spec.family, inst, k) for (_, k, spec), inst in zip(chosen, insts)],
        )
        for (row, _, spec), answer in zip(chosen, answers):
            for rec in cells[row, spec.n, spec.seed]:
                label = f"{LCMD_ROWS[row][0]}/{spec.n}/{spec.seed}/{rec.query}"
                tally.check(label, rec.digest, _bench_digest(answer(rec.query)))
    return tally


WORKLOADS = {
    "matching-ball": matching_ball,
    "auction-payments": auction_payments,
    "cold-build": cold_build,
    "lcmd-bench": lcmd_bench,
}
