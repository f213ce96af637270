"""Locality check of the cost model: a local answer is a function of the
records its query was charged for.

For every family and query kind of `instances.FAMILIES`, each query runs on
a small explicit instance, and its counter keeps the records it read.  The
instance is then rebuilt with data the query did not read changed, and the
same query must give the same answer for the same probe count:

* every unread left record gets new right ids.  It keeps the ids whose
  records were read and swaps the rest for ids whose records were not, so
  every read record stays exactly as it was;
* the values (udubv/ksmb bids, scheduling caps) of the entities whose own
  record went unread and which no read record lists.

Standard-mode scheduling draws its records from the seed, so its rebuild is
a copy of the instance with the unread oracle rows changed.  The auction
buyer queries are also asked under an overlay where the queried buyer alone
reports, with the same rebuilds and the same overlay on each.

A probe is also a touched record: on seeded instances, every record a query
touches in the oracle's tables is in its counter's `seen`, and every record
in `seen` but the query's free own record was touched.  The oracle's tables
hold every row the instance keeps, and the query sees the instance through a
proxy that serves, beside the oracle, only its family's free data, so a
query that reads rows or data behind the oracle fails too.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace

import pytest

from localmech.auctions import ksmb_local, udubv_local, uduv_local
from localmech.instances import FAMILIES, InstanceSpec, build_instance
from localmech.matching import default_rounds
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, ProbeCounter

N = M = 40  # about 80 entities
SEEDS = (0, 1)
REBUILDS = 2  # per query and per kind of change


def _spec(family: str, seed: int) -> InstanceSpec:
    """An explicit instance: up to k = 3 ids a row (d = 2 for scheduling),
    and small values, so ties and zero bids are common."""
    fam = FAMILIES[family]
    rng = random.Random(seed)
    k = 2 if fam.values == "bids" else 3
    rows = None
    if fam.rows is not None:
        # scheduling's rows are jobs (m) over machines (n); the others' are
        # entities of n over m
        count, right = (N, M) if fam.rows == "n" else (M, N)
        rows = tuple(tuple(rng.sample(range(right), rng.randint(1, k))) for _ in range(count))
    values = None
    if fam.values == "valuations":
        values = tuple(rng.randint(0, 5) for _ in range(N))
    elif fam.values == "bids":
        values = tuple(rng.randint(1, 4) for _ in range(N))
    return InstanceSpec(seed, family, N, M, k, values, rows)


def _answer(query, inst, rounds: int, entity: int) -> tuple:
    """The query's canonical answer and probe count, and what it read."""
    counter = ProbeCounter()
    got = query.canon(query.local(inst, rounds, entity, counter))
    return (got, counter.count), counter.seen


def _changed_rows(oracle: AdjacencyOracle, seen: set, k: int, rng: random.Random) -> list:
    """Each unread left record keeps the right ids whose records were read
    and draws the rest anew, up to k ids, from those whose records were not."""
    unread = [r for r in range(oracle.m) if (RIGHT, r) not in seen]
    rows = []
    for i in range(oracle.n):
        row = oracle.fwd(i)
        if (LEFT, i) not in seen:
            keep = [r for r in row if (RIGHT, r) in seen]
            pool = [r for r in unread if r not in row]
            extra = min(rng.randint(0 if keep else 1, k - len(keep)), len(pool))
            row = tuple(keep + rng.sample(pool, extra)) or row
        rows.append(row)
    return rows


def _changed_values(spec: InstanceSpec, oracle: AdjacencyOracle, seen: set, rng: random.Random):
    """New values for the entities whose own record is unread and which no
    read record lists: buyers for udubv/ksmb, machines for scheduling."""
    side = LEFT if FAMILIES[spec.family].values == "valuations" else RIGHT
    records = {LEFT: oracle.fwd, RIGHT: oracle.rev}
    read = seen | {(side, x) for s, e in seen if s != side for x in records[s](e)}
    low = 0 if side == LEFT else 1  # a bid may be 0, a capacity may not
    return tuple(
        v if (side, x) in read else rng.randint(low, 6) for x, v in enumerate(spec.values)
    )


def _rebuild(spec: InstanceSpec, inst, rows: list | None, values):
    """The instance with these left records (None: the spec's) and values.
    Standard-mode scheduling draws its records, so it gets a copy instead."""
    if spec.explicit_edges is None:
        twin = copy.copy(inst)
        twin._oracle = AdjacencyOracle(rows, inst.oracle.m, range(len(rows)))
        return twin
    return build_instance(replace(spec, explicit_edges=rows or spec.explicit_edges, values=values))


def _check_unread_changes(spec, inst, query, rounds, e, rng) -> tuple[int, int]:
    """Ask the query on the instance and on its rebuilds with unread rows,
    then unread values, changed; each must answer alike.  Returns how many
    rows and values the rebuilds changed."""
    truth = [inst.oracle.fwd(i) for i in range(inst.oracle.n)]
    changed_rows = changed_values = 0
    want, seen = _answer(query, inst, rounds, e)
    for _ in range(REBUILDS):
        rows = _changed_rows(inst.oracle, seen, spec.k, rng)
        changed_rows += sum(a != b for a, b in zip(rows, truth))
        twin = _rebuild(spec, inst, rows, spec.values)
        assert _answer(query, twin, rounds, e)[0] == want, (spec.seed, e)
        if spec.values is None or spec.explicit_edges is None:
            continue
        values = _changed_values(spec, inst.oracle, seen, rng)
        changed_values += sum(a != b for a, b in zip(values, spec.values))
        twin = _rebuild(spec, inst, None, values)
        assert _answer(query, twin, rounds, e)[0] == want, (spec.seed, e)
    return changed_rows, changed_values


@pytest.mark.parametrize("family", list(FAMILIES))
def test_no_answer_moves_when_unread_data_changes(family):
    fam = FAMILIES[family]
    changed_rows = changed_values = 0
    for seed in SEEDS:
        spec = _spec(family, seed)
        inst = build_instance(spec)
        rng = random.Random(seed)
        for query in fam.queries:
            for rounds in (2, 6) if family == "matching" else (0,):
                for e in range(getattr(inst, query.side)):
                    rows, values = _check_unread_changes(spec, inst, query, rounds, e, rng)
                    changed_rows += rows
                    changed_values += values
    assert changed_rows > 0
    assert changed_values > 0 or spec.values is None or spec.explicit_edges is None


# auction family → its buyer query under an overlay, and a report of buyer e
# alone: a uduv buyer reports a set, a udubv or ksmb buyer a bid
_OVERLAID = {
    "uduv": (
        lambda inst, e, c, ov: uduv_local(inst, ("buyer", e), c, ov),
        lambda inst, e, rng: {e: rng.sample(range(inst.m), rng.randint(0, 3))},
    ),
    "udubv": (udubv_local, lambda inst, e, rng: {e: rng.randint(0, 5)}),
    "ksmb": (ksmb_local, lambda inst, e, rng: {e: rng.randint(0, 5)}),
}


@pytest.mark.parametrize("family", list(_OVERLAID))
def test_no_overlaid_answer_moves_when_unread_data_changes(family):
    # each buyer's query under an overlay where she alone reports: the
    # reported view reads nothing behind the `MemoView`
    ask, report = _OVERLAID[family]
    changed_rows = changed_values = 0
    for seed in SEEDS:
        spec = _spec(family, seed)
        inst = build_instance(spec)
        rng = random.Random(seed)
        for e in range(inst.n):
            overlay = report(inst, e, rng)
            query = replace(
                FAMILIES[family].queries[0], local=lambda i, r, x, c: ask(i, x, c, overlay)
            )
            rows, values = _check_unread_changes(spec, inst, query, 0, e, rng)
            changed_rows += rows
            changed_values += values
    assert changed_rows > 0
    assert changed_values > 0 or spec.values is None


class _Recorded:
    """A record table that notes each (side, id) a query reads from it."""

    def __init__(self, rows, side: str, touched: set) -> None:
        self._rows, self._side, self._touched = rows, side, touched

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int):
        self._touched.add((self._side, i))
        return self._rows[i]

    def __iter__(self):
        raise AssertionError(f"a local query iterated every {self._side} record")


class _FreeData:
    """An instance as a local query sees it: its oracle and the attributes
    of `free`; reading any other attribute fails.  `read` keeps the names
    served."""

    __slots__ = ("_inst", "_free", "read")

    def __init__(self, inst, free: frozenset) -> None:
        self._inst, self._free, self.read = inst, free | {"oracle"}, set()

    def __getattr__(self, name: str):
        if name not in self._free:
            raise AssertionError(f"a local query read the instance's {name}")
        self.read.add(name)
        return getattr(self._inst, name)


# family → the instance data its local queries may read beside the oracle:
# build-time data and checks that cost no probe, the per-key contract a
# build-free layout has to meet (report overlays are not covered here)
_FREE_DATA = {
    "matching": frozenset({"suitor_keys"}),
    "scheduling-std": frozenset({"require_mode", "place", "slot_prefix", "tie_words", "tape"}),
    "scheduling-res": frozenset({"require_mode", "place", "caps"}),
    "uduv": frozenset({"require_mode", "reports", "place"}),
    "udubv": frozenset({"require_mode", "mode", "values"}),
    "ksmb": frozenset({"require_mode", "mode", "values"}),
    "housing": frozenset({"place"}),
}
# a slot tie reads the tape only when its first attempt, from `tie_words`, is rejected
_RARE = {"tape"}
# query kind → the oracle side of the queried entity's own record, the one free read
_OWN_SIDE = {"man": LEFT, "woman": RIGHT, "job": LEFT, "buyer": LEFT, "item": RIGHT, "agent": LEFT}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_probe_is_a_touched_record(family):
    queries = 0
    read: set = set()
    for k in (2, 3):
        for seed in range(3):
            inst = build_instance(InstanceSpec(seed=seed, family=family, n=512, m=512, k=k))
            touched: set = set()
            oracle = inst.oracle
            oracle.rows = _Recorded(oracle.rows, LEFT, touched)
            oracle.cols = _Recorded(oracle.cols, RIGHT, touched)
            seen_as = _FreeData(inst, _FREE_DATA[family])
            for query in FAMILIES[family].queries:
                for e in range(0, getattr(inst, query.side), 7):
                    touched.clear()
                    counter = ProbeCounter()
                    query.local(seen_as, default_rounds(k), e, counter)
                    assert touched <= counter.seen, (k, seed, e, touched - counter.seen)
                    phantom = counter.seen - touched - {(_OWN_SIDE[query.entity], e)}
                    assert not phantom, (k, seed, e, phantom)
                    queries += 1
            read |= seen_as.read
    assert queries >= 2 * 3 * 512 // 7
    # the table names no datum the queries do not read
    assert read | _RARE >= _FREE_DATA[family] | {"oracle"}, read
