"""Bounded-exhaustive checks: every instance of a small scope, not a sample.

Each test enumerates all instances of one family up to a small size and
checks that every local answer equals the global run and that every query
read only records in its connected component (`neighborhood` at full
radius).  The auction scopes also check that each winner pays `_critical`
and that `truthfulness_audit` finds nothing.  Most defects show on some
small instance, and here none of the small ones is skipped.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

from localmech import scheduling
from localmech.auctions import (
    AuctionInstance,
    _critical,
    ksmb_local,
    ksmb_run,
    truthfulness_audit,
    udubv_local,
    udubv_run,
    uduv_local,
    uduv_run,
)
from localmech.probes import LEFT, RIGHT, ProbeCounter, neighborhood
from localmech.rsd import HousingInstance, rsd_global, rsd_local
from localmech.scheduling import (
    RESTRICTED, STANDARD, SchedulingInstance, rlms_local, rlms_online, slms_local, slms_online,
)


def _sets(m: int, size: int) -> list[tuple[int, ...]]:
    """Every set of at most `size` of the ids 0..m-1, the empty set first."""
    return [c for r in range(size + 1) for c in combinations(range(m), r)]


def _lists(m: int, size: int) -> list[tuple[int, ...]]:
    """Every ordered list of at most `size` distinct ids 0..m-1."""
    return [p for r in range(size + 1) for p in permutations(range(m), r)]


def _ask(inst, entity, query):
    """`query(counter)`, after checking that it read only records in the
    connected component of `entity`."""
    counter = ProbeCounter()
    got = query(counter)
    assert counter.seen <= neighborhood(inst.oracle, entity, inst.oracle.n + inst.oracle.m + 1)
    return got


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
def test_bid_auctions_on_every_instance_of_the_scope(mode):
    # 3 buyers, 2 items, every set of at most 2 items, every bid in {0, 1, 2}
    run, local = {"udubv": (udubv_run, udubv_local), "ksmb": (ksmb_run, ksmb_local)}[mode]
    for sets in product(_sets(2, 2), repeat=3):
        for bids in product(range(3), repeat=3):
            inst = AuctionInstance(sets, 2, mode, values=bids, k=2)
            out = run(inst)
            for b in range(inst.n):
                got = _ask(inst, (LEFT, b), lambda c: local(inst, b, c))
                want = (out.awards[b], out.payments[b])
                assert (got["award"], got["payment"]) == want, (sets, bids, b)
                if out.awards[b]:
                    assert out.payments[b] == _critical(inst, b), (sets, bids, b)
            assert truthfulness_audit(inst) == [], (sets, bids)


def test_uduv_on_every_instance_of_the_scope():
    # 3 buyers, 3 items, every set of at most 2 items, item ranks of seeds 0-5
    for seed in range(6):
        for sets in product(_sets(3, 2), repeat=3):
            inst = AuctionInstance(sets, 3, "uduv", k=2, seed=seed)
            out = uduv_run(inst)
            winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
            for b in range(inst.n):
                got = _ask(inst, (LEFT, b), lambda c: uduv_local(inst, ("buyer", b), c))
                want = (out.awards[b], out.payments[b])
                assert (got["award"], got["payment"]) == want, (seed, sets, b)
            for j in range(inst.m):
                got = _ask(inst, (RIGHT, j), lambda c: uduv_local(inst, ("item", j), c))
                assert got["winner"] == winner_of.get(j), (seed, sets, j)
            assert truthfulness_audit(inst) == [], (seed, sets)


def test_restricted_scheduling_on_every_instance_of_the_scope():
    # 2 machines of capacity 1-3, 4 jobs, every non-empty menu, ranks of seeds 0-3
    menus = _sets(2, 2)[1:]
    for seed in range(4):
        for caps in product((1, 2, 3), repeat=2):
            for rows in product(menus, repeat=4):
                inst = SchedulingInstance(caps, m=4, d=2, mode=RESTRICTED, seed=seed, menus=rows)
                want = rlms_online(inst, order=inst.rank_order()).assign
                for j in range(inst.m):
                    got = _ask(inst, (LEFT, j), lambda c: rlms_local(inst, j, c))
                    assert got == want[j], (seed, caps, rows, j)


def test_standard_scheduling_on_every_instance_of_the_scope(monkeypatch):
    # 2 machines of capacity 1-3, 1-5 jobs and 1-3 slot choices (at most the
    # pool); the slot choices and tie-breaks are drawn from the seed, so the
    # scope takes seeds 0-39.  Both sizes of slot tie are hit, 2 and 3
    ties = set()
    first = scheduling.uniform_first

    def tie(word, n):
        ties.add(n)
        return first(word, n)

    monkeypatch.setattr(scheduling, "uniform_first", tie)
    for seed in range(40):
        for caps in product((1, 2, 3), repeat=2):
            for d, m in product(range(1, min(3, sum(caps)) + 1), range(1, 6)):
                inst = SchedulingInstance(caps, m=m, d=d, mode=STANDARD, seed=seed)
                want = slms_online(inst, order=inst.rank_order()).assign
                for j in range(inst.m):
                    got = _ask(inst, (LEFT, j), lambda c: slms_local(inst, j, c))
                    assert got == want[j], (seed, caps, d, m, j)
    assert ties == {2, 3}


def test_housing_on_every_instance_of_the_scope():
    # 3 agents, 3 houses, every ordered list of at most 2 houses, every
    # lottery in {1, 2, 3}^3, ties included
    for lists in product(_lists(3, 2), repeat=3):
        for ranks in product((1, 2, 3), repeat=3):
            inst = HousingInstance(lists, 3, ranks=ranks)
            want = rsd_global(inst)
            for a in range(inst.n):
                got = _ask(inst, (LEFT, a), lambda c: rsd_local(inst, a, c))
                assert got == want[a], (lists, ranks, a)
