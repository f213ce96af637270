"""Property tests for the local queries (housing, scheduling, auctions,
matching): on small adversarial instances every local answer equals the
global run's, and a rank-order query never charges more probes than there
are records reachable from the queried entity."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localmech.auctions import (
    AuctionInstance,
    ksmb_local,
    ksmb_run,
    udubv_local,
    udubv_run,
    uduv_local,
    uduv_run,
)
from localmech.matching import (
    MATCHED,
    UNMATCHED_STATUS,
    ManStatus,
    MatchingInstance,
    abridged_gs,
    local_ags,
    local_ags_woman,
)
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, ProbeCounter, neighborhood
from localmech.rsd import HousingInstance, rsd_global, rsd_local
from localmech.scheduling import (
    RESTRICTED,
    STANDARD,
    SchedulingInstance,
    _expected_slot_payment,
    rlms_local,
    rlms_online,
    slms_local,
    slms_online,
)

PROPERTY = settings(max_examples=400, deadline=None)
seeds = st.integers(0, 2**32)


def _reachable(oracle: AdjacencyOracle, entity) -> set:
    """Records in the query's connected component, the query's own included."""
    return neighborhood(oracle, entity, oracle.n + oracle.m + 1)


def _item_lists(draw, n: int, m: int, max_size: int, min_size: int = 0, unique: bool = False):
    return [
        draw(st.lists(st.integers(0, m - 1), min_size=min_size, max_size=max_size, unique=unique))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# housing
# ---------------------------------------------------------------------------


@st.composite
def housing_instances(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(1, 6))
    lists = _item_lists(draw, n, m, max_size=4, unique=True)  # empty lists included
    # lottery numbers from a tiny range, so equal numbers are common
    ranks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return HousingInstance(lists, m, ranks=ranks)


@PROPERTY
@given(housing_instances())
def test_housing_local_matches_global(inst):
    alloc = rsd_global(inst)
    assert sorted(alloc) == list(range(inst.n))
    for a in range(inst.n):
        counter = ProbeCounter()
        assert rsd_local(inst, a, counter) == alloc[a]
        assert counter.seen <= _reachable(inst.oracle, (LEFT, a))


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


@st.composite
def restricted_instances(draw):
    machines = draw(st.integers(1, 4))
    jobs = draw(st.integers(0, 8))
    caps = draw(st.lists(st.integers(1, 3), min_size=machines, max_size=machines))
    # menus repeat machines freely; the allocator must count each one once
    menus = _item_lists(draw, jobs, machines, max_size=4, min_size=1)
    return SchedulingInstance(caps, m=jobs, d=2, mode=RESTRICTED, seed=draw(seeds), menus=menus)


@st.composite
def standard_instances(draw):
    caps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    jobs = draw(st.integers(0, 8))
    d = draw(st.integers(1, min(3, sum(caps))))
    return SchedulingInstance(caps, m=jobs, d=d, mode=STANDARD, seed=draw(seeds))


@PROPERTY
@given(restricted_instances())
def test_restricted_scheduling_local_matches_global(inst):
    alloc = rlms_online(inst, order=inst.rank_order())
    for j in range(inst.m):
        counter = ProbeCounter()
        assert rlms_local(inst, j, counter) == alloc.assign[j]
        assert alloc.assign[j] in inst.menu(j)
        assert counter.seen <= _reachable(inst.oracle, (LEFT, j))


@PROPERTY
@given(standard_instances())
def test_standard_scheduling_local_matches_global(inst):
    alloc = slms_online(inst, order=inst.rank_order())
    for j in range(inst.m):
        counter = ProbeCounter()
        assert slms_local(inst, j, counter) == alloc.assign[j]
        assert counter.seen <= _reachable(inst.oracle, (LEFT, j))


@PROPERTY
@given(st.integers(1, 300), st.integers(0, 60), st.integers(0, 50))
@example(1, 0, 1)
@example(300, 0, 7)
def test_expected_payment_equals_the_sequential_sum(b, B_minus, m):
    # the pairwise-merged sum against the terms added one Fraction at a time
    terms = sum((Fraction(x, B_minus + x) for x in range(1, b + 1)), Fraction(0))
    want = Fraction(m * b * b, B_minus + b) + m * terms
    assert _expected_slot_payment(b, B_minus, m) == want


# ---------------------------------------------------------------------------
# auctions
# ---------------------------------------------------------------------------


@st.composite
def uduv_cases(draw):
    n = draw(st.integers(0, 7))
    m = draw(st.integers(1, 6))
    inst = AuctionInstance(_item_lists(draw, n, m, max_size=3), m, "uduv", seed=draw(seeds))
    overlay = None
    if n and draw(st.booleans()):
        liars = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        overlay = {b: _item_lists(draw, 1, m, max_size=3)[0] for b in liars}
    return inst, overlay


def _union_oracle(inst: AuctionInstance, overlay: dict | None) -> AdjacencyOracle:
    """True and reported sets together: every record a query may follow."""
    union = [set(s) | set((overlay or {}).get(b, s)) for b, s in enumerate(inst.sets)]
    return AdjacencyOracle(union, inst.m, range(inst.n))


def _rebuilt(inst: AuctionInstance, overlay: dict | None) -> AuctionInstance:
    """The instance built with the overlay's reports as its data, whose
    global run is the run under the reports: a uduv buyer reports her set,
    a udubv or ksmb buyer her bid."""
    overlay = overlay or {}
    if inst.mode == "uduv":
        sets = [overlay.get(b, s) for b, s in enumerate(inst.sets)]
        return AuctionInstance(sets, inst.m, "uduv", seed=inst.seed)
    values = [overlay.get(b, v) for b, v in enumerate(inst.values)]
    return AuctionInstance(inst.sets, inst.m, inst.mode, values=values, seed=inst.seed)


@PROPERTY
@given(uduv_cases())
def test_uduv_local_matches_global(case):
    inst, overlay = case
    out = uduv_run(_rebuilt(inst, overlay))
    reach = _union_oracle(inst, overlay)
    for b in range(inst.n):
        counter = ProbeCounter()
        got = uduv_local(inst, ("buyer", b), counter, overlay)
        assert (got["award"], got["payment"]) == (out.awards[b], out.payments[b])
        assert counter.seen <= _reachable(reach, (LEFT, b))
    winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
    for j in range(inst.m):
        counter = ProbeCounter()
        assert uduv_local(inst, ("item", j), counter, overlay)["winner"] == winner_of.get(j)
        assert counter.seen <= _reachable(reach, (RIGHT, j))


@st.composite
def bid_cases(draw):
    mode = draw(st.sampled_from(["udubv", "ksmb"]))
    n = draw(st.integers(0, 7))
    m = draw(st.integers(1, 6))
    # values from a tiny range: zero bids and ties are common
    values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    inst = AuctionInstance(_item_lists(draw, n, m, max_size=3), m, mode, values=values)
    overlay = None
    if n and draw(st.booleans()):
        # 1 to n reporters, some of them reporting their true bid, so a
        # record can list several moved buyers or a reporter who stays put
        reporters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        halves = st.integers(0, 6).map(lambda x: Fraction(x, 2))
        overlay = {b: draw(st.one_of(st.just(values[b]), halves)) for b in reporters}
    return inst, overlay


@PROPERTY
@given(bid_cases())
def test_bid_ordered_local_matches_global(case):
    inst, overlay = case
    run, local = (udubv_run, udubv_local) if inst.mode == "udubv" else (ksmb_run, ksmb_local)
    out = run(_rebuilt(inst, overlay))
    for b in range(inst.n):
        counter = ProbeCounter()
        got = local(inst, b, counter, overlay)
        assert (got["award"], got["payment"]) == (out.awards[b], out.payments[b])
        assert counter.seen <= _reachable(inst.oracle, (LEFT, b))


# mode -> local query of a ("buyer", b) or ("item", j) pair; udubv and ksmb
# answer buyers only
_AUCTION_QUERIES = {
    "uduv": uduv_local,
    "udubv": lambda inst, q, c, ov: udubv_local(inst, q[1], c, ov),
    "ksmb": lambda inst, q, c, ov: ksmb_local(inst, q[1], c, ov),
}
_AUCTION_RUNS = {"uduv": uduv_run, "udubv": udubv_run, "ksmb": ksmb_run}


@PROPERTY
@given(st.one_of(uduv_cases(), bid_cases()).filter(lambda case: case[1] is not None))
def test_overlaid_query_equals_the_query_on_the_rebuilt_instance(case):
    # every local query under a report overlay answers as the same query on,
    # and the global run of, the instance built with the reports; when the
    # queried buyer is the only reporter, both read the same records
    inst, overlay = case
    moved = _rebuilt(inst, overlay)
    local, out = _AUCTION_QUERIES[inst.mode], _AUCTION_RUNS[inst.mode](moved)
    reporters = set(overlay)
    winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
    queries = [("buyer", b) for b in range(inst.n)]
    if inst.mode == "uduv":
        queries += [("item", j) for j in range(inst.m)]
    for kind, e in queries:
        overlaid, rebuilt = ProbeCounter(), ProbeCounter()
        got = local(inst, (kind, e), overlaid, overlay)
        assert got == local(moved, (kind, e), rebuilt, None), (kind, e)
        if kind == "item":
            assert got["winner"] == winner_of.get(e), e
            continue
        assert (got["award"], got["payment"]) == (out.awards[e], out.payments[e]), e
        if reporters == {e}:
            assert overlaid.seen == rebuilt.seen, e


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


@st.composite
def ranked_matching_instances(draw):
    n = draw(st.integers(0, 7))
    m = draw(st.integers(1, 5))
    men = _item_lists(draw, n, m, max_size=4, unique=True)  # empty lists included
    # each woman ranks a prefix of a permutation of the men, best first; the
    # men she leaves out tie at -1 and the smaller id wins among them
    women = []
    for _ in range(m):
        order = draw(st.permutations(range(n)))
        women.append(order[: draw(st.integers(0, n))])
    return MatchingInstance(men, m, women_prefs=women)


@settings(max_examples=150, deadline=None)
@given(ranked_matching_instances())
def test_matching_local_matches_global_with_explicit_rankings(inst):
    for rounds in range(1, 51):
        statuses, _ = abridged_gs(inst, rounds)
        holder = {s.partner: man for man, s in statuses.items() if s.state == MATCHED}
        for man in range(inst.n):
            assert local_ags(inst, rounds, man) == statuses[man], (rounds, man)
        for w in range(inst.m):
            want = ManStatus.matched(holder[w]) if w in holder else UNMATCHED_STATUS
            assert local_ags_woman(inst, rounds, w) == want, (rounds, w)


# ---------------------------------------------------------------------------
# empty instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["uduv", "udubv", "ksmb"])
def test_empty_auctions(mode):
    inst = AuctionInstance([], 2, mode, values=[] if mode != "uduv" else None)
    run = {"uduv": uduv_run, "udubv": udubv_run, "ksmb": ksmb_run}[mode]
    assert run(inst).awards == {}
    with pytest.raises(ValueError):
        if mode == "uduv":
            uduv_local(inst, ("buyer", 0))
        else:
            (udubv_local if mode == "udubv" else ksmb_local)(inst, 0)
    if mode == "uduv":
        assert uduv_local(inst, ("item", 1))["winner"] is None


def test_empty_housing_and_scheduling():
    houses = HousingInstance([], 3)
    assert rsd_global(houses) == {}
    with pytest.raises(ValueError):
        rsd_local(houses, 0)
    for mode in (RESTRICTED, STANDARD):
        inst = SchedulingInstance((1, 2), m=0, d=1, mode=mode)
        local = rlms_local if mode == RESTRICTED else slms_local
        assert (rlms_online if mode == RESTRICTED else slms_online)(inst).assign == ()
        with pytest.raises(ValueError):
            local(inst, 0)
