"""Instance specs, the adjacency oracle, and probe accounting."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from localmech import auctions, randomness, scheduling
from localmech.auctions import UDUV, AuctionInstance, uduv_local, uduv_run
from localmech.instances import (
    FAMILIES,
    MAX_SIZE,
    InstanceSpec,
    build_instance,
    spec_from_json,
    spec_to_json,
)
from localmech.matching import MatchingInstance, default_rounds
from localmech.probes import (
    LEFT,
    RIGHT,
    AdjacencyOracle,
    MemoView,
    ProbeCounter,
    neighborhood,
    query_view,
    rank_tables,
    resolve,
    upward_closure,
)
from localmech.randomness import (
    RandomTape, derive_uniform, sample_without_replacement, uniform_rows, uniform_table
)
from localmech.rsd import HousingInstance, rsd_global, rsd_local
from localmech.scheduling import (
    RESTRICTED,
    STANDARD,
    SchedulingInstance,
    rlms_local,
    rlms_online,
    slms_local,
    slms_online,
)


def test_spec_json_round_trip():
    for family in FAMILIES:
        spec = InstanceSpec(seed=9, family=family, n=12, m=15, k=3)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec


def test_spec_json_round_trip_with_explicit_data():
    spec = InstanceSpec(
        seed=1,
        family="scheduling-res",
        n=3,
        m=5,
        k=2,
        values=(4, 8, 36),
        explicit_edges=((0, 1), (1, 2), (0, 2), (0, 1), (2,)),
    )
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_round_trip_with_values():
    # values travel under the family's own key; families without one refuse them
    for family, key in (
        ("scheduling-std", "bids"),
        ("scheduling-res", "bids"),
        ("udubv", "valuations"),
        ("ksmb", "valuations"),
    ):
        spec = InstanceSpec(seed=2, family=family, n=3, m=4, k=2, values=(5, 1, 7))
        text = spec_to_json(spec)
        assert json.loads(text)[key] == [5, 1, 7], family
        assert spec_from_json(text) == spec, family
        with pytest.raises(ValueError, match=f"{key} length must equal n"):
            InstanceSpec(seed=2, family=family, n=4, m=4, k=2, values=(5, 1, 7))
    for family in ("uduv", "matching", "housing"):
        with pytest.raises(ValueError, match="takes no values"):
            InstanceSpec(seed=2, family=family, n=3, m=4, k=2, values=(5, 1, 7))


def test_standard_slot_pool_is_capped():
    # explicit standard-mode capacities build one reverse record per slot,
    # so their sum is capped like n and m; seeded capacities stay small
    InstanceSpec(seed=0, family="scheduling-std", n=1, m=4, k=2, values=(MAX_SIZE,))
    with pytest.raises(ValueError, match=f"bids may sum to at most {MAX_SIZE}"):
        InstanceSpec(seed=0, family="scheduling-std", n=2, m=4, k=2, values=(MAX_SIZE, 1))
    InstanceSpec(seed=0, family="scheduling-res", n=2, m=4, k=2, values=(MAX_SIZE, 1))


@pytest.mark.parametrize("family,size", [("matching", "k"), ("uduv", "k"), ("housing", "d")])
def test_seeded_rows_name_the_size_key(family, size):
    spec = InstanceSpec(seed=0, family=family, n=3, m=4, k=5)
    with pytest.raises(ValueError, match=f"need 1 <= {size} <= m, got {size}=5, m=4"):
        build_instance(spec)


def test_spec_json_size_key_spelling():
    # scheduling and housing specs spell the size parameter "d", others "k"
    assert '"d"' in spec_to_json(InstanceSpec(seed=0, family="housing", n=4, m=4, k=2))
    assert '"k"' in spec_to_json(InstanceSpec(seed=0, family="uduv", n=4, m=4, k=2))
    with pytest.raises(ValueError):
        spec_from_json(json.dumps({"family": "uduv", "seed": 0, "n": 4, "k": 1, "d": 2}))
    # each family reads its own spelling only; the other is a foreign field
    for family, own, other in (("matching", "k", "d"), ("housing", "d", "k")):
        doc = {"family": family, "seed": 0, "n": 4, own: 2}
        assert spec_from_json(json.dumps(doc)).k == 2
        with pytest.raises(ValueError, match=f"takes no field '{other}'"):
            spec_from_json(json.dumps({"family": family, "seed": 0, "n": 4, other: 2}))


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, family="nope", n=1, m=1)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, family="uduv", n=-1, m=1)


def test_explicit_rows_give_one_row_per_entity():
    rows = ((0,), (1,), (2,))
    for family in ("matching", "uduv", "udubv", "ksmb", "housing"):
        with pytest.raises(ValueError, match="one row per entity"):
            InstanceSpec(seed=0, family=family, n=5, m=5, k=1, explicit_edges=rows)
        spec = InstanceSpec(seed=0, family=family, n=3, m=5, k=1, explicit_edges=rows)
        assert build_instance(spec).n == 3, family
    # restricted scheduling takes one menu per job; standard takes no rows
    with pytest.raises(ValueError, match="one row per entity"):
        InstanceSpec(seed=0, family="scheduling-res", n=3, m=5, k=1, explicit_edges=rows)
    spec = InstanceSpec(seed=0, family="scheduling-res", n=3, m=3, k=1, explicit_edges=rows)
    inst = build_instance(spec)
    assert [inst.oracle.fwd(j) for j in range(3)] == list(rows)
    with pytest.raises(ValueError, match="takes no explicit_edges"):
        InstanceSpec(seed=0, family="scheduling-std", n=3, m=3, k=1, explicit_edges=rows)


def test_restricted_spec_menus_hold_at_most_d_draws():
    # a seeded menu holds exactly d draws, so an explicit one may not hold
    # more; a repeat counts, and the record keeps the distinct machines
    with pytest.raises(ValueError, match="job 0 lists more than d=1 entries"):
        InstanceSpec(seed=0, family="scheduling-res", n=3, m=1, k=1, explicit_edges=((0, 1, 2),))
    for menu, record in (((0, 0), (0,)), ((2, 1), (1, 2))):
        spec = InstanceSpec(seed=0, family="scheduling-res", n=3, m=1, k=2, explicit_edges=(menu,))
        assert build_instance(spec).oracle.fwd(0) == record


_STD = SchedulingInstance((2, 3), m=6, d=2, mode=STANDARD, seed=1)
_RES = SchedulingInstance((2, 3), m=6, d=2, mode=RESTRICTED, seed=1)
_AUCTIONS = {
    mode: AuctionInstance([(0, 1), (1,), (0, 2)], m=3, mode=mode, values=values)
    for mode, values in ((UDUV, None), (auctions.UDUBV, (3, 2, 1)), (auctions.KSMB, (3, 2, 1)))
}

# (case, call, the word the refusal names): each call is made on an instance
# of the mode it does not serve
_WRONG_MODE = [
    ("slms_online", lambda: slms_online(_RES), "standard"),
    ("slms_local", lambda: slms_local(_RES, 0), "standard"),
    ("payment_slms_expected", lambda: scheduling.payment_slms_expected(_RES, 0), "standard"),
    ("payment_slms_sampled", lambda: scheduling.payment_slms_sampled(_RES, 0), "standard"),
    ("rlms_online", lambda: rlms_online(_STD), "restricted"),
    ("rlms_local", lambda: rlms_local(_STD, 0), "restricted"),
    ("greedy_unmodified", lambda: scheduling.greedy_unmodified(_STD), "restricted"),
    ("payment_rlms", lambda: scheduling.payment_rlms(_STD, 0), "restricted"),
    ("makespan_ratio", lambda: scheduling.makespan_ratio(_STD), "restricted"),
    ("monotonicity_trace", lambda: scheduling.monotonicity_trace(_STD, 0, 0, 2), "restricted"),
    *(
        (f"{call.__name__}-bid{bid}", partial(call, _STD, 0, bid, *more), "restricted")
        for bid in (0, 2)
        for call, more in (
            (scheduling.rerun_height, ()),
            (scheduling.payment_rlms_for_bid, ()),
            (scheduling.rlms_utility, (2,)),
        )
    ),
    *(
        (f"{mode}_{kind}-on-{other}", partial(call, _AUCTIONS[other]), mode)
        for mode, calls in (
            (UDUV, (uduv_run, lambda inst: uduv_local(inst, ("buyer", 0)))),
            (auctions.UDUBV, (auctions.udubv_run, lambda inst: auctions.udubv_local(inst, 0))),
            (auctions.KSMB, (auctions.ksmb_run, lambda inst: auctions.ksmb_local(inst, 0))),
        )
        for kind, call in zip(("run", "local"), calls)
        for other in _AUCTIONS
        if other != mode
    ),
]


@pytest.mark.parametrize("case, call, word", _WRONG_MODE, ids=[c[0] for c in _WRONG_MODE])
def test_every_mode_specific_call_refuses_the_other_mode(case, call, word):
    # a zero bid reruns nothing, so the rerun payments must refuse before any bid
    with pytest.raises(ValueError, match=word):
        call()


def test_build_instance_dispatch():
    for family in FAMILIES:
        inst = build_instance(InstanceSpec(seed=2, family=family, n=6, m=6, k=2))
        assert inst.n == 6


@pytest.mark.parametrize(
    "build, word",
    [
        (lambda: MatchingInstance([], -1), "got m=-1"),
        (lambda: AuctionInstance([], -1, UDUV), "got m=-1"),
        (lambda: HousingInstance([], -1), "got m=-1"),
        (lambda: SchedulingInstance((1,), -1, 1, mode=RESTRICTED), "got m=-1"),
        (lambda: SchedulingInstance((1,), -1, 1, mode=STANDARD), "got m=-1"),
    ],
    ids=["matching", "auction", "housing", "scheduling-res", "scheduling-std"],
)
def test_constructors_refuse_a_negative_size(build, word):
    # the spec refuses a negative size; the constructors used to build one
    with pytest.raises(ValueError, match=word):
        build()


def test_oracle_transpose_consistency():
    # forward and reverse views describe the same edge set
    inst = MatchingInstance.seeded(100, 3, 11)
    oracle = inst.oracle
    for i in range(100):
        for j in oracle.fwd(i):
            assert i in oracle.rev(j)
    for j in range(inst.m):
        for i in oracle.rev(j):
            assert j in oracle.fwd(i)


def test_an_empty_reverse_record_is_free_to_build():
    # a few ragged rows over 2^20 records: each touched record lists its left
    # ids in `order`'s order, every other record is (), and the build's memory
    # follows the entries, not the records (a list per record would take ~75 MB)
    m = 1 << 20
    rows = [(5, m // 2, 7), (), (m // 2, 3), (7,), (m - 2, 5, 1)]
    order = (3, 0, 4, 2, 1)
    tracemalloc.start()
    try:
        oracle = AdjacencyOracle(rows, m, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak
    touched = {j for row in rows for j in row}
    for j in touched:
        assert oracle.rev(j) == tuple(i for i in order if j in rows[i]), j
    for j in (0, m - 1, m // 4):
        assert oracle.rev(j) == (), j
    assert sum(1 for j in range(m) if oracle.rev(j)) == len(touched)


def test_oracle_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        AdjacencyOracle([(0, 5)], 3, range(1))
    oracle = AdjacencyOracle([(0, 1)], 2, range(1))
    with pytest.raises(ValueError):
        oracle.fwd(1)
    with pytest.raises(ValueError):
        oracle.rev(2)


def test_oracle_refuses_an_order_that_is_not_a_permutation():
    rows = [(0,), (0, 1), (1,)]
    for order in ((0, 1), (0, 1, 1), (0, 1, 3), (-1, 0, 1), (0, 1, 2, 3), range(2), range(1, 4)):
        with pytest.raises(ValueError, match="permutation of the 3 left ids"):
            AdjacencyOracle(rows, 2, order)
    oracle = AdjacencyOracle(rows, 2, (2, 0, 1))
    assert (oracle.rev(0), oracle.rev(1)) == ((0, 1), (2, 1))
    assert AdjacencyOracle([], 2, ()).rev(1) == ()


def test_probe_counting_memoizes_per_record():
    oracle = AdjacencyOracle([(0, 1), (1, 2)], 3, range(2))
    counter = ProbeCounter()
    view = MemoView(oracle, counter)
    alone = MemoView(oracle, None)  # keeps a read set of its own
    for v in (view, alone):
        v.fwd(0)
        v.fwd(0)
    assert counter.count == 1
    for v in (view, alone):
        v.rev(1)
        v.rev(1)
        v.fwd(1)
    assert counter.count == 3
    # each record once, and the view without a counter read the same ones
    assert counter.seen == alone._seen == {(LEFT, 0), (RIGHT, 1), (LEFT, 1)}


def test_probe_free_records_cost_nothing():
    oracle = AdjacencyOracle([(0, 1), (1, 2)], 3, range(2))
    counter = ProbeCounter()
    view = query_view(oracle, (LEFT, 0), counter, "man")
    assert counter.seen == {(LEFT, 0)}
    view.fwd(0)
    assert counter.count == 0
    view.fwd(1)
    assert counter.count == 1
    view.rev(2)
    view.rev(2)
    # the free record is in the read set, once, and left out of the count
    assert counter.seen == {(LEFT, 0), (LEFT, 1), (RIGHT, 2)}
    assert counter.count == 2
    # a record the shared counter has read already stays charged
    query_view(oracle, (LEFT, 1), counter, "man")
    assert counter.count == 2


def test_neighborhood_counts_every_record_including_root():
    #    0 - a - 1 - b - 2      (left 0,1,2 / right a=0, b=1)
    oracle = AdjacencyOracle([(0,), (0, 1), (1,)], 2, range(3))
    counter = ProbeCounter()
    ball = neighborhood(oracle, (LEFT, 0), 2, counter)
    assert ball == {(LEFT, 0), (RIGHT, 0), (LEFT, 1)}
    # reads: fwd(0), rev(0); left 1 is on the boundary and never expanded
    assert counter.count == 2
    counter = ProbeCounter()
    ball = neighborhood(oracle, (LEFT, 0), 4, counter)
    assert ball == {(LEFT, 0), (RIGHT, 0), (LEFT, 1), (RIGHT, 1), (LEFT, 2)}
    assert counter.count == 4


def test_neighborhood_validates_entity():
    oracle = AdjacencyOracle([(0,)], 1, range(1))
    with pytest.raises(ValueError):
        neighborhood(oracle, ("X", 0), 1)
    with pytest.raises(ValueError):
        neighborhood(oracle, (LEFT, 5), 1)


def test_neighborhood_scaling_on_sparse_lists():
    # radius-4 balls around sampled proposers stay tiny relative to n
    n = 10_000
    inst = MatchingInstance.seeded(n, 3, 4)
    sizes = []
    for v in range(0, n, n // 200):
        sizes.append(len(neighborhood(inst.oracle, (LEFT, v), 4)))
    sizes.sort()
    fitted_c = sizes[-1] / math.log(n)
    assert fitted_c < 60.0, (sizes[-1], fitted_c)
    assert sizes[len(sizes) // 2] <= 120


def _closure_rescanning_keys(seeds, key, out, back):
    """The upward closure as a set, calling `key` on every candidate scan."""
    stack = list(seeds)
    closure = set(stack)
    while stack:
        x = stack.pop()
        for r in out(x):
            for y in back(r):
                if y not in closure and key(y) < key(x):
                    closure.add(y)
                    stack.append(y)
    return closure


def test_upward_closure_walks_the_place_table():
    rng = random.Random(5)
    for _ in range(300):
        n, m = rng.randrange(1, 40), rng.randrange(1, 12)
        oracle = AdjacencyOracle(
            [rng.sample(range(m), rng.randrange(0, min(m, 4) + 1)) for _ in range(n)], m, range(n)
        )
        rank = [rng.randrange(8) for _ in range(n)]  # ties are common
        order, place = rank_tables(rank)
        assert list(order) == sorted(range(n), key=lambda x: (rank[x], x))
        seeds = rng.sample(range(n), rng.randrange(1, min(n, 3) + 1))
        got_probes, want_probes = ProbeCounter(), ProbeCounter()
        view = MemoView(oracle, got_probes)
        got = upward_closure(seeds, place, view.fwd, view.rev)
        view = MemoView(oracle, want_probes)
        want = _closure_rescanning_keys(seeds, lambda x: (rank[x], x), view.fwd, view.rev)
        assert got == sorted(want, key=lambda x: (rank[x], x))  # in replay order
        assert got_probes.count == want_probes.count


def test_resolve_stores_each_answer_once_on_an_explicit_stack():
    built: Counter[int] = Counter()
    stored: Counter[int] = Counter()
    memo: dict[int, int] = {}

    def frame(x: int):
        built[x] += 1
        return chain(x)

    def chain(x: int):
        # question x asks x-1, then x-2, which x-1's frame has stored by then
        if x < 2:
            return x
        below = yield x - 1
        assert (yield x - 2) == x - 2
        return below + 1

    def store(q: int, answer: int) -> None:
        stored[q] += 1
        memo[q] = answer

    assert resolve(7, frame, {7: -1}.get, store) == -1
    assert not built and not stored  # a known root builds no frame
    deep = sys.getrecursionlimit() + 50
    assert resolve(deep, frame, memo.get, store) == deep
    assert stored == Counter(range(deep + 1))  # every question stored, once
    assert built == stored
    built.clear()
    assert [resolve(q, frame, memo.get, store) for q in (deep, 3)] == [deep, 3]
    assert not built  # a second call over the same memo builds no frame

def test_restricted_menu_draw_frequency():
    # two capacity-proportional draws: machine i misses both with
    # probability (1 - c_i/48)^2, so machine 2 is on 15/16 of the menus
    caps = (4, 8, 36)
    spec = InstanceSpec(seed=3, family="scheduling-res", n=3, m=100_000, k=2, values=caps)
    inst = build_instance(spec)
    listed = Counter(i for j in range(inst.m) for i in inst.oracle.fwd(j))
    for i, c in enumerate(caps):
        freq = listed[i] / inst.m
        assert abs(freq - (1 - (1 - c / 48) ** 2)) < 0.01, (i, freq)


# SHA-256 of every seeded draw of an n=512 instance (see `_seeded_draws`),
# recorded from the unstemmed tape; a change to the tape or to a build key
# fails here by name
SEEDED_DIGESTS = {
    ("matching", 0): "9862197d4d4df26fcb70f6934c68ba26f19ca8a53dbcd59c518bad3e44220ede",
    ("matching", 1): "b609ec990b0b366fd4439e23337f09f8bed7b812230a8e51e5597c4134687c4d",
    ("scheduling-std", 0): "0b47bc01f47d30ca39fa4d3731c205d20659bb45a5e60d76d162d0b826970b0a",
    ("scheduling-std", 1): "7d7c6337768d830113565c78d988257b5059bc4248b3c1349e3fbd012ec21570",
    ("scheduling-res", 0): "f70581107db62dcaf43933ad4f8cbbaf66ab754a74ab3fee43662ac36045529e",
    ("scheduling-res", 1): "2c97405bd09b00c5cc9bbed92db86e2a5b4b0b0fbe8e8860b82a3642b7af76a2",
    ("uduv", 0): "1cf2dc53dd9cf76f7d563f758458ef6648dd5eb19cc6e3d5fd73e8e4674937a6",
    ("uduv", 1): "8f95fa337c73dd6fddb041b2b25a5203f39d475874884cfb387b4e07459917f0",
    # udubv and ksmb draw the same sets and values
    ("udubv", 0): "c08cf52015e8f4b1824590c487ae2b49548a0b31169b2428280e7b77a2f2e0b4",
    ("udubv", 1): "8e0479ed6e3367a8c8eb563abad4dd403a57831c18cf82a52751134768df15d8",
    ("ksmb", 0): "c08cf52015e8f4b1824590c487ae2b49548a0b31169b2428280e7b77a2f2e0b4",
    ("ksmb", 1): "8e0479ed6e3367a8c8eb563abad4dd403a57831c18cf82a52751134768df15d8",
    ("housing", 0): "9794ccf6c9249ba0f9ebaf44c61dbd22f1ead408bd91bf108552103e91913bd5",
    ("housing", 1): "108761adff8d16dd49c12927b091c14b866ba262b5812fe9f24d297a6379efb4",
}


def _seeded_draws(inst) -> list:
    """The forward records, the lottery numbers, caps, values and raw menu
    draws, the job rank order, the uduv item order and every listed matching
    priority.  The lottery and the menus are redrawn from the tape (the
    instance keeps neither), the menus mapped by the slot prefix sums."""
    draws = [[inst.oracle.fwd(i) for i in range(inst.oracle.n)]]
    if isinstance(inst, HousingInstance):
        draws.append(tuple(1 + v for v in uniform_table(inst.tape, "lottery", inst.n, inst.n**4)))
    if hasattr(inst, "caps"):
        draws.append(inst.caps)
    if hasattr(inst, "values"):
        # whole values are ints; hashed as Fractions, as they were first pinned
        draws.append(tuple(map(Fraction, inst.values)))
    if isinstance(inst, SchedulingInstance):
        if inst.mode == RESTRICTED:
            rows = uniform_rows(inst.tape, "menu", inst.m, inst.B, inst.d)
            draws.append([tuple(bisect_right(inst.slot_prefix, s) for s in r) for r in rows])
        draws.append(list(inst.order))
    if isinstance(inst, AuctionInstance) and inst.mode == UDUV:
        draws.append(list(inst.order))
    if isinstance(inst, MatchingInstance):
        prefs = inst.men_prefs
        draws.append([inst.priority_key(w, man) for man, lst in enumerate(prefs) for w in lst])
    return draws


def test_seeded_instances_are_pinned_bit_for_bit():
    got = {}
    for family, seed in SEEDED_DIGESTS:
        k = 3 if FAMILIES[family].size == "k" else 2
        inst = build_instance(InstanceSpec(seed=seed, family=family, n=512, m=512, k=k))
        got[family, seed] = hashlib.sha256(repr(_seeded_draws(inst)).encode()).hexdigest()
    assert got == SEEDED_DIGESTS


def test_seeded_builds_past_one_lane_block_equal_the_per_key_draws():
    # the table draws pack 4,096 entries a block; n = 2 blocks + 1 spans three
    n, seed = 2 * randomness._BLOCK + 1, 6
    t = RandomTape(seed)

    def rows(tag, count, span, k):
        return [tuple(sample_without_replacement(t, (tag, i), span, k)) for i in range(count)]

    def values(tag, count, span):
        return [1 + derive_uniform(t, (tag, i), span) for i in range(count)]

    def order(tag, count, sign):
        return sorted(range(count), key=lambda i: (sign * t.u64(tag, i), i))

    for family, fam in FAMILIES.items():
        k = 3 if fam.size == "k" else 2
        inst = build_instance(InstanceSpec(seed=seed, family=family, n=n, m=n, k=k))
        if family == "matching":
            assert list(inst.men_prefs) == rows("men-list", n, n, k)
        elif family == "housing":
            assert list(inst.lists) == rows("house-list", n, n, k)
            lottery = values("lottery", n, n**4)
            assert list(inst.order) == sorted(range(n), key=lambda a: (lottery[a], a))
        elif isinstance(inst, SchedulingInstance):
            assert list(inst.caps) == values("cap", n, n.bit_length() - 1)
            assert list(inst.order) == order("job-rank", n, 1)
            if inst.mode == STANDARD:
                chosen = [inst.oracle.fwd(j) for j in range(n)]
                assert chosen == rows("slot-choice", n, inst.B, k)
            else:
                menus = [
                    tuple(
                        bisect_right(inst.slot_prefix, derive_uniform(t, ("menu", j, s), inst.B))
                        for s in range(k)
                    )
                    for j in range(n)
                ]
                assert [inst.oracle.fwd(j) for j in range(n)] == [
                    tuple(sorted(set(mu))) for mu in menus
                ]
        else:
            assert list(inst.sets) == [tuple(sorted(r)) for r in rows("item-set", n, n, k)]
            if family == UDUV:
                assert list(inst.order) == order("item-rank", n, -1)
            else:
                assert list(inst.values) == values("value", n, 10**6)


class _TiedTape(RandomTape):
    """A tape whose job-rank and item-rank draws (tag, i) are i % 3, so most
    of them tie; every other draw is the real one."""

    def u64_table(self, tag, count):
        if tag in ("job-rank", "item-rank"):
            return [i % 3 for i in range(count)]
        return super().u64_table(tag, count)


def _uduv_item_order(inst) -> list[int]:
    """The order in which `uduv_run` hands out items, on an instance where
    every buyer reports every item: buyer b wins the b-th item handed out."""
    awards = uduv_run(inst).awards
    return [awards[b][0] for b in range(inst.m)]


def _assert_tables(inst, order):
    assert list(inst.order) == order
    assert list(inst.place) == sorted(range(len(order)), key=order.__getitem__)


def test_build_time_orders_break_ties_to_the_smaller_id(monkeypatch):
    # the tied draws reach the builds, which sort them once: jobs by rank,
    # items by descending score and agents by lottery number, each tie to
    # the smaller id; the global runs walk that order and the local
    # queries, which compare places, agree with them
    monkeypatch.setattr(scheduling, "RandomTape", _TiedTape)
    monkeypatch.setattr(auctions, "RandomTape", _TiedTape)
    for m in (0, 1, 2, 40):
        up = sorted(range(m), key=lambda j: (j % 3, j))
        down = sorted(range(m), key=lambda j: (-(j % 3), j))
        for seed in (0, 1):
            for mode in (STANDARD, RESTRICTED):
                sched = SchedulingInstance((2, 1), m=m, d=1, mode=mode, seed=seed)
                _assert_tables(sched, up)
                run, local = (
                    (slms_online, slms_local) if mode == STANDARD else (rlms_online, rlms_local)
                )
                alloc = run(sched, order=sched.rank_order())
                assert [local(sched, j) for j in range(m)] == list(alloc.assign)
            everyone = AuctionInstance([range(m)] * m, m, UDUV, seed=seed)
            _assert_tables(everyone, down)
            assert _uduv_item_order(everyone) == down
            winners = [uduv_local(everyone, ("item", j))["winner"] for j in range(m)]
            assert winners == [down.index(j) for j in range(m)]
        houses = HousingInstance([(0,)] * m, m=1, ranks=[j % 3 for j in range(m)])
        _assert_tables(houses, up)
        assert list(rsd_global(houses)) == up
        first_gets_the_house = [0 if a == up[0] else None for a in range(m)]
        assert [rsd_local(houses, a) for a in range(m)] == first_gets_the_house


def test_local_queries_draw_nothing(monkeypatch):
    # the seeded orders, keys, slot tie-breaks and oracles are build-time
    # tables: no local query of any family draws from the tape
    insts = {
        family: build_instance(InstanceSpec(seed=4, family=family, n=300, m=300, k=2))
        for family in FAMILIES
    }
    drawn: list[tuple] = []
    state = RandomTape._state

    def counted(tape, key):
        drawn.append(key)
        return state(tape, key)

    monkeypatch.setattr(RandomTape, "_state", counted)
    for family, inst in insts.items():
        for kind in FAMILIES[family].queries:
            for e in range(getattr(inst, kind.side)):
                kind.local(inst, default_rounds(2), e, None)
            assert drawn == [], (family, kind.entity, drawn[:3])


@pytest.mark.parametrize(
    "patch",
    [
        {"seed": [1]},
        {"seed": 1.7},
        {"n": None},
        {"n": True},
        {"m": "3"},
        {"k": {"a": 1}},
        {"bids": 7},
        {"bids": [1, [2]]},
        {"explicit_edges": [1, 2, 0]},
        {"explicit_edges": [[0], [[1]]]},
        {"explicit_edges": "01"},
        {"family": [1]},
        {"family": {"a": 1}},
    ],
)
def test_spec_from_json_rejects_wrong_types(patch):
    doc = {"family": "scheduling-res", "seed": 0, "n": 2, "m": 3, "d": 1, **patch}
    with pytest.raises(ValueError):
        spec_from_json(json.dumps(doc))
