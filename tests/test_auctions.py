"""Greedy auctions: outcomes, critical payments, audits, local queries."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmech import auctions
from localmech.auctions import (
    _BID_RULES,
    _critical,
    _positive_prefix,
    AuctionInstance,
    ksmb_local,
    ksmb_run,
    truthfulness_audit,
    udubv_local,
    udubv_run,
    uduv_local,
    uduv_run,
)
from localmech.instances import InstanceSpec, build_instance
from localmech.oracles import max_matching, max_weight_matching, optimal_packing
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, ProbeCounter, query_view, upward_closure

F = Fraction
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


def _uduv(sets, m):
    return AuctionInstance(sets=sets, m=m, mode="uduv")


def _udubv(sets, values, m):
    return AuctionInstance(sets=sets, m=m, mode="udubv", values=values)


def _ksmb(sets, values, m, k):
    return AuctionInstance(sets=sets, m=m, mode="ksmb", values=values, k=k)


# ---------------------------------------------------------------------------
# fixed examples
# ---------------------------------------------------------------------------


def test_uduv_every_winner_pays_half():
    inst = _uduv([(0, 1), (1,), (0,)], 2)
    out = uduv_run(inst)
    for b in range(3):
        if out.awards[b]:
            assert out.payments[b] == F(1, 2)
            assert auctions._utility(inst, b, uduv_local(inst, ("buyer", b))) == F(1, 2)
        else:
            assert out.payments[b] == F(0)


def test_uduv_win_on_a_false_report_has_utility_minus_half():
    # buyer 0 wants item 0 but reports item 1, which she takes from buyer 1
    # as the smaller id: she pays 1/2 for an item worth 0 to her
    inst = _uduv([(0,), (1,)], 2)
    overlay = {0: (1,)}
    out = uduv_run(_uduv([(1,), (1,)], 2))  # the instance built with her report
    assert out.awards == {0: (1,), 1: ()}
    assert out.payments == {0: F(1, 2), 1: F(0)}
    got = uduv_local(inst, ("buyer", 0), overlay=overlay)
    assert (got["award"], got["payment"]) == ((1,), F(1, 2))
    assert auctions._utility(inst, 0, got) == F(-1, 2)


def _uduv_run_per_buyer(inst, sets):
    """uduv's outcome under the reported `sets` computed buyer by buyer:
    items by descending score (ties to the smaller item), each to the
    smallest-id unserved buyer reporting it; a winner pays 1/2 and values
    her item 1 if it is in her true set, else 0."""
    awards = {b: () for b in range(inst.n)}
    for j in sorted(range(inst.m), key=lambda j: (-inst.tape.u64("item-rank", j), j)):
        b = next((b for b in range(inst.n) if j in sets[b] and not awards[b]), None)
        if b is not None:
            awards[b] = (j,)
    payments = {b: F(1, 2) if awards[b] else F(0) for b in range(inst.n)}
    values = {b: F(int(any(j in inst.sets[b] for j in awards[b]))) for b in range(inst.n)}
    return awards, payments, {b: values[b] - payments[b] for b in range(inst.n)}


def test_uduv_run_matches_the_per_buyer_formula():
    # the run of the instance built with the reports (same seed, so the same
    # item scores) gives the formula's awards and payments, and `_utility`
    # of each buyer's answer there, against her true set, its utilities
    rng = random.Random(15)
    false_wins = 0
    for seed in range(2):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=512, m=512, k=3))
        overlays = [None]
        for count in (64, 64, inst.n):  # the last overlay has every buyer lie
            liars = rng.sample(range(inst.n), count)
            sets = {b: rng.sample(range(inst.m), rng.randrange(4)) for b in liars}
            overlays.append(sets)
        for overlay in overlays:
            sets = [(overlay or {}).get(b, s) for b, s in enumerate(inst.sets)]
            awards, payments, utilities = _uduv_run_per_buyer(inst, sets)
            out = uduv_run(AuctionInstance(sets, inst.m, "uduv", seed=inst.seed))
            assert (out.awards, out.payments) == (awards, payments)
            for b in range(inst.n):
                got = {"award": out.awards[b], "payment": out.payments[b]}
                assert auctions._utility(inst, b, got) == utilities[b], b
            false_wins += sum(u == F(-1, 2) for u in utilities.values())
    assert false_wins  # some liar won an item outside her true set


def test_udubv_higher_bid_wins_pays_rival():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    out = udubv_run(inst)
    assert out.awards[0] == (0,)
    assert out.awards[1] == ()
    assert out.payments[0] == F(3)
    assert auctions._utility(inst, 0, udubv_local(inst, 0)) == F(2)


def test_udubv_uncontested_item_is_free():
    inst = _udubv([(0,), (1,)], values=(5, 3), m=2)
    out = udubv_run(inst)
    assert out.payments == {0: F(0), 1: F(0)}


def test_ksmb_three_buyer_example():
    inst = _ksmb([(1, 2), (2, 3), (3,)], values=(10, 6, 4), m=4, k=2)
    out = ksmb_run(inst)
    assert out.awards[0] == (1, 2)
    assert out.awards[1] == ()
    assert out.awards[2] == (3,)
    assert out.payments[0] == F(6)
    assert out.payments[2] == F(0)


def test_local_payment_at_a_top_bid_is_the_critical_bid():
    # a buyer's critical bid depends on the other bids only, so her local
    # payment at a bid above every value is it, for losers as for winners
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    assert udubv_local(inst, 1, overlay={1: F(6)})["payment"] == F(5)
    for family, local in (("udubv", udubv_local), ("ksmb", ksmb_local)):
        for seed in range(2):
            inst = build_instance(InstanceSpec(seed=seed, family=family, n=512, m=512, k=3))
            top = max(inst.values) + 1
            for b in range(inst.n):
                got = local(inst, b, overlay={b: top})
                assert got["payment"] == _critical(inst, b), (family, seed, b)


def test_public_sets_cannot_be_overlaid():
    # a udubv or ksmb buyer reports a bid; a reported set is no bid, so it
    # raises (as any report that is not a number does), never ignored
    for inst, local in (
        (_udubv([(0,), (0,)], values=(5, 3), m=1), udubv_local),
        (_ksmb([(0,), (0,)], values=(2, 0), m=1, k=1), ksmb_local),
    ):
        for buyer in (0, 1):
            with pytest.raises(TypeError):
                local(inst, buyer, overlay={0: (0,)})


def test_uduv_bids_cannot_be_overlaid():
    # every uduv value is 1 and a buyer reports a set; a reported bid is no
    # set, so it raises (as any report that is not iterable does), never ignored
    inst = _uduv([(0,), (0, 1)], 2)
    for bid in (F(3), F(-3), 3):
        for query in (("buyer", 0), ("buyer", 1), ("item", 0), ("item", 1)):
            with pytest.raises(TypeError):
                uduv_local(inst, query, overlay={0: bid})
    # nor are values given to the constructor
    with pytest.raises(ValueError, match="uduv takes no values"):
        AuctionInstance([(0,), (0, 1)], 2, "uduv", values=(5, 7))
    # nor are values given to the constructor
    with pytest.raises(ValueError, match="uduv takes no values"):
        AuctionInstance([(0,), (0, 1)], 2, "uduv", values=(5, 7))


def test_sets_longer_than_k_are_refused():
    # a 3-item set under k=1 would escape the uduv audit's reports of at
    # most k+1 items
    for mode, values in (("uduv", None), ("udubv", (1,)), ("ksmb", (1,))):
        with pytest.raises(ValueError, match="buyer 0 lists more than k=1 entries"):
            AuctionInstance([(0, 1, 2)], 3, mode, values=values, k=1)
        assert AuctionInstance([(0, 1, 2)], 3, mode, values=values).k == 3


def test_the_first_set_longer_than_k_is_named():
    # buyers 1 and 3 pass k, and the width check of every set comes before
    # the oracle's once rule, which would refuse buyer 0's repeated item
    sets = [(0, 0), (0, 1, 2), (2,), (0, 1, 2, 3)]
    with pytest.raises(ValueError, match="^buyer 1 lists more than k=2 entries$"):
        AuctionInstance(sets, 4, "ksmb", values=(1, 1, 1, 1), k=2)


def test_negative_bids_rejected():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    for buyer in (0, 1):
        with pytest.raises(ValueError, match="^bids must be non-negative$"):
            udubv_local(inst, buyer, overlay={0: F(-1)})


def test_overlays_naming_unknown_buyers_or_items_are_rejected():
    # every local query reads reports through one checked path
    uduv = build_instance(InstanceSpec(seed=0, family="uduv", n=6, m=5, k=2))
    for overlay in ({0: (-1,)}, {0: (uduv.m,)}, {9: (0,)}):
        for query in (("buyer", 0), ("item", 0)):
            with pytest.raises(ValueError):
                uduv_local(uduv, query, overlay=overlay)
    udubv = build_instance(InstanceSpec(seed=0, family="udubv", n=6, m=5, k=2))
    for buyer in (-1, udubv.n):
        with pytest.raises(ValueError):
            udubv_local(udubv, 0, overlay={buyer: F(7)})


# ---------------------------------------------------------------------------
# critical payments
# ---------------------------------------------------------------------------


def _reported(inst, overlay):
    """The udubv or ksmb instance built with the overlay's bids as its
    values, whose global run is the run under the reports."""
    values = [(overlay or {}).get(b, v) for b, v in enumerate(inst.values)]
    return AuctionInstance(inst.sets, inst.m, inst.mode, values=values, k=inst.k)


def _check_win_threshold(family, run):
    # a winner re-bidding just above her payment still wins, just below loses
    eps = F(1, 1000)
    for seed in range(12):
        inst = build_instance(InstanceSpec(seed=seed, family=family, n=8, m=8, k=2))
        out = run(inst)
        for b in range(inst.n):
            if not out.awards[b]:
                continue
            p = out.payments[b]
            assert run(_reported(inst, {b: p + eps})).awards[b], (seed, b)
            if p > 0:
                assert not run(_reported(inst, {b: p - eps})).awards[b], b


def test_critical_bid_is_the_win_threshold():
    _check_win_threshold("udubv", udubv_run)


def test_ksmb_critical_bid_is_the_win_threshold():
    _check_win_threshold("ksmb", ksmb_run)


def test_payment_replay_hands_the_price_rule_the_rerun_holders(monkeypatch):
    # A winner's price is read off the holders of her items in the run
    # without her, and a price can hide a wrong holder (ksmb pays the best
    # of them), so every award the price scan resolves is compared with a
    # full rerun: a rival it finds holding an item of hers is that item's
    # holder there.  The scan skips the holders that cannot move her price,
    # so each price is checked against `_critical` as well.
    # In the fixed example, without buyer 0, buyer 1 takes item 2 from
    # buyer 2, who so loses item 3 to buyer 3, a holder of buyer 0's item 1;
    # buyer 3 bids 7, under buyer 1's 9 on item 0, so the scan leaves him be.
    rng = random.Random(26)
    cases = [_ksmb([(0, 1), (0, 2), (2, 3), (1, 3)], values=(10, 9, 8, 7), m=4, k=2)]
    for _ in range(300):
        n, m = rng.randrange(1, 13), rng.randrange(1, 8)
        sets = [rng.sample(range(m), rng.randrange(min(m, 3) + 1)) for _ in range(n)]
        values = [rng.randrange(6) for _ in range(n)]
        cases.append(AuctionInstance(sets, m, rng.choice(["udubv", "ksmb"]), values=values))
    priced, resolve = [], auctions.resolve

    def tree_price(mode, i, *rest):
        priced.append((i, []))
        return price(mode, i, *rest)

    def recorded(z, *rest):
        got = resolve(z, *rest)
        priced[-1][1].append((z, got))
        return got

    price = auctions._tree_price
    monkeypatch.setattr(auctions, "_tree_price", tree_price)
    monkeypatch.setattr(auctions, "resolve", recorded)
    found = 0
    for inst in cases:
        priced.clear()
        out = _BID_PAIRS[inst.mode][0](inst)
        awards = _BID_RULES[inst.mode][0]
        order = _positive_prefix(inst.order, inst.values)
        winners = [b for b in range(inst.n) if out.awards[b]]
        assert [i for i, _ in priced] == winners
        for i, resolved in priced:
            rerun = awards((b for b in order if b != i), inst.sets.__getitem__)
            holder = {j: h for h, award in rerun.items() for j in award}
            for z, got in resolved:
                assert got == rerun.get(z, ()), (inst.sets, inst.values, i, z)
                for j in set(got) & set(inst.sets[i]):
                    assert holder[j] == z, (inst.sets, inst.values, i, j)
                    found += 1
            assert out.payments[i] == _critical(inst, i), (inst.sets, inst.values, i)
    assert found
    priced.clear()
    ksmb_run(cases[0])
    assert priced[0] == (0, [(1, (0, 2))])


# ---------------------------------------------------------------------------
# truthfulness audits
# ---------------------------------------------------------------------------


def test_uduv_audit_exhaustive_reports():
    for seed in range(8):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=5, m=8, k=2))
        assert truthfulness_audit(inst) == []


def test_uduv_audit_caps_subset_enumeration():
    inst = build_instance(InstanceSpec(seed=0, family="uduv", n=3, m=13, k=2))
    with pytest.raises(ValueError):
        truthfulness_audit(inst)


def test_bid_audits_find_nothing():
    for family in ("udubv", "ksmb"):
        for seed in range(8):
            inst = build_instance(InstanceSpec(seed=seed, family=family, n=5, m=6, k=2))
            assert truthfulness_audit(inst) == [], (family, seed)


def test_audit_asks_no_global_runner(monkeypatch):
    # the audit checks the served local queries, not a global rerun
    def refuse(*args, **kwargs):
        raise AssertionError("the audit ran a global auction")

    for runner in ("uduv_run", "udubv_run", "ksmb_run"):
        monkeypatch.setattr(auctions, runner, refuse)
    for family, m in (("uduv", 8), ("udubv", 6), ("ksmb", 6)):
        inst = build_instance(InstanceSpec(seed=3, family=family, n=5, m=m, k=2))
        assert truthfulness_audit(inst) == [], family


def test_audit_catches_a_broken_payment_rule(monkeypatch):
    # with payments forced to zero, overbidding a lost contest becomes strictly
    # profitable, and the audit must say so
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    kinst = _ksmb([(0,), (0,)], values=(10, 3), m=1, k=1)
    assert truthfulness_audit(inst) == []
    assert truthfulness_audit(kinst) == []
    utility = auctions._utility
    monkeypatch.setattr(
        auctions, "_utility", lambda auc, buyer, got: utility(auc, buyer, {**got, "payment": 0})
    )
    broken = truthfulness_audit(inst)
    assert any(v.buyer == 1 for v in broken)
    v = next(v for v in broken if v.buyer == 1)
    assert v.utility_deviation > v.utility_truth
    # a loser whose critical bid is above twice her value wins only at p + ε
    broken = truthfulness_audit(kinst)
    assert [(v.buyer, v.report) for v in broken] == [(1, "bid=10001/1000")]


# ---------------------------------------------------------------------------
# approximation ratios against exact oracles
# ---------------------------------------------------------------------------


def test_uduv_matches_at_least_half_of_optimal():
    for seed in range(10):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=30, m=30, k=3))
        out = uduv_run(inst)
        got = sum(1 for jt in out.awards.values() if jt)
        best = max_matching(inst.sets, inst.m)
        assert 2 * got >= best, (seed, got, best)


def test_udubv_welfare_at_least_half_of_optimal():
    for seed in range(10):
        inst = build_instance(InstanceSpec(seed=seed, family="udubv", n=10, m=10, k=2))
        out = udubv_run(inst)
        got = sum(inst.values[b] for b in range(inst.n) if out.awards[b])
        weights = [
            [inst.values[b] if j in inst.sets[b] else 0 for j in range(inst.m)]
            for b in range(inst.n)
        ]
        best = max_weight_matching(weights)
        assert 2 * got >= best, (seed, got, best)


def test_ksmb_welfare_at_least_one_over_k_of_optimal():
    for k in (2, 3):
        for seed in range(10):
            inst = build_instance(InstanceSpec(seed=seed, family="ksmb", n=12, m=12, k=k))
            out = ksmb_run(inst)
            got = sum(inst.values[b] for b in range(inst.n) if out.awards[b])
            best = optimal_packing(inst.sets, inst.values)
            assert k * got >= best, (k, seed, got, best)


# ---------------------------------------------------------------------------
# local queries
# ---------------------------------------------------------------------------


def test_uduv_local_matches_global_and_item_view():
    inst = build_instance(InstanceSpec(seed=4, family="uduv", n=300, m=300, k=3))
    out = uduv_run(inst)
    winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
    for b in range(inst.n):
        got = uduv_local(inst, ("buyer", b))
        assert got["award"] == out.awards[b]
        assert got["payment"] == out.payments[b]
    for j in range(inst.m):
        assert uduv_local(inst, ("item", j))["winner"] == winner_of.get(j)


def test_uduv_isolated_buyer_needs_few_probes():
    inst = _uduv([(0,), (1, 2), (1, 2)], 3)
    counter = ProbeCounter()
    got = uduv_local(inst, ("buyer", 0), counter)
    assert got["award"] == (0,)
    assert counter.count <= 1  # own record free; one reverse read of item 0


def test_uduv_item_query_gets_its_own_record_free():
    # like every other query kind, an item query reads its own record and
    # does not pay for it
    for seed in range(4):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=40, m=30, k=2))
        for j in range(inst.m):
            counter = ProbeCounter()
            uduv_local(inst, ("item", j), counter)
            assert (RIGHT, j) in counter.seen, (seed, j)
            assert counter.count == len(counter.seen) - 1, (seed, j)


def test_greedy_locals_match_global():
    for family, runner, local in [("udubv", udubv_run, udubv_local), ("ksmb", ksmb_run, ksmb_local)]:
        inst = build_instance(InstanceSpec(seed=6, family=family, n=200, m=200, k=2))
        out = runner(inst)
        for b in range(inst.n):
            got = local(inst, b)
            assert got["award"] == out.awards[b], (family, b)
            assert got["payment"] == out.payments[b], (family, b)


def test_local_query_validation():
    inst = _uduv([(0,)], 1)
    with pytest.raises(ValueError):
        uduv_local(inst, ("buyer", 5))
    with pytest.raises(ValueError):
        uduv_local(inst, ("thing", 0))


# ---------------------------------------------------------------------------
# the udubv/ksmb query tree against closure-and-replay
# ---------------------------------------------------------------------------


def _closure_replay(inst, overlay=None):
    """Reference buyer query `(buyer, counter) -> answer`: replay the whole
    upward closure by bid, then, for a winner, the whole closure of her
    rivals without her.  Buyers are keyed by their place in bid order, which
    orders them as (-bid, id) does; places and signs of bids are computed
    once for all queries."""
    bids = list(inst.values)
    for b, v in (overlay or {}).items():
        bids[b] = Fraction(v)
    place = [0] * inst.n
    for i, b in enumerate(sorted(range(inst.n), key=lambda b: (-bids[b], b))):
        place[b] = i
    bidding = [v > 0 for v in bids]
    awards, price = _BID_RULES[inst.mode]

    def query(buyer, counter):
        view = query_view(inst.oracle, (LEFT, buyer), counter, "buyer")
        closure = upward_closure((buyer,), place, view.fwd, view.rev) if bidding[buyer] else ()
        won = awards((b for b in closure if bidding[b]), view.fwd)
        award = won.get(buyer, ())
        if not award:
            return {"buyer": buyer, "award": (), "payment": Fraction(0)}
        mine = view.fwd(buyer)
        seeds = {y for j in mine for y in view.rev(j) if y != buyer and bidding[y]}
        rivals = upward_closure(seeds, place, view.fwd, view.rev)
        won = awards((b for b in rivals if b != buyer and bidding[b]), view.fwd)
        return {"buyer": buyer, "award": award, "payment": price(won, mine, bids)}

    return query


_BID_PAIRS = {"udubv": (udubv_run, udubv_local), "ksmb": (ksmb_run, ksmb_local)}


def _check_against_replay(inst, overlay):
    run, local = _BID_PAIRS[inst.mode]
    out = run(_reported(inst, overlay))
    reference = _closure_replay(inst, overlay)
    for b in range(inst.n):
        tree, replay = ProbeCounter(), ProbeCounter()
        got = local(inst, b, tree, overlay)
        assert got == reference(b, replay), b
        assert (got["award"], got["payment"]) == (out.awards[b], out.payments[b]), b
        assert tree.count <= replay.count, (b, tree.count, replay.count)


def _check_run_against_critical(inst, overlay):
    """Every winner of the global run under the reports pays her price by
    its definition: `_critical`'s full rerun of the auction without her."""
    moved = _reported(inst, overlay)
    out = _BID_PAIRS[inst.mode][0](moved)
    for b in range(inst.n):
        if out.awards[b]:
            assert out.payments[b] == _critical(moved, b), b


@pytest.mark.parametrize("family", ["udubv", "ksmb"])
@pytest.mark.parametrize("m", [512, 200])
def test_query_tree_matches_closure_replay(family, m):
    for seed in range(4):
        inst = build_instance(InstanceSpec(seed=seed, family=family, n=512, m=m, k=3))
        # one buyer bids a rival's value, one drops out and one outbids everyone
        top = max(inst.values)
        overlay = {seed: inst.values[seed + 1], 7: 0, 11: top + 1}
        for ov in (None, overlay):
            _check_against_replay(inst, ov)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_tree_matches_global_on_small_instances(data):
    mode = data.draw(st.sampled_from(["udubv", "ksmb"]))
    n = data.draw(st.integers(0, 30))
    m = data.draw(st.integers(1, 12))
    row = st.lists(st.integers(0, m - 1), max_size=4, unique=True)
    sets = data.draw(st.lists(row, min_size=n, max_size=n))
    # a small value range: zero bids and ties are common
    values = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    inst = AuctionInstance(sets, m, mode, values=values)
    overlay = None
    if n and data.draw(st.booleans()):
        bids = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 12), max_size=3))
        overlay = {b: Fraction(v, 2) for b, v in bids.items()}
    _check_against_replay(inst, overlay)
    _check_run_against_critical(inst, overlay)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_tree_matches_global_on_mixed_denominators(data):
    # bids on denominators 1..12: whole bids sort as ints and the rest as
    # Fractions, equal bids written differently tie, and overlays sit a
    # thousandth off a buyer's value
    mode = data.draw(st.sampled_from(["udubv", "ksmb"]))
    n = data.draw(st.integers(1, 24))
    m = data.draw(st.integers(1, 10))
    row = st.lists(st.integers(0, m - 1), max_size=3, unique=True)
    sets = data.draw(st.lists(row, min_size=n, max_size=n))
    bid = st.builds(lambda num, den: F(num * den, den), st.integers(0, 4), st.integers(1, 12))
    bid |= st.builds(F, st.integers(0, 24), st.integers(1, 12))
    values = data.draw(st.lists(bid, min_size=n, max_size=n))
    inst = AuctionInstance(sets, m, mode, values=values)
    # each value is its bid, an int when whole
    assert inst.values == tuple(values)
    assert [type(v) is int for v in inst.values] == [w.denominator == 1 for w in values]
    overlay = None
    if data.draw(st.booleans()):
        eps = F(1, 1000)
        moves = data.draw(
            st.dictionaries(st.integers(0, n - 1), st.sampled_from([-eps, eps, None]), max_size=3)
        )
        overlay = {
            b: F(0) if d is None else max(F(0), inst.values[b] + d) for b, d in moves.items()
        }
    _check_against_replay(inst, overlay)
    _check_run_against_critical(inst, overlay)


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
def test_values_hold_whole_bids_as_ints(mode, monkeypatch):
    # every seeded value is whole, so no buyer holds a Fraction
    seeded = build_instance(InstanceSpec(seed=3, family=mode, n=64, m=64, k=2))
    assert {type(v) for v in seeded.values} == {int}
    assert {type(v) for v in build_instance(InstanceSpec(3, "uduv", 64, 64, 2)).values} == {int}
    # a bool, a float and a whole Fraction map to their exact values as before
    inst = AuctionInstance([(0,)] * 5, 1, mode, values=[True, 0.5, F(7, 2), F(6, 3), 4])
    assert inst.values == (1, F(1, 2), F(7, 2), 2, 4)
    assert [type(v) for v in inst.values] == [int, F, F, int, int]
    assert list(inst.order) == [4, 2, 3, 0, 1]
    # a query patches its reported bids in the same way and orders by them
    local, order, keys = _BID_PAIRS[mode][1], auctions._bid_order, []
    monkeypatch.setattr(auctions, "_bid_order", lambda bids: keys.append(bids) or order(bids))
    local(inst, 0, None, {0: 0.5, 1: True, 3: F(8, 2)})
    assert len(keys) == 1
    bids = [keys[0][b] for b in range(inst.n)]
    assert bids == [F(1, 2), 1, F(7, 2), 4, 4]
    assert [type(v) for v in bids] == [F, int, F, int, int]
    # it holds the reporters' bids only: the others are read from the instance
    assert dict(keys[0]) == {0: F(1, 2), 1: 1, 3: 4}
    for bad in (-1, F(-1, 2), -0.5):
        with pytest.raises(ValueError, match="^values must be non-negative$"):
            AuctionInstance([(0,)], 1, mode, values=[bad])
        with pytest.raises(ValueError, match="^bids must be non-negative$"):
            local(inst, 0, None, {2: bad})


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
def test_audit_deviations_are_exact_bids(mode, monkeypatch):
    # buyer 0 bids 5, so t/2 is 5/2: an int t must not halve to the float 2.5
    inst = AuctionInstance([(0,), (0,)], 1, mode, values=[5, 3])
    local = auctions._bid_local
    asked = []

    def answer(inst, buyer, counter, overlay):
        asked.extend(overlay.values() if overlay else ())
        if buyer == 0 and overlay and overlay[0] == F(5, 2):
            return {"buyer": 0, "award": (0,), "payment": F(-100)}  # a planted gain
        return local(inst, buyer, counter, overlay)

    monkeypatch.setattr(auctions, "_bid_local", answer)
    assert [v.report for v in truthfulness_audit(inst)] == ["bid=5/2"]
    assert asked and {type(bid) for bid in asked} <= {int, F}


@pytest.mark.parametrize("family", ["udubv", "ksmb"])
@pytest.mark.parametrize("seed", [0, 1])
def test_runs_reproduce_the_recorded_n4096_outcomes(family, seed):
    # the benchmark's reference answers, recorded when every winner was
    # priced by `_critical`'s full rerun; the file is only read here
    ref = REFS / f"{family}_n4096_k3_seed{seed}.json"
    answers = json.loads(ref.read_text())["answers"]
    inst = build_instance(InstanceSpec(seed=seed, family=family, n=4096, m=4096, k=3))
    out = _BID_PAIRS[family][0](inst)
    assert len(answers) == inst.n
    for b, (award, payment) in enumerate(answers):
        assert (out.awards[b], str(out.payments[b])) == (tuple(award), payment), b


@pytest.mark.parametrize("family", ["udubv", "ksmb"])
def test_query_tree_follows_a_bid_chain_n_deep(family):
    # buyer i wants {i, i+1}; with bids falling with i each buyer's answer
    # waits on the one before her, all the way down the chain, and with bids
    # rising on the one after her, all the way up
    n = 5000
    assert n > sys.getrecursionlimit()
    awards, price = _BID_RULES[family]
    run, local = _BID_PAIRS[family]
    falling = range(n, 0, -1)
    for values in (falling, falling[::-1]):
        inst = AuctionInstance([(i, i + 1) for i in range(n)], n + 1, family, values=values)
        want = awards(inst.order, inst.sets.__getitem__)
        last = inst.order[-1]
        want_pay = _critical(inst, last) if last in want else Fraction(0)
        counter = ProbeCounter()
        got = local(inst, last, counter)
        assert (got["award"], got["payment"]) == (want.get(last, ()), want_pay)
        if values is falling:
            assert counter.count > n  # the whole chain was read
        # the global run prices each winner on the same chain, whose removal
        # re-decides every buyer behind her
        out = run(inst)
        assert out.awards == {b: want.get(b, ()) for b in range(n)}
        winners = sorted(want)
        for b in (winners[0], winners[len(winners) // 2], winners[-1]):
            assert out.payments[b] == _critical(inst, b), (values, b)
        assert (out.awards[last], out.payments[last]) == (got["award"], got["payment"])


def _full_holder_price(mode, i, won, mine, rev, bids, frame, lookup, store):
    """`auctions._tree_price` as it was before the price scans pruned: it
    resolves the holder of every item of hers, then applies the price rule."""
    holders = {}
    for j in mine:
        for z in rev(j):
            if not bids[z]:
                break
            if z != i and j in (got := auctions.resolve(z, frame, lookup, store)):
                holders[z] = got
                break
    return Fraction(_BID_RULES[mode][1](holders, mine, bids))


def test_price_scans_read_no_record_the_full_holder_scan_does_not(monkeypatch):
    # the pruned scans resolve a part of the holders that the full scan
    # resolves, on the same memoised tree, so each query's read set can
    # only shrink, and its payment stays the price rule's
    pruned = auctions._tree_price
    fewer = 0
    for family in ("udubv", "ksmb"):
        local = _BID_PAIRS[family][1]
        for k, seed in product((2, 3), range(3)):
            for n, asked in ((64, 64), (512, 512), (4096, 1024)):
                inst = build_instance(InstanceSpec(seed=seed, family=family, n=n, m=n, k=k))
                for b in random.Random(n * k + seed).sample(range(n), asked):
                    got, ref = ProbeCounter(), ProbeCounter()
                    monkeypatch.setattr(auctions, "_tree_price", _full_holder_price)
                    want = local(inst, b, ref)
                    monkeypatch.setattr(auctions, "_tree_price", pruned)
                    assert local(inst, b, got) == want, (family, k, n, b)
                    assert got.seen <= ref.seen, (family, k, n, b)
                    fewer += len(got.seen) < len(ref.seen)
    assert fewer


# ---------------------------------------------------------------------------
# item records in bid order
# ---------------------------------------------------------------------------


def _bid_order(ids, values):
    """`ids` by descending value, ties to the smaller id."""
    return sorted(ids, key=lambda b: (-values[b], b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_item_records_list_the_by_id_buyers_in_bid_order(data):
    mode = data.draw(st.sampled_from(["udubv", "ksmb"]))
    n = data.draw(st.integers(0, 20))
    m = data.draw(st.integers(1, 8))
    row = st.lists(st.integers(0, m - 1), max_size=4, unique=True)
    sets = data.draw(st.lists(row, min_size=n, max_size=n))
    # whole and fractional bids from a small range: zero bids and ties are common
    bid = st.integers(0, 4) | st.builds(F, st.integers(0, 12), st.integers(1, 4))
    values = data.draw(st.lists(bid, min_size=n, max_size=n))
    inst = AuctionInstance(sets, m, mode, values=values)
    by_id = AdjacencyOracle(inst.sets, m, range(n))
    assert list(inst.order) == _bid_order(range(n), inst.values)
    for j in range(m):
        assert sorted(inst.oracle.rev(j)) == list(by_id.rev(j))
        assert list(inst.oracle.rev(j)) == _bid_order(by_id.rev(j), inst.values)


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
def test_item_records_with_zero_tied_and_fractional_bids(mode):
    # buyers 0 and 4 bid 0, buyers 1 and 3 tie at 3 and buyer 2 bids 7/2
    sets = [(0, 1), (0,), (1,), (0, 1), (1,)]
    values = [0, 3, F(7, 2), 3, 0]
    inst = AuctionInstance(sets, 2, mode, values=values)
    assert (inst.oracle.rev(0), inst.oracle.rev(1)) == ((1, 3, 0), (2, 3, 0, 4))
    run, local = _BID_PAIRS[mode]
    out = run(inst)
    for b in range(inst.n):
        assert (out.awards[b], out.payments[b]) == tuple(local(inst, b).values())[1:], b
        if out.awards[b]:
            assert out.payments[b] == _critical(inst, b), b
    assert truthfulness_audit(inst) == []


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
@pytest.mark.parametrize(
    "bids",
    [
        {2: 1},  # buyer 2 falls to tie buyer 0, whose smaller id now goes first
        {1: 2},  # buyer 1 lifts her zero bid above zero, between buyers 2 and 0
        {1: F(1, 2), 2: 1},  # both, and buyer 1 stays last
        {0: 5},  # buyer 0 rises to tie buyer 2
    ],
)
def test_overlays_that_reorder_an_item_record(mode, bids):
    sets = [(0,), (0, 1), (0, 1)]
    values = [1, 0, 5]
    inst = AuctionInstance(sets, 2, mode, values=values)
    assert inst.oracle.rev(0) == (2, 0, 1)
    # the same auction built with the overlaid bids as values
    moved = AuctionInstance(sets, 2, mode, values=[bids.get(b, v) for b, v in enumerate(values)])
    run, local = _BID_PAIRS[mode]
    want = run(moved)
    for b in range(inst.n):
        pair = (want.awards[b], want.payments[b])
        assert tuple(local(inst, b, None, bids).values())[1:] == pair, b
    assert truthfulness_audit(inst) == []
    assert truthfulness_audit(moved) == []


@pytest.mark.parametrize("mode", ["udubv", "ksmb"])
def test_bid_order_of_no_buyer_and_of_one(mode):
    run, local = _BID_PAIRS[mode]
    empty = AuctionInstance([], 3, mode, values=[])
    assert list(empty.order) == [] and list(empty.place) == []
    assert [empty.oracle.rev(j) for j in range(3)] == [(), (), ()]
    assert run(empty).awards == {}
    for value in (0, 2, F(1, 3)):
        inst = AuctionInstance([(1,)], 2, mode, values=[value])
        assert list(inst.order) == [0] and (inst.oracle.rev(0), inst.oracle.rev(1)) == ((), (0,))
        award = (1,) if value else ()
        assert run(inst).awards == {0: award}
        assert local(inst, 0) == {"buyer": 0, "award": award, "payment": F(0)}
