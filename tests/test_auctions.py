"""Greedy auctions: outcomes, critical payments, audits, local queries."""

from __future__ import annotations

from fractions import Fraction

import pytest

from localmech.auctions import (
    AuctionInstance,
    ReportOverlay,
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
from localmech.probes import ProbeCounter

F = Fraction


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
            assert out.utilities[b] == F(1, 2)
        else:
            assert out.payments[b] == F(0)


def test_udubv_higher_bid_wins_pays_rival():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    out = udubv_run(inst)
    assert out.awards[0] == (0,)
    assert out.awards[1] == ()
    assert out.payments[0] == F(3)
    assert out.utilities[0] == F(2)


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


def test_shadow_payments_cover_losers():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    out = udubv_run(inst, shadow=True)
    assert out.shadow_payments == {1: F(5)}


def test_public_sets_cannot_be_overlaid():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    with pytest.raises(ValueError):
        udubv_run(inst, ReportOverlay(sets={0: (0,)}))
    kinst = _ksmb([(0,)], values=(2,), m=1, k=1)
    with pytest.raises(ValueError):
        ksmb_run(kinst, ReportOverlay(sets={0: (0,)}))


def test_negative_bids_rejected():
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    with pytest.raises(ValueError):
        udubv_run(inst, ReportOverlay(bids={0: F(-1)}))


def test_overlays_naming_unknown_buyers_or_items_are_rejected():
    # the run and the local query read reports through one checked path
    uduv = build_instance(InstanceSpec(seed=0, family="uduv", n=6, m=5, k=2))
    for sets in ({0: (-1,)}, {0: (uduv.m,)}, {9: (0,)}):
        overlay = ReportOverlay(sets=sets)
        with pytest.raises(ValueError):
            uduv_run(uduv, overlay)
        for query in (("buyer", 0), ("item", 0)):
            with pytest.raises(ValueError):
                uduv_local(uduv, query, overlay=overlay)
    udubv = build_instance(InstanceSpec(seed=0, family="udubv", n=6, m=5, k=2))
    for buyer in (-1, udubv.n):
        overlay = ReportOverlay(bids={buyer: F(7)})
        with pytest.raises(ValueError):
            udubv_run(udubv, overlay)
        with pytest.raises(ValueError):
            udubv_local(udubv, 0, overlay=overlay)


# ---------------------------------------------------------------------------
# critical payments
# ---------------------------------------------------------------------------


def test_critical_bid_is_the_win_threshold():
    eps = F(1, 1000)
    for seed in range(12):
        inst = build_instance(InstanceSpec(seed=seed, family="udubv", n=8, m=8, k=2))
        out = udubv_run(inst)
        for b in range(inst.n):
            if not out.awards[b]:
                continue
            p = out.payments[b]
            above = udubv_run(inst, ReportOverlay(bids={b: p + eps}))
            assert above.awards[b], (seed, b)
            if p > 0:
                below = udubv_run(inst, ReportOverlay(bids={b: p - eps}))
                assert not below.awards[b], (seed, b)


def test_ksmb_critical_bid_is_the_win_threshold():
    eps = F(1, 1000)
    for seed in range(12):
        inst = build_instance(InstanceSpec(seed=seed, family="ksmb", n=8, m=8, k=2))
        out = ksmb_run(inst)
        for b in range(inst.n):
            if not out.awards[b]:
                continue
            p = out.payments[b]
            assert ksmb_run(inst, ReportOverlay(bids={b: p + eps})).awards[b]
            if p > 0:
                assert not ksmb_run(inst, ReportOverlay(bids={b: p - eps})).awards[b]


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


def test_audit_catches_a_broken_payment_rule():
    # with payments forced to zero, overbidding a lost contest becomes strictly
    # profitable, and the audit must say so
    inst = _udubv([(0,), (0,)], values=(5, 3), m=1)
    assert truthfulness_audit(inst) == []
    broken = truthfulness_audit(inst, _zero_payments=True)
    assert any(v.buyer == 1 for v in broken)
    v = next(v for v in broken if v.buyer == 1)
    assert v.utility_deviation > v.utility_truth


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
