"""Slot and menu schedulers: allocation, payments, monotonicity, makespan."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from localmech import scheduling
from localmech.instances import InstanceSpec, build_instance
from localmech.randomness import (
    derive_uniform, sample_without_replacement, uniform_first, uniform_rows
)
from localmech.scheduling import (
    RESTRICTED,
    STANDARD,
    SchedulingInstance,
    expected_height,
    greedy_unmodified,
    makespan_ratio,
    monotonicity_trace,
    payment_rlms,
    payment_rlms_for_bid,
    payment_slms_expected,
    payment_slms_sampled,
    rerun_height,
    rlms_local,
    rlms_online,
    rlms_utility,
    slms_expected_utility,
    slms_local,
    slms_online,
)

F = Fraction


def _std(caps, m, d, seed=0):
    return SchedulingInstance(caps=caps, m=m, d=d, mode=STANDARD, seed=seed)


def _res(caps, m, d=2, seed=0, menus=None):
    return SchedulingInstance(caps=caps, m=m, d=d, mode=RESTRICTED, seed=seed, menus=menus)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        _std((0, 1), 2, 1)  # zero capacity
    with pytest.raises(ValueError):
        _std((1, 1), 2, 3)  # d beyond the slot pool
    with pytest.raises(ValueError):
        SchedulingInstance(caps=(1, 1), m=2, d=1, mode=STANDARD, menus=[(0,), (1,)])
    for caps in ((2.9, 1), (2, "1")):  # refused, not truncated to (2, 1)
        for mode in (STANDARD, RESTRICTED):
            with pytest.raises(ValueError, match="capacities must be positive integers"):
                SchedulingInstance(caps, m=2, d=1, mode=mode)


def test_single_machine_takes_everything():
    inst = _std((7,), 7, 1)
    alloc = slms_online(inst)
    assert alloc.heights == (7,)
    assert alloc.makespan == F(7, 7)


def test_allocation_loads_are_exact():
    inst = _res((4, 8, 36), 12, menus=[(0, 1, 2)] * 12)
    alloc = rlms_online(inst)
    assert sum(alloc.heights) == 12
    assert alloc.makespan == max(F(h, c) for h, c in zip(alloc.heights, (4, 8, 36)))


# ---------------------------------------------------------------------------
# height statistics
# ---------------------------------------------------------------------------


def test_equal_split_two_unit_machines():
    # h_0 is Binomial(m, 1/2) under single-slot draws
    m, seeds = 20_000, 25
    sigma = math.sqrt(m / 4)
    means = []
    for seed in range(seeds):
        alloc = slms_online(_std((1, 1), m, 1, seed=seed))
        assert abs(alloc.heights[0] - m / 2) <= 5 * sigma
        means.append(alloc.heights[0])
    assert abs(sum(means) / seeds - m / 2) <= 3 * sigma


def test_proportional_share_capacity_two_of_five():
    # machine with 2 of the 5 slots holds ~2/5 of the jobs, whatever d is
    m = 20_000
    for d in (1, 2):
        fracs = []
        for seed in range(5):
            alloc = slms_online(_std((2, 3), m, d, seed=seed))
            fracs.append(alloc.heights[0] / m)
        assert abs(sum(fracs) / len(fracs) - 2 / 5) < 0.01, (d, fracs)


def test_expected_height_closed_form():
    assert expected_height(2, 3, 10) == F(4)
    assert expected_height(0, 5, 10) == F(0)
    # nondecreasing in own capacity
    vals = [expected_height(b, 10, 100) for b in range(1, 8)]
    assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# payments, standard scheme
# ---------------------------------------------------------------------------


def test_slms_expected_payment_two_unit_machines():
    rec = payment_slms_expected(_std((1, 1), 2, 1), 0)
    assert rec.amount == F(2)
    assert rec.scheme == "expected"


def test_slms_sampled_payment_is_unbiased(monkeypatch):
    # averaging the sampled rule over its draw reproduces the closed form
    def sampled(inst, i, k):
        monkeypatch.setattr(scheduling, "derive_uniform", lambda tape, key, b: k - 1)
        return payment_slms_sampled(inst, i).amount

    for caps, m, i in [((2, 3), 12, 0), ((2, 3), 12, 1), ((1, 4, 2), 9, 1), ((5,), 7, 0)]:
        inst = _std(caps, m, 1)
        b = caps[i]
        total = sum(sampled(inst, i, k) for k in range(1, b + 1))
        assert total / b == payment_slms_expected(inst, i).amount, (caps, m, i)


def test_slms_voluntary_participation():
    # truthful surplus payment - b*E[h] is never negative
    for seed in range(30):
        inst = SchedulingInstance.from_spec(
            InstanceSpec(seed=seed, family="scheduling-std", n=5, m=20, k=2)
        )
        for i in range(inst.n):
            pay = payment_slms_sampled(inst, i).amount
            b = inst.caps[i]
            cost = b * expected_height(b, sum(inst.caps) - b, inst.m)
            assert pay - cost >= 0


def test_slms_utility_sweep_peaks_at_truth():
    # closed-form utilities for caps (2,3), m=12, machine 0
    assert slms_expected_utility((2, 3), 12, 0, 1, true_cap=2) == F(9, 2)
    assert slms_expected_utility((2, 3), 12, 0, 2, true_cap=2) == F(39, 5)
    assert slms_expected_utility((2, 3), 12, 0, 3, true_cap=2) == F(24, 5)
    for caps, m, i in [((2, 3), 12, 0), ((2, 3), 12, 1), ((1, 1), 2, 0), ((3, 5, 2), 30, 2)]:
        truth = caps[i]
        sweep = {bid: slms_expected_utility(caps, m, i, bid, truth) for bid in range(9)}
        best = max(sweep.values())
        assert sweep[truth] == best, (caps, m, i, sweep)


# ---------------------------------------------------------------------------
# restricted allocator
# ---------------------------------------------------------------------------


# 22 single-machine jobs bring machines 0, 1, 2 to heights (1, 3, 18), then
# three jobs choose: the small exhibit of floored vs unfloored loads
_LEAD = [(0,)] + [(1,)] * 3 + [(2,)] * 18
_SMALL_MENUS = _LEAD + [(0, 1), (1, 2), (0, 1)]


def _small():
    return _res((4, 8, 36), len(_SMALL_MENUS), menus=_SMALL_MENUS)


def test_rlms_floored_rule_prefers_low_projected_load():
    # heights (1,3,18), caps (4,8,36): job with menu {0,1} projects
    # floor(2/4)=0 on machine 0 and floor(4/8)=0 on machine 1; tie -> 0
    alloc = rlms_online(_small())
    assert alloc.assign[: len(_LEAD)] == tuple(mu[0] for mu in _LEAD)
    assert alloc.heights == (3, 4, 18)


def test_ties_go_to_the_smaller_machine_whatever_the_menu_order():
    # the raw menu lists machine 3 first; every rule reads the sorted record,
    # so the first least load, floored or not, is machine 1
    inst = _res((1, 1, 1, 1), 1, menus=[(3, 1)])
    assert inst.oracle.rows[0] == (1, 3)
    assert rlms_online(inst).assign == (1,)
    assert rlms_online(inst, order=inst.order).assign == (1,)
    assert rlms_local(inst, 0) == 1
    assert greedy_unmodified(inst).assign == (1,)


def test_rlms_bid_raise_keeps_monotonicity_on_fixture():
    inst = _small()
    base = rlms_online(inst)
    raised = rlms_online(inst, caps=(4, 9, 36))
    assert raised.heights[1] >= base.heights[1]
    assert base.heights == raised.heights == (3, 4, 18)


def test_unfloored_greedy_reproduces_taller_trace():
    # same fixture under the unfloored rule: machine 1 climbs to 5, then
    # _loses_ a job when it raises its bid to 9
    inst = _small()
    base = greedy_unmodified(inst)
    raised = greedy_unmodified(inst, caps=(4, 9, 36))
    assert base.heights == (2, 5, 18)
    assert raised.heights == (2, 4, 19)
    assert raised.heights[1] < base.heights[1]  # the non-monotonicity exhibit


_GREEDY_MENUS = [(0, 3), (0, 3), (1, 3), (1, 3)] + [(2, 3)] * 6 + [(0, 1), (0, 2)]


def test_unfloored_greedy_twelve_job_fixture():
    inst = _res((4, 4, 8, 1), 12, menus=_GREEDY_MENUS)
    base = greedy_unmodified(inst)  # job 10 ties machines 0 and 1 at 3/4; 0 takes it
    assert base.heights == (3, 2, 7, 0)
    # machine 2 bids 9 and job 10's menu moves to {1, 2}
    menus2 = list(_GREEDY_MENUS)
    menus2[10] = (1, 2)
    inst2 = _res((4, 4, 8, 1), 12, menus=menus2)
    raised = greedy_unmodified(inst2, caps=(4, 4, 9, 1))
    assert raised.heights == (3, 3, 6, 0)
    assert raised.heights[2] < base.heights[2]


def test_rlms_empty_menu_rejected():
    # rejected when the instance is built, before any allocator or local
    # query sees it (rlms_local used to fail on a bare assertion)
    with pytest.raises(ValueError, match="job 1 has an empty menu"):
        _res((1, 1), 2, menus=[(0,), ()])
    with pytest.raises(ValueError, match="empty menu"):
        SchedulingInstance((1, 1), m=2, d=0, mode="restricted")


def test_seeded_restricted_build_names_d():
    # a seeded menu holds d draws, so d < 1 is refused by name, as standard
    # mode and housing refuse theirs, even with no job to give a menu
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"got d={d}"):
            SchedulingInstance((1, 2), m=0, d=d)
    with pytest.raises(ValueError, match="got d=0"):
        build_instance(InstanceSpec(seed=0, family="scheduling-res", n=3, m=2, k=0))


def test_seeded_restricted_build_names_n():
    # seeded menus are drawn from the machines, so with none the build is
    # refused by n before the menu draw, as standard mode names B
    for m in (0, 3):
        with pytest.raises(ValueError, match="got n=0"):
            SchedulingInstance((), m=m, d=1)
    with pytest.raises(ValueError, match="B=0"):
        SchedulingInstance((), m=0, d=1, mode=STANDARD)
    # explicit menus name no machine when there is no job
    assert rlms_online(_res((), 0, menus=[])).heights == ()


def test_rerun_helpers_refuse_a_negative_bid():
    # as the rerun payments do; a negative bid used to read as bid 0 in
    # rerun_height and to run in monotonicity_trace
    inst = SchedulingInstance((1, 2, 3), m=6, d=2, seed=1)
    for call in (
        lambda: rerun_height(inst, 0, -3),
        lambda: monotonicity_trace(inst, 0, -2, 1),
        lambda: payment_rlms_for_bid(inst, 0, -1),
        lambda: rlms_utility(inst, 0, -1, 2),
    ):
        with pytest.raises(ValueError, match="bid must be >= 0"):
            call()
    assert rerun_height(inst, 0, 0) == 0


def test_payments_reject_unknown_machines():
    std = _std((1, 2, 3), 6, 2)
    res = _res((1, 2, 3), 6)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="unknown machine"):
            payment_slms_expected(std, i)
        with pytest.raises(ValueError, match="unknown machine"):
            payment_slms_sampled(std, i)
        with pytest.raises(ValueError, match="unknown machine"):
            payment_rlms(res, i)
        with pytest.raises(ValueError, match="unknown machine"):
            rerun_height(res, i, 1)
        with pytest.raises(ValueError, match="unknown machine"):
            monotonicity_trace(res, i, 1, 2)
        with pytest.raises(ValueError, match="unknown machine"):
            slms_expected_utility((1, 2, 3), 6, i, 3, 3)
    assert payment_slms_expected(std, 2).machine == 2
    assert slms_expected_utility((1, 2, 3), 6, 2, 3, 3) == Fraction(69, 10)


def test_rerun_height_zero_bid_empties_machine():
    inst = _res((2, 2), 6, menus=[(0, 1)] * 6)
    assert rerun_height(inst, 0, 0) == 0
    assert rerun_height(inst, 0, 2) == rlms_online(inst).heights[0]


def test_zero_cap_leaves_a_whole_menu_job_unplaced():
    # job 0 can use machine 0 only; at capacity 0 it stays unplaced, and the
    # others land where the floored (and unfloored) rule puts them without it
    inst = _res((2, 1, 1), 4, menus=[(0,), (0, 1), (2, 0), (1, 2)])
    assert list(inst.order) == [0, 2, 3, 1]
    want = (None, 1, 2, 1)
    for alloc in (
        rlms_online(inst, caps=(0, 1, 1)),
        rlms_online(inst, caps=(0, 1, 1), order=inst.order),
        greedy_unmodified(inst, caps=(0, 1, 1)),
    ):
        assert alloc.assign == want
        assert alloc.heights == (0, 2, 1)
    # rank order 0, 2, 3, 1: at bid 0 job 0 drops out, at bid 2 machine 0
    # takes jobs 0, 2 and 1
    assert monotonicity_trace(inst, 0, 0, 2) == [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, -1),
        (2, 0, -1),
        (3, -1, -1),
    ]


def test_menu_draw_order_and_repeats_never_matter():
    # the instance keeps each menu as the oracle's sorted, distinct machines,
    # so a twin built from those menus holds the same records and runs alike
    caps = (2, 1, 3, 1)
    raw = [(3, 1, 3), (2, 1), (1, 1, 0), (0, 2), (3, 2, 2), (1, 3, 0), (2,), (3, 0), (0, 0)]
    tidy = [tuple(sorted(set(mu))) for mu in raw]
    a, b = (_res(caps, len(raw), seed=7, menus=mus) for mus in (raw, tidy))
    assert [a.oracle.rows[j] for j in range(a.m)] == tidy
    assert [b.oracle.rows[j] for j in range(b.m)] == tidy
    assert list(a.order) == list(b.order)
    assert rlms_online(a) == rlms_online(b)
    assert rlms_online(a, order=a.order) == rlms_online(b, order=b.order)
    assert [rlms_local(a, j) for j in range(a.m)] == [rlms_local(b, j) for j in range(b.m)]
    # job 0 ties machines 3 and 1 at 1/1 under the unfloored rule: the
    # smaller machine, 1, takes it
    assert greedy_unmodified(a) == greedy_unmodified(b)
    assert greedy_unmodified(a).assign[0] == 1
    for i in range(len(caps)):
        for low, high in ((0, caps[i]), (caps[i], caps[i] + 2)):
            assert monotonicity_trace(a, i, low, high) == monotonicity_trace(b, i, low, high)
    assert makespan_ratio(a) == makespan_ratio(b)


def test_rerun_height_is_the_rank_order_height():
    # the payments price the run that the local queries answer
    for seed in range(20):
        inst = SchedulingInstance.from_spec(
            InstanceSpec(seed=seed, family="scheduling-res", n=64, m=64, k=2)
        )
        served = Counter(rlms_local(inst, j) for j in range(inst.m))
        for i in range(inst.n):
            assert rerun_height(inst, i, inst.caps[i]) == served[i], (seed, i)
        i = seed % inst.n
        assert payment_rlms(inst, i).amount == payment_rlms_for_bid(inst, i, inst.caps[i])


def test_rlms_payment_two_unit_machines():
    inst = _res((1, 1), 1, menus=[(0, 1)])
    rec = payment_rlms(inst, 0)
    assert rec.amount == F(2)
    assert rec.scheme == "rerun"


def test_rlms_quadratic_utility_beats_naive_model_on_overbid():
    # the same instance where the linear-cost "utility" rewards overbidding
    inst = _res((1, 1), 1, menus=[(0, 1)])
    lin = {b: payment_rlms_for_bid(inst, 0, b) - F(rerun_height(inst, 0, b), 1) for b in (1, 2)}
    assert lin[2] > lin[1]  # naive model: overbid looks strictly better
    assert rlms_utility(inst, 0, 2, true_cap=1) < rlms_utility(inst, 0, 1, true_cap=1)


def test_utilities_refuse_a_true_capacity_below_1():
    # the cost x²·h/true_cap needs a machine that can hold a job
    inst = SchedulingInstance((2, 3), m=6, d=2, mode="restricted", seed=1)
    for true_cap in (0, -1):
        with pytest.raises(ValueError, match="true_cap"):
            rlms_utility(inst, 0, 2, true_cap)
        with pytest.raises(ValueError, match="true_cap"):
            slms_expected_utility((2, 3), 12, 0, 2, true_cap)


def test_rlms_truthful_utility_dominates_grid():
    for seed in range(10):
        inst = SchedulingInstance.from_spec(
            InstanceSpec(seed=seed, family="scheduling-res", n=3, m=9, k=2)
        )
        for i in range(inst.n):
            truth = inst.caps[i]
            u_truth = rlms_utility(inst, i, truth, truth)
            for bid in range(7):
                assert rlms_utility(inst, i, bid, truth) <= u_truth, (seed, i, bid)


def test_rerun_height_difference_is_the_final_delta():
    # the last row is the whole rank-order run at each bid, so machine i's
    # entry is the difference of the heights its rerun payments price
    for seed in range(10):
        inst = SchedulingInstance.from_spec(
            InstanceSpec(seed=seed, family="scheduling-res", n=5, m=20, k=2)
        )
        for i in range(inst.n):
            b = inst.caps[i]
            for lo, hi in ((0, b), (b, b + 2)):
                runs = []
                for bid in (lo, hi):
                    caps = list(inst.caps)
                    caps[i] = bid
                    runs.append(rlms_online(inst, caps=caps, order=inst.order).heights)
                last = monotonicity_trace(inst, i, lo, hi)[-1]
                assert last == tuple(h - l for h, l in zip(runs[1], runs[0])), (seed, i, lo)
                assert last[i] == rerun_height(inst, i, hi) - rerun_height(inst, i, lo)


def test_monotonicity_trace_signs():
    for seed in range(20):
        inst = SchedulingInstance.from_spec(
            InstanceSpec(seed=seed, family="scheduling-res", n=4, m=16, k=2)
        )
        i = seed % inst.n
        b = inst.caps[i]
        deltas = monotonicity_trace(inst, i, b, b + 2)
        assert len(deltas) == inst.m + 1
        for step in deltas:
            assert step[i] >= 0
            assert all(step[k] <= 0 for k in range(inst.n) if k != i)


# ---------------------------------------------------------------------------
# local queries
# ---------------------------------------------------------------------------


def test_local_matches_rank_order_run_both_modes():
    for fam, runner, local in [
        ("scheduling-std", slms_online, slms_local),
        ("scheduling-res", rlms_online, rlms_local),
    ]:
        for seed in range(3):
            inst = build_instance(InstanceSpec(seed=seed, family=fam, n=256, m=256, k=2))
            alloc = runner(inst, order=inst.rank_order())
            for j in range(inst.m):
                assert local(inst, j) == alloc.assign[j], (fam, seed, j)


def _slms_by_key(inst):
    """The standard-mode rank-order run from the per-key definitions: job j's
    rank by ("job-rank", j), its slots by ("slot-choice", j) and its tie
    among c least slots by ("slot-tie", j).  Returns each job's machine and
    the (job, c) of every tie."""
    t, caps = inst.tape, inst.caps
    order = sorted(range(inst.m), key=lambda j: (t.u64("job-rank", j), j))
    machine_of = [i for i, c in enumerate(caps) for _ in range(c)]
    slot_h = [0] * inst.B
    assign, ties = [None] * inst.m, []
    for j in order:
        chosen = sample_without_replacement(t, ("slot-choice", j), inst.B, inst.d)
        best = min(slot_h[s] for s in chosen)
        mins = sorted(s for s in chosen if slot_h[s] == best)
        if len(mins) > 1:
            ties.append((j, len(mins)))
        slot = mins[derive_uniform(t, ("slot-tie", j), len(mins))]
        slot_h[slot] += 1
        assign[j] = machine_of[slot]
    return tuple(assign), ties


@pytest.mark.parametrize("d", [2, 3, 5])
def test_standard_runs_follow_the_per_key_draws(d):
    # the local and global runs read one tie table, so each is checked
    # against draws re-derived key by key
    inst = _std((3, 1, 2, 5, 1), 60, d, seed=8 + d)
    want, ties = _slms_by_key(inst)
    assert {c for _, c in ties} >= ({2, 3, 5} if d == 5 else {2, 3} if d == 3 else {2})
    assert slms_online(inst, order=inst.rank_order()).assign == want
    # an order that is not the stored one is checked, then run the same way
    assert slms_online(inst, order=list(inst.rank_order())).assign == want
    assert tuple(slms_local(inst, j) for j in range(inst.m)) == want


def test_a_rejected_first_tie_attempt_falls_back_to_the_keyed_draw():
    inst = _std((3, 1, 2, 5, 1), 60, 3, seed=4)
    want, ties = _slms_by_key(inst)
    threes = [j for j, c in ties if c == 3]
    assert threes
    # 2^64 - 1 is at or past the rejection bound of every range that does not
    # divide 2^64, so each of these jobs redraws its tie by key
    for j in threes:
        inst.tie_words[j] = 2**64 - 1
        assert uniform_first(inst.tie_words[j], 3) is None
    assert slms_online(inst, order=inst.rank_order()).assign == want
    assert tuple(slms_local(inst, j) for j in range(inst.m)) == want


class _NoPass:
    """Stands in for `inst.caps`: any pass over the machines, or any read
    of one machine's capacity, fails the test."""

    def __iter__(self):
        raise AssertionError("a local query iterated over every machine")

    def __getitem__(self, i):
        raise AssertionError("a local query read a machine's capacity")

    def __len__(self):
        raise AssertionError("a local query took the machine count")


def test_standard_local_query_makes_no_pass_over_the_machines():
    for seed in range(3):
        inst = build_instance(InstanceSpec(seed=seed, family="scheduling-std", n=512, m=512, k=2))
        want = slms_online(inst, order=inst.rank_order()).assign
        inst.caps = _NoPass()
        for j in range(inst.m):
            assert slms_local(inst, j) == want[j], (seed, j)


def test_standard_mode_on_a_maximal_slot_pool():
    # 2^20 slots for 8 jobs: almost every slot record is empty, and the local
    # query still equals the rank-order run
    inst = _std((524288, 524288), 8, 2)
    want = slms_online(inst, order=inst.rank_order()).assign
    assert [slms_local(inst, j) for j in range(inst.m)] == list(want)
    chosen = {s for j in range(inst.m) for s in inst.oracle.rows[j]}
    unchosen = next(s for s in range(inst.B) if s not in chosen)
    assert inst.oracle.cols[unchosen] == ()


def test_slot_prefix_is_built_once_and_serves_both_modes():
    caps = (3, 1, 2)
    std = _std(caps, 6, 2)
    assert std.slot_prefix == (3, 4, 6)
    res = _res(caps, 6)
    assert res.slot_prefix == (3, 4, 6)


def _bisected_menus(inst):
    # each ("menu", j, t) draw over the slot pool, mapped by bisection, and
    # each menu as the oracle keeps it: its distinct machines, ascending
    rows = uniform_rows(inst.tape, "menu", inst.m, inst.B, inst.d)
    return [tuple(sorted({bisect_right(inst.slot_prefix, s) for s in row})) for row in rows]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 64, 1000])
def test_seeded_menus_map_each_draw_to_the_machine_owning_its_slot(n, d):
    for seed in range(2):
        inst = build_instance(InstanceSpec(seed=seed, family="scheduling-res", n=n, m=n, k=d))
        assert [inst.oracle.rows[j] for j in range(inst.m)] == _bisected_menus(inst)


@pytest.mark.parametrize(
    "caps",
    [(40, 8), (40, 9), (1 << 19, 1 << 19), (1 << 40, 3)],
    ids=["owner-table", "bisected", "max-size", "past-max-size"],
)
def test_seeded_menus_on_either_side_of_the_owner_table_rule(caps):
    # 2 jobs of 3 draws: a 48-slot pool (8 slots per draw) is mapped through
    # a slot-owner table, a 49-slot one by bisection, as are a pool of
    # MAX_SIZE slots and one of 2^40 slots, far past what a table could hold
    inst = _res(caps, 2, d=3, seed=1)
    assert [inst.oracle.rows[j] for j in range(inst.m)] == _bisected_menus(inst)


def test_local_validates_job():
    inst = build_instance(InstanceSpec(seed=0, family="scheduling-res", n=8, m=8, k=2))
    with pytest.raises(ValueError):
        rlms_local(inst, 8)
    with pytest.raises(ValueError):
        slms_local(inst, 0)  # wrong mode


# ---------------------------------------------------------------------------
# makespan quality
# ---------------------------------------------------------------------------


def test_uniform_two_choice_max_load():
    n = m = 1024
    bound = math.ceil(m / n) + 2 * math.log(math.log(n)) / math.log(2) + 4
    for seed in range(5):
        alloc = slms_online(_std((1,) * n, m, 2, seed=seed))
        assert max(alloc.heights) <= bound


def test_makespan_ratio_on_forced_menus():
    # menus force 3 jobs through machine 0; the allocator can't do better
    inst = _res((1, 1), 3, menus=[(0,), (0,), (0, 1)])
    assert makespan_ratio(inst) == F(1)


def test_makespan_ratio_refuses_no_jobs():
    # the optimal makespan of no jobs is 0, and the ratio would divide by it
    with pytest.raises(ValueError, match="got m=0"):
        makespan_ratio(SchedulingInstance((1, 2), m=0, d=1))


def test_makespan_ratio_seeded_restricted():
    for seed in range(5):
        inst = build_instance(InstanceSpec(seed=seed, family="scheduling-res", n=6, m=18, k=2))
        ratio = makespan_ratio(inst)
        assert 1 <= ratio <= 4, (seed, ratio)
