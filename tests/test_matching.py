"""Proposal-round matching: global engine, truncation, local queries."""

from __future__ import annotations

import random

import pytest

from localmech.matching import (
    _RejectionRounds,
    DISQUALIFIED,
    MATCHED,
    UNMATCHED,
    ManStatus,
    MatchingInstance,
    abridged_gs,
    blocking_pairs,
    global_gs,
    local_ags,
    local_ags_woman,
    matched_count,
    rounds_for_epsilon,
)
from localmech.probes import LEFT, RIGHT, ProbeCounter, neighborhood
from localmech.randomness import RandomTape


def test_single_pair_matches():
    inst = MatchingInstance([[0]], m=1)
    statuses = global_gs(inst)
    assert statuses[0] == ManStatus.matched(0)


def test_explicit_rankings_drive_rejection():
    # both men open with woman 0; she ranks man 1 first, so man 0 moves on
    inst = MatchingInstance(
        [[0, 1], [0, 1]],
        m=2,
        women_prefs=[[1, 0], [0, 1]],
    )
    statuses = global_gs(inst)
    assert statuses[0] == ManStatus.matched(1)
    assert statuses[1] == ManStatus.matched(0)
    assert blocking_pairs(inst, statuses) == []


def test_truncation_disqualifies_final_round_rejects():
    # one round only: the round-1 loser still holds an untried name
    inst = MatchingInstance(
        [[0, 1], [0, 1]],
        m=2,
        women_prefs=[[1, 0], [0, 1]],
    )
    statuses, stats = abridged_gs(inst, 1)
    assert statuses[1] == ManStatus.matched(0)
    assert statuses[0].state == DISQUALIFIED
    assert stats[-1].rejections == 1
    assert stats[-1].rejected_with_remaining == 1


def test_exhausted_man_is_unmatched_not_disqualified():
    inst = MatchingInstance(
        [[0], [0]],
        m=1,
        women_prefs=[[1, 0]],
    )
    statuses, _ = abridged_gs(inst, 1)
    assert statuses[0].state == UNMATCHED
    assert statuses[1] == ManStatus.matched(0)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        MatchingInstance([[0, 0]], m=1)


def test_a_woman_ranking_a_man_twice_is_refused():
    # a repeat would rank man 1 above man 0 by the later position of man 0
    with pytest.raises(ValueError, match="^woman 0 ranks a man twice$"):
        MatchingInstance([[0], [0]], m=1, women_prefs=[[0, 1, 0]])
    assert MatchingInstance([[0], [0]], m=1, women_prefs=[[0, 1]]).priority_key(0, 0) == (2, 0)


def test_blocking_pairs_flags_bad_assignment():
    # hand-built assignment that swaps the stable partners
    inst = MatchingInstance(
        [[0, 1], [1, 0]],
        m=2,
        women_prefs=[[0, 1], [1, 0]],
    )
    stable = global_gs(inst)
    assert blocking_pairs(inst, stable) == []
    swapped = {0: ManStatus.matched(1), 1: ManStatus.matched(0)}
    pairs = blocking_pairs(inst, swapped)
    assert (0, 0) in pairs and (1, 1) in pairs


def test_blocking_pairs_rejects_shared_woman():
    inst = MatchingInstance([[0], [0]], m=1)
    with pytest.raises(ValueError):
        blocking_pairs(inst, {0: ManStatus.matched(0), 1: ManStatus.matched(0)})


def test_full_run_has_no_blocking_pairs_seeded():
    for seed in range(6):
        inst = MatchingInstance.seeded(200, 4, seed)
        statuses = global_gs(inst)
        assert blocking_pairs(inst, statuses) == []


def test_round_rejection_and_matched_size_bounds():
    n, k = 500, 3
    for seed in range(4):
        inst = MatchingInstance.seeded(n, k, seed)
        full, stats = abridged_gs(inst, 10**6)
        mstar = matched_count(full)
        for s in stats:
            assert s.rejections <= n * k / s.round_index
            assert s.matched >= mstar - n * k / s.round_index
        # matched count is monotone over rounds
        for a, b in zip(stats, stats[1:]):
            assert b.matched >= a.matched


def test_truncation_identity_per_round():
    # rejections split exactly into continuing proposers and exhausted men
    inst = MatchingInstance.seeded(300, 3, 9)
    _, stats = abridged_gs(inst, 10**6)
    prev_exhausted = sum(1 for lst in inst.oracle.rows if not lst)
    for s in stats:
        newly_exhausted = s.exhausted_total - prev_exhausted
        assert s.rejections == s.rejected_with_remaining + newly_exhausted
        prev_exhausted = s.exhausted_total


def test_local_matches_global_every_man():
    n, k, rounds = 300, 3, 18
    inst = MatchingInstance.seeded(n, k, 17)
    statuses, _ = abridged_gs(inst, rounds)
    for man in range(n):
        assert local_ags(inst, rounds, man) == statuses[man]


def test_local_matches_global_small_grid():
    for n, k, rounds, seed in [(40, 2, 8, 0), (60, 3, 5, 1), (80, 4, 32, 2), (25, 1, 2, 3)]:
        inst = MatchingInstance.seeded(n, k, seed)
        statuses, _ = abridged_gs(inst, rounds)
        for man in range(n):
            assert local_ags(inst, rounds, man) == statuses[man], (n, k, rounds, seed, man)


def test_local_woman_view_consistent():
    n, k, rounds = 120, 3, 18
    inst = MatchingInstance.seeded(n, k, 23)
    statuses, _ = abridged_gs(inst, rounds)
    holder = {st.partner: man for man, st in statuses.items() if st.state == MATCHED}
    for w in range(inst.m):
        got = local_ags_woman(inst, rounds, w)
        if w in holder:
            assert got == ManStatus.matched(holder[w])
        else:
            assert got.state == UNMATCHED


def test_local_probe_budget_is_ball_bounded():
    # the radius-4 ball stays the same size when n grows tenfold
    for n in (400, 4000):
        worst = 0
        inst = MatchingInstance.seeded(n, 3, 5)
        for q in range(0, n, n // 20):
            counter = ProbeCounter()
            local_ags(inst, 2, q, counter)
            worst = max(worst, counter.count)
        assert 0 < worst < 400, (n, worst)


def _assert_local_equals_global(inst, rounds):
    """Every man and woman query equals the truncated global run; returns
    the global statuses."""
    statuses, _ = abridged_gs(inst, rounds)
    holder = {st.partner: man for man, st in statuses.items() if st.state == MATCHED}
    for man in range(inst.n):
        assert local_ags(inst, rounds, man) == statuses[man], (rounds, man)
    for w in range(inst.m):
        want = ManStatus.matched(holder[w]) if w in holder else ManStatus(UNMATCHED)
        assert local_ags_woman(inst, rounds, w) == want, (rounds, w)
    return statuses


def _displacement_chain(length: int) -> MatchingInstance:
    """Man i lists women i and i + 1 and man `length` lists woman 0, who
    ranks him first: each man is pushed on to the next woman one round
    after the man before him, so the run takes one round per man."""
    return MatchingInstance(
        [[i, i + 1] for i in range(length)] + [[0]],
        m=length + 1,
        women_prefs=[[length, 0]] + [[i - 1, i] for i in range(1, length)] + [[length - 1]],
    )


@pytest.mark.parametrize("length", [1, 6, 3000])
def test_global_run_is_the_run_at_n_k_rounds(length):
    # each round with proposers makes a proposal and a run makes at most
    # n·k, so global_gs runs abridged_gs at n·k rounds; a displacement
    # chain needs n of them, and one fewer leaves its last man disqualified
    inst = _displacement_chain(length)
    statuses, stats = abridged_gs(inst, 10**6)
    assert len(stats) == inst.n <= inst.n * inst.k
    assert global_gs(inst) == statuses == abridged_gs(inst, inst.n)[0]
    assert {st.state for st in statuses.values()} == {MATCHED}
    cut, _ = abridged_gs(inst, inst.n - 1)
    assert cut[inst.n - 2].state == DISQUALIFIED


def test_local_equals_global_on_hand_built_instances():
    cases = [
        # partial rankings: unlisted men tie at -1 and the smaller id wins;
        # woman 1 lists nobody, so ids alone decide there
        MatchingInstance(
            [[0, 1], [0, 2], [1, 0], [0, 1, 2]],
            m=3,
            women_prefs=[[2], [], [3, 1, 0, 2]],
        ),
        # empty lists, and a woman nobody lists
        MatchingInstance([[], [0], [], [0, 1]], m=3, seed=4),
        # n = 1
        MatchingInstance([[0]], m=1),
        MatchingInstance([[]], m=2),
        MatchingInstance([[1, 0]], m=2, women_prefs=[[0], []]),
        # the round-1 loser keeps an untried name: disqualified at rounds=1
        MatchingInstance([[0, 1], [0, 1]], m=2, women_prefs=[[1, 0], [0, 1]]),
        _displacement_chain(6),
        # dependency cycles in which an assumed "not yet" turns out wrong at
        # rounds=5, so the query has to rerun its attempt
        MatchingInstance(
            [[], [2], [2, 0, 1], [1, 0], [], [0, 2], [1], [1, 2, 0], []],
            m=3,
            women_prefs=[
                [8, 7, 0, 6, 1, 4, 2, 5, 3],
                [0, 6, 5, 8, 2, 7, 3, 1, 4],
                [3, 6, 5, 7, 0, 2, 4, 1, 8],
            ],
        ),
        MatchingInstance(
            [[1, 4, 2, 0], [4, 1], [0, 1, 4, 2, 3], [0, 4, 1]],
            m=5,
            women_prefs=[[0, 3, 1, 2], [1, 2, 3, 0], [2, 0, 3, 1], [1, 2, 3, 0], [2, 0, 1, 3]],
        ),
    ]
    seen = set()
    for inst in cases:
        for rounds in (1, 2, 3, 4, 5, 6, 7, 50):
            statuses = _assert_local_equals_global(inst, rounds)
            seen.update((st.state, rounds == 1) for st in statuses.values())
    assert (DISQUALIFIED, True) in seen and (DISQUALIFIED, False) in seen
    assert {UNMATCHED, MATCHED} <= {state for state, _ in seen}


def test_local_equals_global_on_random_small_instances():
    # dense little instances with partial rankings close many "he stays
    # until she is taken" cycles, at small and very large round budgets
    rng = random.Random(20140)
    for trial in range(1500):
        n, m = rng.randint(1, 14), rng.randint(1, 8)
        k = rng.randint(0, min(m, 6))
        prefs = [rng.sample(range(m), rng.randint(0, k)) for _ in range(n)]
        women = None
        if trial % 2:
            women = [rng.sample(range(n), rng.randint(0, n)) for _ in range(m)]
        inst = MatchingInstance(prefs, m=m, women_prefs=women, seed=trial)
        _assert_local_equals_global(inst, rng.choice([1, 2, 3, 7, 13, 40, 10**5]))


# round budgets at which a man's radius-2·rounds ball holds a median 2%, 13%,
# 51% and 97.5% of the 600 records of MatchingInstance.seeded(300, 3, 17), and
# a woman's 2%, 9%, 42% and 97.5%: only the small balls leave reads to miss
BALL_BUDGETS = (1, 2, 3, 18)


def test_local_reads_within_the_round_ball():
    inst = MatchingInstance.seeded(300, 3, 17)
    for rounds in BALL_BUDGETS:
        for man in range(inst.n):
            counter = ProbeCounter()
            local_ags(inst, rounds, man, counter)
            ball = neighborhood(inst.oracle, (LEFT, man), 2 * rounds)
            assert counter.seen <= ball, (rounds, man)


def test_local_woman_reads_within_the_round_ball():
    inst = MatchingInstance.seeded(300, 3, 17)
    for rounds in BALL_BUDGETS:
        for w in range(inst.m):
            counter = ProbeCounter()
            local_ags_woman(inst, rounds, w, counter)
            ball = neighborhood(inst.oracle, (RIGHT, w), 2 * rounds)
            assert counter.seen <= ball, (rounds, w)


def test_local_woman_stops_at_a_first_choice_best_suitor():
    # her best suitor proposes to her in round 1 and she never lets him go,
    # so settling her (one probe per suitor list) is all the query reads
    rounds = 18
    for seed in (0, 1):
        inst = MatchingInstance.seeded(1024, 3, seed)
        checked = 0
        for w in range(inst.m):
            suitors = inst.oracle.cols[w]
            if not suitors:
                continue
            best = max(suitors, key=lambda man: inst.priority_key(w, man))
            if inst.oracle.rows[best][0] != w:
                continue
            counter = ProbeCounter()
            assert local_ags_woman(inst, rounds, w, counter) == ManStatus.matched(best)
            assert counter.count == len(suitors), (seed, w)
            checked += 1
        assert checked > 300, seed


# Small fixed instances with explicit rankings, and the exact probe count of
# every man and woman query at one round budget.  The counts pin the rival
# scan of `_RejectionRounds._frame`: asking a rival who arrives after the
# limit, or scanning on past one who arrives with the man, reads records the
# answer does not need.  A woman who ranks nobody ties all her suitors at -1,
# the smaller id first.
RIVAL_SCAN_PINS = [
    (
        [[], [1, 4], [2, 5, 4], [5, 0, 4], [5, 2, 1], [5], [], [4], [4, 2]],
        [[], [4], [8], [], [3], [5]],
        4,
        [0, 11, 10, 5, 8, 4, 0, 11, 7],
        [5, 8, 7, 0, 11, 4],
    ),
    (
        [[], [], [4, 0], [], [2, 0, 3], [4], [0, 3], [], [], [2], [], [1, 3]],
        [[], [], [9], [11, 6], [5]],
        2,
        [0, 0, 5, 0, 7, 2, 5, 0, 0, 2, 0, 1],
        [5, 1, 2, 6, 2],
    ),
    (
        [[], [], [4, 0], [], [2, 0, 3], [4], [0, 3], [], [], [2], [], [1, 3]],
        [[], [], [9], [11, 6], [5]],
        4,
        [0, 0, 5, 0, 9, 2, 8, 0, 0, 2, 0, 1],
        [5, 1, 2, 8, 2],
    ),
]


@pytest.mark.parametrize("men, women, rounds, man_probes, woman_probes", RIVAL_SCAN_PINS)
def test_rival_scan_probe_counts_are_pinned(men, women, rounds, man_probes, woman_probes):
    inst = MatchingInstance(men, m=len(women), women_prefs=women)
    statuses, _ = abridged_gs(inst, rounds)
    got = []
    for man in range(inst.n):
        counter = ProbeCounter()
        assert local_ags(inst, rounds, man, counter) == statuses[man], man
        got.append(counter.count)
    assert got == man_probes
    got = []
    for w in range(inst.m):
        counter = ProbeCounter()
        local_ags_woman(inst, rounds, w, counter)
        got.append(counter.count)
    assert got == woman_probes


# (n, k, seed, rounds, the `_RejectionRounds._frame` evaluations of all n
# man queries).  The counts pin the memo's exactness as well as its answers:
# a memo that kept a settled round as a mere lower bound would evaluate its
# node again (235 and 123 frames on the first two with `store` keeping an
# answer equal to its budget as a lower bound).
FRAME_PINS = [(12, 6, 1, 10, 209), (8, 6, 0, 10, 118), (10, 4, 2, 10, 134)]


@pytest.mark.parametrize("n, k, seed, rounds, frames", FRAME_PINS)
def test_rejection_round_frames_are_pinned(n, k, seed, rounds, frames, monkeypatch):
    frame = _RejectionRounds._frame
    calls = []

    def counting(self, question):
        calls.append(question)
        return frame(self, question)

    monkeypatch.setattr(_RejectionRounds, "_frame", counting)
    inst = MatchingInstance.seeded(n, k, seed)
    statuses, _ = abridged_gs(inst, rounds)
    for man in range(n):
        assert local_ags(inst, rounds, man) == statuses[man], man
    assert len(calls) == frames


def test_local_k1_cost_is_the_womans_suitor_record():
    # her suitor record plus every other suitor's list; his own is free
    inst = MatchingInstance.seeded(500, 1, 3)
    for man in range(inst.n):
        counter = ProbeCounter()
        local_ags(inst, 2, man, counter)
        assert counter.count == len(inst.oracle.cols[inst.oracle.rows[man][0]]), man


def test_local_is_exact_at_huge_round_budgets():
    rounds = 10**5
    _assert_local_equals_global(MatchingInstance.seeded(100, 8, 7), rounds)
    # a displacement chain thousands of rounds long: the query follows it
    # on an explicit stack, far past the interpreter's recursion limit
    chain = 3000
    inst = _displacement_chain(chain)
    for r in (chain, rounds):
        statuses, _ = abridged_gs(inst, r)
        for man in (0, chain // 2, chain - 1):
            assert local_ags(inst, r, man) == statuses[man], (r, man)
    assert local_ags(inst, chain, chain - 1).state == DISQUALIFIED
    assert local_ags(inst, rounds, chain - 1) == ManStatus.matched(chain)
    assert local_ags_woman(inst, rounds, chain) == ManStatus.matched(chain - 1)


def test_local_validates_arguments():
    inst = MatchingInstance.seeded(10, 2, 0)
    with pytest.raises(ValueError):
        local_ags(inst, 0, 1)
    with pytest.raises(ValueError):
        local_ags(inst, 3, 10)


def test_rounds_for_epsilon_reference_points():
    assert rounds_for_epsilon(1, 1.0) == 4
    assert rounds_for_epsilon(3, 0.5) == 37
    assert rounds_for_epsilon(3, 0.25) == 69
    with pytest.raises(ValueError):
        rounds_for_epsilon(0, 0.5)
    with pytest.raises(ValueError):
        rounds_for_epsilon(3, 0.0)


def test_seeded_lists_are_reproducible_and_sized():
    inst = MatchingInstance.seeded(50, 4, 2)
    again = MatchingInstance.seeded(50, 4, 2)
    assert inst.oracle.rows == again.oracle.rows
    assert all(len(lst) == 4 and len(set(lst)) == 4 for lst in inst.oracle.rows)


# ---------------------------------------------------------------------------
# priority keys: the global run's key rows and the local query's suitor keys
# are priority_key, the per-pair definition
# ---------------------------------------------------------------------------

_KEY_CASES = {
    # 4,500 (woman, suitor) pairs: two lane blocks, ids past the leaf table
    "two-blocks": lambda: MatchingInstance.seeded(1500, 3, 2),
    "n1": lambda: MatchingInstance.seeded(1, 1, 0),
    "n0": lambda: MatchingInstance([], m=3),
    "ragged": lambda: MatchingInstance([[0, 300, 5], [], [299], [7, 1]], m=301, seed=4),
    # more than one lane block of stems and of leaves, the shorter table
    # on either side
    "wide-women": lambda: _listed(4200, 5000, 3, 6),
    "wide-men": lambda: _listed(5000, 4200, 3, 7),
    # men 0 and 3 are missing from woman 0's ranking, and woman 2 ranks no
    # one, so men 0 and 1 tie for her in round 1 (key -1 each)
    "explicit": lambda: MatchingInstance(
        [[2, 0], [2, 1], [0, 1], [0]], m=3, women_prefs=[[2], [1, 2, 0], []]
    ),
}


def _listed(n, m, k, seed):
    """n men listing k distinct women of m each, drawn by `random.Random`."""
    rng = random.Random(seed)
    return MatchingInstance([rng.sample(range(m), k) for _ in range(n)], m=m, seed=seed)


def _reference_statuses(inst, rounds):
    """Simultaneous proposal rounds, each woman keeping the best by
    priority_key of her holder and her new suitors; with each round's
    (rejections, rejected with names left, exhausted so far, matched)."""
    prefs, nxt, holder = inst.oracle.rows, [0] * inst.n, {}
    free = [man for man in range(inst.n) if prefs[man]]
    stats = []
    for _ in range(rounds):
        if not free:
            break
        rejected = []
        for man in free:
            w = prefs[man][nxt[man]]
            cur = holder.get(w)
            if cur is not None and inst.priority_key(w, cur) > inst.priority_key(w, man):
                rejected.append(man)
            else:
                if cur is not None:
                    rejected.append(cur)
                holder[w] = man
        for man in rejected:
            nxt[man] += 1
        free = [man for man in rejected if nxt[man] < len(prefs[man])]
        exhausted = sum(nxt[man] == len(prefs[man]) for man in range(inst.n))
        stats.append((len(rejected), len(free), exhausted, len(holder)))
    partner = {man: w for w, man in holder.items()}
    return {
        man: ManStatus.matched(partner[man])
        if man in partner
        else ManStatus(DISQUALIFIED if man in free else UNMATCHED)
        for man in range(inst.n)
    }, stats


def _reference_blocking(inst, statuses):
    man_of = {st.partner: man for man, st in statuses.items() if st.state == MATCHED}
    pairs = []
    for man, st in statuses.items():
        if st.state == DISQUALIFIED:
            continue
        lst = inst.oracle.rows[man]
        for w in lst[: lst.index(st.partner)] if st.state == MATCHED else lst:
            cur = man_of.get(w)
            if cur is None or inst.priority_key(w, man) > inst.priority_key(w, cur):
                pairs.append((man, w))
    return sorted(pairs)


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_key_rows_and_suitor_keys_are_priority_key(case):
    inst = _KEY_CASES[case]()
    # the pairs of every man and the women of his list, cut at a depth
    # below the longest list, as the proposals of that many rounds; and in
    # reverse, so no pair leans on the one before
    for depth in sorted({0, 1, max(inst.k - 1, 0), inst.k}):
        pairs = [(w, man) for man, lst in enumerate(inst.oracle.rows) for w in lst[:depth]]
        want = [inst.priority_key(w, man)[0] for w, man in pairs]
        for step in (1, -1):
            women, men = [w for w, _ in pairs[::step]], [man for _, man in pairs[::step]]
            assert inst.proposal_keys(women, men) == want[::step], depth
    for w in range(inst.m):
        men = inst.oracle.cols[w]
        assert inst.suitor_keys(w, men) == [inst.priority_key(w, man)[0] for man in men]


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_global_run_and_blocking_pairs_follow_priority_key(case):
    inst = _KEY_CASES[case]()
    # round budgets shorter than the longest list leave men disqualified
    for rounds in (1, 2, inst.n * inst.k + 1):
        want, want_stats = _reference_statuses(inst, rounds)
        statuses, stats = abridged_gs(inst, rounds)
        assert statuses == want, rounds
        assert [
            (s.rejections, s.rejected_with_remaining, s.exhausted_total, s.matched)
            for s in stats
        ] == want_stats, rounds
        assert [s.round_index for s in stats] == list(range(1, len(stats) + 1))
        assert blocking_pairs(inst, statuses) == _reference_blocking(inst, statuses)
        # disqualified men read as unmatched become blockers
        unmatched = {
            man: ManStatus(UNMATCHED) if st.state == DISQUALIFIED else st
            for man, st in statuses.items()
        }
        assert blocking_pairs(inst, unmatched) == _reference_blocking(inst, unmatched)
    assert global_gs(inst) == _reference_statuses(inst, inst.n * inst.k + 1)[0]


def test_seeded_queries_and_runs_hash_no_key(monkeypatch):
    # a seeded instance draws its stem and leaf tables at build: its local
    # queries and global runs only mix them
    n, k, rounds = 200, 3, 18
    inst = MatchingInstance.seeded(n, k, 29)

    def refuse(tape, key):
        raise AssertionError(f"hashed {key}")

    monkeypatch.setattr(RandomTape, "_state", refuse)
    statuses, _ = abridged_gs(inst, rounds)
    assert [local_ags(inst, rounds, man) for man in range(n)] == [statuses[i] for i in range(n)]
    holder = {st.partner: man for man, st in statuses.items() if st.state == MATCHED}
    for w in range(inst.m):
        want = ManStatus.matched(holder[w]) if w in holder else ManStatus(UNMATCHED)
        assert local_ags_woman(inst, rounds, w) == want


def test_suitor_keys_refuse_ids_outside_the_tables():
    # a negative id would read the last stem or leaf of an array table
    inst = MatchingInstance.seeded(5, 2, 1)
    assert inst.suitor_keys(4, [4, 0]) == [inst.priority_key(4, man)[0] for man in (4, 0)]
    for woman, men in ((-1, [0]), (5, [0]), (0, [-1]), (0, [1, 5])):
        with pytest.raises(IndexError):
            inst.suitor_keys(woman, men)
        with pytest.raises(IndexError):
            inst.proposal_keys([woman] * len(men), men)


@pytest.mark.parametrize("ranked", [False, True])
def test_keys_refuse_a_woman_or_man_outside_the_instance(ranked):
    # n = 3 men, m = 4 women; explicit rankings once read woman -1 as woman
    # m - 1, and a seeded priority_key hashed any pair of ints
    prefs = [[0, 3], [1, 2], [3]]
    women = [[0], [1, 0], [1], [2, 0]] if ranked else None
    inst = MatchingInstance(prefs, m=4, seed=3, women_prefs=women)
    for woman in (-1, 0, 3, 4):
        for man in (-1, 0, 2, 3):
            if 0 <= woman < 4 and 0 <= man < 3:
                assert inst.suitor_keys(woman, [man]) == [inst.priority_key(woman, man)[0]]
                assert inst.proposal_keys([woman], [man]) == [inst.priority_key(woman, man)[0]]
                continue
            with pytest.raises(IndexError):
                inst.priority_key(woman, man)
            with pytest.raises(IndexError):
                inst.suitor_keys(woman, [man])
            with pytest.raises(IndexError):
                inst.suitor_keys(woman, [0, man, 1])
            with pytest.raises(IndexError):
                inst.proposal_keys([woman], [man])
            with pytest.raises(IndexError):
                inst.proposal_keys([0, woman, 1], [0, man, 1])
    for woman in (0, 3):
        assert inst.suitor_keys(woman, []) == []
    assert inst.proposal_keys([], []) == []
    for woman in (-1, 4):
        with pytest.raises(IndexError):
            inst.suitor_keys(woman, [])
