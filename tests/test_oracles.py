"""Reference solvers: brute-force cross-checks and majorization toolkit."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from localmech import oracles
from localmech.oracles import (
    _restricted_feasible,
    majorizes,
    max_matching,
    max_weight_matching,
    optimal_makespan,
    optimal_packing,
    slot_load_vector,
    uniform_majorizes_nonuniform,
)

# ---------------------------------------------------------------------------
# slot vectors and majorization
# ---------------------------------------------------------------------------


def test_slot_load_vector_examples():
    assert slot_load_vector((7,), (3,)) == (3, 2, 2)
    assert slot_load_vector((5, 3), (2, 3)) == (3, 2, 1, 1, 1)
    assert slot_load_vector((), ()) == ()
    with pytest.raises(ValueError):
        slot_load_vector((1, 2), (1,))
    with pytest.raises(ValueError):
        slot_load_vector((1,), (0,))
    with pytest.raises(ValueError):
        slot_load_vector((-1,), (1,))


def test_majorizes_basics():
    assert majorizes((3, 1), (2, 2))
    assert not majorizes((2, 2), (3, 1))
    assert majorizes((2, 2), (2, 2))
    # comparison runs over the shorter prefix of the descending sorts
    assert majorizes((5,), (3, 3, 3))


def test_majorizes_leaves_inputs_alone():
    p = [1, 3, 2]
    q = [2, 2, 2]
    majorizes(p, q)
    assert p == [1, 3, 2] and q == [2, 2, 2]


def _random_split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_majorizes_reflexive_and_transitive():
    rng = random.Random(11)
    for _ in range(200):
        parts = rng.randrange(1, 6)
        p = _random_split(rng, 12, parts)
        assert majorizes(p, p)
    checked = 0
    while checked < 100:
        parts = rng.randrange(2, 6)
        p = _random_split(rng, 12, parts)
        q = _random_split(rng, 12, parts)
        r = _random_split(rng, 12, parts)
        if majorizes(p, q) and majorizes(q, r):
            assert majorizes(p, r)
            checked += 1


def test_uniform_majorizes_nonuniform_small_profiles():
    for caps in ((2, 3), (1, 1, 4)):
        ok, witness = uniform_majorizes_nonuniform(caps, m=2 * sum(caps), trials=200)
        assert ok, witness
        assert witness is None
    with pytest.raises(ValueError):
        uniform_majorizes_nonuniform((1, 0), m=2, trials=1)


def test_uniform_majorizes_nonuniform_reports_the_first_failing_trial(monkeypatch):
    monkeypatch.setattr(oracles, "majorizes", lambda p, q: False)
    ok, witness = uniform_majorizes_nonuniform((2, 1), 5, 3, seed=1)
    assert not ok
    assert witness["trial"] == 0 and witness["caps"] == (2, 1)
    assert set(witness) == {
        "trial", "caps", "uniform_vector", "nonuniform_slots",
        "uniform_max_load", "nonuniform_max_load",
    }
    # both systems place the 5 jobs over 3 unit slots, largest first
    for key in ("uniform_vector", "nonuniform_slots"):
        vec = witness[key]
        assert len(vec) == 3 and sum(vec) == 5 and list(vec) == sorted(vec, reverse=True)
    assert witness["uniform_max_load"] == max(witness["uniform_vector"])
    # a machine's h jobs over its c slots put ⌈h/c⌉ in the fullest slot
    assert math.ceil(witness["nonuniform_max_load"]) == max(witness["nonuniform_slots"])


def test_slot_order_refuses_a_position_beyond_its_pool():
    # caps (2, 1): machine 0's two slots, then machine 1's one
    order = oracles._SlotOrder((2, 1))
    assert [order.machine_at(p) for p in range(3)] == [0, 0, 1]
    with pytest.raises(IndexError) as err:
        order.machine_at(3)
    assert str(err.value) == "position beyond slot pool"


# ---------------------------------------------------------------------------
# matching and packing baselines vs exhaustive search
# ---------------------------------------------------------------------------


def _brute_matching(adj, n_right):
    def go(u, used):
        if u == len(adj):
            return 0
        best = go(u + 1, used)
        for v in adj[u]:
            if v not in used:
                best = max(best, 1 + go(u + 1, used | {v}))
        return best

    return go(0, frozenset())


def _brute_weight(weights):
    n, m = len(weights), len(weights[0]) if weights else 0

    def go(u, used):
        if u == n:
            return 0
        best = go(u + 1, used)
        for v in range(m):
            if v not in used:
                best = max(best, weights[u][v] + go(u + 1, used | {v}))
        return best

    return go(0, frozenset())


def test_max_matching_agrees_with_exhaustive():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        adj = [
            tuple(v for v in range(m) if rng.random() < 0.4) for _ in range(n)
        ]
        assert max_matching(adj, m) == _brute_matching(adj, m), adj


def test_max_matching_refuses_unknown_right_vertices():
    # -1 would index the last right vertex, 2 the one past the end
    for r in (-1, 2):
        with pytest.raises(ValueError, match=f"left vertex 0 names right vertex {r},"):
            max_matching([(r,)], 2)


def test_max_matching_walks_long_augmenting_chains():
    # each vertex u first takes u + 1, so the last vertex's only augmenting
    # path moves every earlier one back to u: a path of 3,000 steps
    adj = [(u + 1, u) for u in range(2999)] + [(2999,)]
    assert max_matching(adj, 3000) == 3000


def test_max_weight_matching_agrees_with_exhaustive():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        weights = [[rng.randrange(10) for _ in range(m)] for _ in range(n)]
        got = max_weight_matching(weights)
        assert got == _brute_weight(weights), weights
        assert isinstance(got, int)
    assert max_weight_matching([]) == 0
    with pytest.raises(ValueError):
        max_weight_matching([[1, -2]])


def test_max_weight_matching_is_exact_on_fractions():
    rng = random.Random(19)
    for _ in range(30):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        weights = [
            [Fraction(rng.randrange(10), rng.randrange(1, 7)) for _ in range(m)]
            for _ in range(n)
        ]
        got = max_weight_matching(weights)
        assert isinstance(got, Fraction)
        assert got == _brute_weight(weights), weights
    # 2**53 + 1 rounds to 2**53 as a float, which ties the two entries
    assert max_weight_matching([[2**53, 2**53 + 1], [0, 0]]) == 2**53 + 1


def test_max_weight_matching_refusals():
    with pytest.raises(ValueError, match="rectangular"):
        max_weight_matching([[1, 2], [3]])
    with pytest.raises(ValueError, match="rectangular"):
        max_weight_matching([[], [1]])
    with pytest.raises(ValueError, match="capped at 20"):
        max_weight_matching([[1] * 21 for _ in range(21)])
    # only the smaller side is capped
    assert max_weight_matching([[1] * 3 for _ in range(25)]) == 3
    assert max_weight_matching([[1] * 25 for _ in range(3)]) == 3


def _brute_packing(sets, values):
    n = len(sets)
    best = 0
    for r in range(1, n + 1):
        for pick in combinations(range(n), r):
            fs = [frozenset(sets[i]) for i in pick]
            if sum(len(s) for s in fs) == len(frozenset().union(*fs)):
                best = max(best, sum(values[i] for i in pick))
    return best


def test_optimal_packing_agrees_with_exhaustive():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 9)
        sets = [
            tuple(rng.sample(range(6), rng.randrange(1, 4))) for _ in range(n)
        ]
        values = [rng.randrange(1, 20) for _ in range(n)]
        assert optimal_packing(sets, values) == _brute_packing(sets, values)
    with pytest.raises(ValueError):
        optimal_packing([(0,)] * 21, [1] * 21)
    with pytest.raises(ValueError):
        optimal_packing([(0,)], [1, 2])


# ---------------------------------------------------------------------------
# makespan oracle
# ---------------------------------------------------------------------------


def test_optimal_makespan_examples():
    assert optimal_makespan((2,), 5) == Fraction(5, 2)
    assert optimal_makespan((1, 1), 3) == Fraction(2)
    assert optimal_makespan((3,), 0) == Fraction(0)
    assert optimal_makespan((1, 1), 2, menus=[(0,), (0,)]) == Fraction(2)
    with pytest.raises(ValueError):
        optimal_makespan((0,), 1)
    with pytest.raises(ValueError):
        optimal_makespan((1,), 2, menus=[(0,)])
    with pytest.raises(ValueError):
        optimal_makespan((1, 1), 1, menus=[()])


def test_optimal_makespan_refuses_unknown_or_no_machines():
    with pytest.raises(ValueError, match="infeasible"):
        optimal_makespan((), 1)
    with pytest.raises(ValueError, match="job 0's menu .* unknown machine"):
        optimal_makespan((1, 1), 1, menus=[(-1,)])
    with pytest.raises(ValueError, match="job 0's menu .* unknown machine"):
        optimal_makespan((1,), 1, menus=[(5,)])
    with pytest.raises(ValueError, match="job 2's menu"):
        optimal_makespan((1, 1), 3, menus=[(0,), (1,), (0, 2)])


def _exhaustive_feasible(menus, budget, m):
    left = list(budget)

    def go(j):
        if j == m:
            return True
        for i in set(menus[j]):
            if left[i] > 0:
                left[i] -= 1
                if go(j + 1):
                    left[i] += 1
                    return True
                left[i] += 1
        return False

    return go(0)


def test_flow_feasibility_agrees_with_exhaustive_search():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 9)
        budget = [rng.randrange(0, 4) for _ in range(n)]
        menus = [
            tuple(rng.sample(range(n), rng.randrange(1, n + 1))) for _ in range(m)
        ]
        assert _restricted_feasible(menus, budget, m) == _exhaustive_feasible(
            menus, budget, m
        ), (menus, budget)


def _hall_feasible(menus, budget):
    # Hall's condition: for every set S of machines, the jobs whose menu lies
    # inside S number at most S's total budget
    n = len(budget)
    masks = [sum(1 << i for i in set(menu)) for menu in menus]
    return all(
        sum(mask & ~S == 0 for mask in masks)
        <= sum(budget[i] for i in range(n) if S >> i & 1)
        for S in range(1 << n)
    )


def test_restricted_feasibility_agrees_with_halls_condition():
    rng = random.Random(23)
    feasible = 0
    for _ in range(300):
        n = rng.randrange(1, 9)
        m = rng.randrange(1, 41)
        budget = [rng.randrange(0, 8) for _ in range(n)]
        menus = [
            tuple(rng.randrange(n) for _ in range(rng.randrange(1, 4))) for _ in range(m)
        ]
        got = _restricted_feasible(menus, budget, m)
        assert got == _hall_feasible(menus, budget), (menus, budget)
        feasible += got
    assert 30 < feasible < 270  # both answers are well represented


def test_restricted_makespan_agrees_with_exhaustive_scan():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 7)
        caps = tuple(rng.randrange(1, 4) for _ in range(n))
        menus = [
            tuple(rng.sample(range(n), rng.randrange(1, n + 1))) for _ in range(m)
        ]
        candidates = sorted({Fraction(h, c) for c in set(caps) for h in range(1, m + 1)})
        brute = next(
            T
            for T in candidates
            if _exhaustive_feasible(
                menus, [(T.numerator * c) // T.denominator for c in caps], m
            )
        )
        assert optimal_makespan(caps, m, menus) == brute, (caps, menus)
