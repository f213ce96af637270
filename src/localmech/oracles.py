"""Exact reference solvers and the majorization toolkit.

Everything here is a baseline the mechanisms are judged against: prefix-sum
majorization of load vectors, the paired uniform-vs-nonuniform simulation,
exact matching / packing / makespan optima.  Solvers are pure Python and
favour correctness over scale: matching and makespan feasibility share one
augmenting-path placer, and the exhaustive weight-matching and packing
oracles hard-cap their input size instead of silently approximating.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .randomness import RandomTape, uniform_rows

__all__ = [
    "slot_load_vector",
    "majorizes",
    "uniform_majorizes_nonuniform",
    "max_matching",
    "max_weight_matching",
    "optimal_packing",
    "optimal_makespan",
]


def slot_load_vector(heights: Sequence[int], caps: Sequence[int]) -> tuple[int, ...]:
    """Per-slot job counts: a machine with h jobs and c slots carries h mod c
    slots of ⌈h/c⌉ followed by the rest at ⌊h/c⌋."""
    if len(heights) != len(caps):
        raise ValueError("heights and caps must have equal length")
    out: list[int] = []
    for h, c in zip(heights, caps):
        if c < 1:
            raise ValueError("capacities must be positive")
        if h < 0:
            raise ValueError("heights must be non-negative")
        low, heavy = divmod(h, c)
        out.extend([low + 1] * heavy)
        out.extend([low] * (c - heavy))
    return tuple(out)


def majorizes(p: Sequence, q: Sequence) -> bool:
    """Prefix-sum dominance of the descending sorts, up to the shorter length."""
    ps = sorted(p, reverse=True)
    qs = sorted(q, reverse=True)
    acc_p = acc_q = 0
    for a, b in zip(ps, qs):
        acc_p += a
        acc_q += b
        if acc_p < acc_q:
            return False
    return True


# ---------------------------------------------------------------------------
# paired uniform-vs-nonuniform simulation
# ---------------------------------------------------------------------------


class _SlotOrder:
    """Slot-count bookkeeping in canonical descending order (count desc,
    then machine asc, then in-machine slot index asc), with O(1)-ish updates.

    Positions index the canonical order; `machine_at` answers "whose slot
    sits at position p", which is all the coupled simulation needs."""

    def __init__(self, caps: Sequence[int]) -> None:
        self.caps = tuple(caps)
        self.h = [0] * len(self.caps)
        start = []
        for i, c in enumerate(self.caps):
            start.extend((i, s) for s in range(c))
        self.buckets: dict[int, list[tuple[int, int]]] = {0: start}
        self.values: list[int] = [0]  # ascending; walked in reverse

    def machine_at(self, pos: int) -> int:
        for v in reversed(self.values):
            b = self.buckets[v]
            if pos < len(b):
                return b[pos][0]
            pos -= len(b)
        raise IndexError("position beyond slot pool")

    def lp(self, i: int) -> int:
        return (self.h[i] + 1) // self.caps[i]

    def place(self, i: int) -> None:
        h = self.h[i]
        low, idx = divmod(h, self.caps[i])
        ref = (i, idx)
        b = self.buckets[low]
        del b[bisect_left(b, ref)]
        if not b:
            del self.buckets[low]
            self.values.remove(low)
        nb = self.buckets.get(low + 1)
        if nb is None:
            nb = self.buckets[low + 1] = []
            insort(self.values, low + 1)
        insort(nb, ref)
        self.h[i] = h + 1


def uniform_majorizes_nonuniform(
    caps: Sequence[int], m: int, trials: int, seed: int = 0
) -> tuple[bool, dict | None]:
    """Paired simulation: system A runs the floored-load rule on `caps`;
    system B runs it on C = Σcaps unit machines.  Every job draws the same
    two positions k₁ ≤ k₂ into both systems' descending slot orders and is
    placed by the same rule (less-loaded of the two; ties to k₂'s machine).
    Checks, per trial, that B's load vector majorizes A's slot-load vector
    and that B's max load ≥ A's max load.  Returns (all_ok, first_witness).
    """
    caps = tuple(caps)
    if any(c < 1 for c in caps):
        raise ValueError("capacities must be positive")
    C = sum(caps)
    tape = RandomTape(seed)
    unit = (1,) * C
    for t in range(trials):
        a = _SlotOrder(caps)
        b = _SlotOrder(unit)
        # step s draws its k1, k2 under ("tau", t, s, 0) and ("tau", t, s, 1)
        for k1, k2 in uniform_rows(tape, ("tau", t), m, C, 2):
            lo, hi = (k1, k2) if k1 <= k2 else (k2, k1)
            for system in (a, b):
                mi, mj = system.machine_at(lo), system.machine_at(hi)
                if mi == mj:
                    win = mi
                else:
                    win = mi if system.lp(mi) < system.lp(mj) else mj
                system.place(win)
        vec_a = slot_load_vector(a.h, caps)
        vec_b = tuple(b.h)
        max_a = max(Fraction(h, c) for h, c in zip(a.h, caps))
        max_b = Fraction(max(b.h))
        if not majorizes(vec_b, vec_a) or max_b < max_a:
            witness = {
                "trial": t,
                "caps": caps,
                "uniform_vector": tuple(sorted(vec_b, reverse=True)),
                "nonuniform_slots": tuple(sorted(vec_a, reverse=True)),
                "uniform_max_load": max_b,
                "nonuniform_max_load": max_a,
            }
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# exact combinatorial baselines
# ---------------------------------------------------------------------------


def _placements(adj: Sequence[Sequence[int]], caps: Sequence[int]) -> Iterator[bool]:
    """Place each left vertex u in turn on one of adj[u], with right vertex r
    holding at most caps[r] of them, and yield whether u got a place.

    u takes a free right vertex of its own if it has one, and otherwise the
    end of an augmenting path found by BFS (Kuhn's method).  A vertex with
    no augmenting path never gets one later, so a caller may stop at the
    first False."""
    holders: list[list[int]] = [[] for _ in caps]
    spot: list[int | None] = [None] * len(adj)  # each placed vertex's right vertex
    for u in range(len(adj)):
        came: dict[int, int] = {}  # right vertex -> the left vertex that moves onto it
        queue, free = [u], None
        for x in queue:
            for r in adj[x]:
                if r in came:
                    continue
                came[r] = x
                if len(holders[r]) < caps[r]:
                    free = r
                    break
                queue.extend(holders[r])  # queued only from its own right vertex: once
            if free is not None:
                break
        else:
            yield False
            continue
        r = free
        while r is not None:  # each vertex on the path moves one step along it
            x = came[r]
            if spot[x] is not None:
                holders[spot[x]].remove(x)
            holders[r].append(x)
            spot[x], r = r, spot[x]
        yield True


def max_matching(adj: Sequence[Iterable[int]], n_right: int) -> int:
    """Maximum bipartite matching size via augmenting paths."""
    rows = [tuple(a) for a in adj]
    for u, r in ((u, r) for u, row in enumerate(rows) for r in row if not 0 <= r < n_right):
        raise ValueError(f"left vertex {u} names right vertex {r}, not in 0..{n_right - 1}")
    return sum(_placements(rows, [1] * n_right))


def max_weight_matching(weights: Sequence[Sequence]):
    """Maximum-weight bipartite matching value (missing edges = weight 0),
    exhaustive over the smaller side and capped at 20: row by row, it keeps
    the best total for each set of used columns, summed in the entries' own
    type, so the value is exact for ints and Fractions alike."""
    rows = [tuple(r) for r in weights]
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("weights must be a rectangular matrix")
    if any(x < 0 for r in rows for x in r):
        raise ValueError("weights must be non-negative")
    if not width:
        return 0
    if len(rows) < width:
        rows = list(zip(*rows))
    if len(rows[0]) > 20:
        raise ValueError("weight matching is exhaustive; capped at 20 on the smaller side")
    best = {0: rows[0][0] * 0}  # used-column bitmask -> best total
    for row in rows:
        for used, acc in list(best.items()):
            for c, w in enumerate(row):
                key = used | 1 << c
                if w and key != used and (key not in best or acc + w > best[key]):
                    best[key] = acc + w
    return max(best.values())


def optimal_packing(sets: Sequence[Iterable[int]], values: Sequence):
    """Exact best-value disjoint-set packing; exhaustive, capped at 20 sets."""
    n = len(sets)
    if n > 20:
        raise ValueError("packing oracle is exhaustive; capped at 20 sets")
    if len(values) != n:
        raise ValueError("need one value per set")
    fsets = [frozenset(s) for s in sets]
    order = sorted(range(n), key=lambda i: values[i], reverse=True)
    suffix = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + values[order[pos]]
    best = 0

    def dfs(pos: int, used: frozenset, acc) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if pos == n or acc + suffix[pos] <= best:
            return
        i = order[pos]
        if fsets[i] and not (fsets[i] & used):
            dfs(pos + 1, used | fsets[i], acc + values[i])
        dfs(pos + 1, used, acc)

    dfs(0, frozenset(), 0)
    return best


def _restricted_feasible(
    menus: Sequence[Sequence[int]], capacities: Sequence[int], m: int
) -> bool:
    """Can all m unit jobs be placed within per-machine capacities?"""
    return sum(capacities) >= m and all(_placements(menus, capacities))


def optimal_makespan(
    caps: Sequence[int], m: int, menus: Sequence[Sequence[int]] | None = None
) -> Fraction:
    """Exact minimum makespan for m unit jobs on machines with the given
    capacities; `menus` restricts each job to its listed machines.  The
    optimum is the smallest T among the candidate loads h/c (h ≤ m) at
    which the jobs fit within per-machine budgets ⌊T·c_i⌋.  With L the lcm
    of the distinct capacities, h/c is searched as the integer key h·(L/c)."""
    caps = tuple(caps)
    if any(c < 1 for c in caps):
        raise ValueError("capacities must be positive")
    if m == 0:
        return Fraction(0)
    if menus is not None and len(menus) != m:
        raise ValueError("need one menu per job")
    for j, menu in enumerate(menus or ()):
        if any(not 0 <= i < len(caps) for i in menu):
            raise ValueError(f"job {j}'s menu {tuple(menu)} names an unknown machine")

    L = lcm(*set(caps))
    keys = sorted({h * (L // c) for c in set(caps) for h in range(1, m + 1)})

    def feasible(key: int) -> bool:
        budget = [key * c // L for c in caps]
        return sum(budget) >= m if menus is None else _restricted_feasible(menus, budget, m)

    lo, hi = 0, len(keys) - 1
    if not keys or not feasible(keys[hi]):  # no machines leaves no key
        raise ValueError("instance infeasible at any candidate makespan")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(keys[mid]):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(keys[lo], L)
