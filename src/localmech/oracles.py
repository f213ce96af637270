"""Exact reference solvers and the majorization toolkit.

Everything here is a baseline the mechanisms are judged against: prefix-sum
majorization of load vectors, the paired uniform-vs-nonuniform simulation,
exact matching / packing / makespan optima.  Solvers favour correctness over
scale; the packing oracle hard-caps its input size instead of silently
approximating.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from typing import Iterable, Sequence

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


def max_matching(adj: Sequence[Iterable[int]], n_right: int) -> int:
    """Maximum bipartite matching size via augmenting paths."""
    match_right = [-1] * n_right
    adj = [tuple(a) for a in adj]

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adj)):
        if augment(u, set()):
            size += 1
    return size


def max_weight_matching(weights: Sequence[Sequence[int]]):
    """Maximum-weight bipartite matching value (missing edges = weight 0).

    The assignment is found with scipy's Hungarian solver on a float copy —
    exact for integer weights below 2⁵³ — and the value is re-summed from
    the original entries, so the returned total carries their exact type.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rows = [list(r) for r in weights]
    if not rows or not rows[0]:
        return 0
    arr = np.array([[float(x) for x in r] for r in rows])
    if (arr < 0).any():
        raise ValueError("weights must be non-negative")
    ri, ci = linear_sum_assignment(arr, maximize=True)
    return sum(rows[r][c] for r, c in zip(ri, ci))


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


def _floor_times(T: Fraction, c: int) -> int:
    return (T.numerator * c) // T.denominator


def _restricted_feasible(
    menus: Sequence[Sequence[int]], capacities: Sequence[int], m: int
) -> bool:
    """Can all m unit jobs be placed within per-machine capacities?  Solved
    as an integer max-flow (source → machines → jobs → sink)."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = len(capacities)
    if sum(capacities) < m:
        return False
    # nodes: 0 = source, 1..n machines, n+1..n+m jobs, n+m+1 = sink
    src, sink = 0, n + m + 1
    rows, cols, data = [], [], []
    for i, cap in enumerate(capacities):
        if cap > 0:
            rows.append(src)
            cols.append(1 + i)
            data.append(min(cap, m))
    for j, menu in enumerate(menus):
        if not menu:
            return False
        for i in set(menu):
            rows.append(1 + i)
            cols.append(1 + n + j)
            data.append(1)
        rows.append(1 + n + j)
        cols.append(sink)
        data.append(1)
    graph = csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)), shape=(sink + 1, sink + 1)
    )
    return maximum_flow(graph, src, sink).flow_value >= m


def optimal_makespan(
    caps: Sequence[int], m: int, menus: Sequence[Sequence[int]] | None = None
) -> Fraction:
    """Exact minimum makespan for m unit jobs on machines with the given
    capacities; `menus` restricts each job to its listed machines.  The
    optimum is the smallest T among the candidate loads h/c (h ≤ m) at
    which the jobs fit within per-machine budgets ⌊T·c_i⌋."""
    caps = tuple(caps)
    if any(c < 1 for c in caps):
        raise ValueError("capacities must be positive")
    if m == 0:
        return Fraction(0)
    if menus is not None and len(menus) != m:
        raise ValueError("need one menu per job")

    candidates = sorted({Fraction(h, c) for c in set(caps) for h in range(1, m + 1)})

    def feasible(T: Fraction) -> bool:
        budget = [_floor_times(T, c) for c in caps]
        if menus is None:
            return sum(budget) >= m
        return _restricted_feasible(menus, budget, m)

    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        raise ValueError("instance infeasible at any candidate makespan")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]
