"""Related-machines load balancing with reported integer capacities.

Two allocators over unit jobs:

* standard mode ("slot" scheme): the mechanism splits machine i into b_i
  slots, draws d distinct slots per job over the B = Σ b_i slot pool, and
  places the job on the least-loaded chosen slot (seeded uniform tie-break).
  Heights are monotone in expectation, and the payment has both an exact
  closed form and a one-draw unbiased estimator.

* restricted mode: each job arrives with a fixed menu M_j of machines and is
  placed on the menu machine minimizing the floored post-placement load
  ⌊(h_i+1)/b_i⌋, ties to the smaller machine.  Flooring is what makes the
  rule universally monotone — the unfloored variant `greedy_unmodified`
  is kept because it demonstrably is not (see its regression fixtures).

The modes differ only in a job's step, `step(ctx, j, record, heights)`, which
returns the machine job j takes (None if none can) and raises the heights it
keeps: `_pick_slot`, `_pick_floored` or `_pick_unfloored`, each its rule's
one statement.  Every online run is the one loop `_run`, which checks
caller-given capacities by `_check_caps`, as `slms_expected_utility` does;
both local queries are the one replay `_job_local` of the query's
rank-order dependency tree (`probes.upward_closure`), so a local answer
equals the online run replayed in rank order.  The rank order,
the slot tie-breaks' first attempts (`tie_words`) and `slot_prefix` are built
with the instance; like the oracle's reverse records they cost no probe, and
no local query draws a rank or a tie-break or loops over all machines.

All loads and payments use exact rational arithmetic — the monotonicity
facts hinge on exact floor comparisons, so keep floats out of this module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat
from operator import index
from typing import TYPE_CHECKING, Any, Callable, Iterable, MutableMapping, Sequence

from .probes import (
    LEFT, AdjacencyOracle, ProbeCounter, ids, is_id, query_view, rank_tables, upward_closure,
)
from .randomness import (
    RandomTape, attempt_table, derive_uniform, sample_table, uniform_first, uniform_rows
)

if TYPE_CHECKING:  # instances imports this module for its family table
    from .instances import InstanceSpec

__all__ = [
    "SchedulingInstance",
    "Allocation",
    "PaymentRecord",
    "slms_online",
    "slms_local",
    "expected_height",
    "payment_slms_expected",
    "payment_slms_sampled",
    "slms_expected_utility",
    "rlms_online",
    "rlms_local",
    "greedy_unmodified",
    "payment_rlms",
    "payment_rlms_for_bid",
    "rlms_utility",
    "rerun_height",
    "monotonicity_trace",
    "makespan_ratio",
]

STANDARD = "standard"
RESTRICTED = "restricted"


@dataclass(frozen=True)
class Allocation:
    """Result of one allocator run; its heights after each step are read off
    `assign` in run order, as `monotonicity_trace` does.  `assign[j]` is
    None only for a job whose every menu machine has a caller-given
    capacity of 0 (a bid of 0); runs at the instance's capacities place
    every job."""

    assign: tuple[int | None, ...]
    heights: tuple[int, ...]
    caps: tuple[int, ...]

    @property
    def loads(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(h, c) if c else Fraction(0) for h, c in zip(self.heights, self.caps)
        )

    @property
    def makespan(self) -> Fraction:
        return max(self.loads, default=Fraction(0))


@dataclass(frozen=True)
class PaymentRecord:
    machine: int
    amount: Fraction
    scheme: str  # "expected" | "sampled" | "rerun"


class SchedulingInstance:
    """n machines with positive integer capacity claims, m unit jobs arriving
    in index order, d choices per job.

    Restricted mode fixes each job's machine menu as input data: explicit
    when given, otherwise d capacity-proportional draws (with replacement)
    made once from the *true* capacities, kept only as the oracle's record
    of the job: its distinct machines, ascending.  Floored-load ties go to
    the smaller machine.  Standard mode takes no menus — the mechanism itself
    draws d distinct slots per job over the slot pool of these capacities
    and breaks slot ties by seeded draws; a capacity deviation is an
    instance built with the deviated capacities, which draws its choices
    from the same keys.
    """

    def __init__(
        self,
        caps: Sequence[int],
        m: int,
        d: int,
        mode: str = RESTRICTED,
        seed: int = 0,
        menus: Sequence[Sequence[int]] | None = None,
    ) -> None:
        if mode not in (STANDARD, RESTRICTED):
            raise ValueError(f"mode must be {STANDARD!r} or {RESTRICTED!r}")
        try:
            self.caps = tuple(index(c) for c in caps)
        except TypeError:
            raise ValueError("capacities must be positive integers") from None
        if any(c < 1 for c in self.caps):
            raise ValueError("capacities must be positive integers")
        if m < 0:
            raise ValueError(f"need m >= 0 jobs, got m={m}")
        self.n = len(self.caps)
        self.m = m
        self.d = d
        self.mode = mode
        self.seed = seed
        self.tape = RandomTape(seed)
        self.B = sum(self.caps)
        # slot s of the pool belongs to machine bisect_right(slot_prefix, s);
        # build-time data, uncounted like the oracle's reverse records
        self.slot_prefix = tuple(accumulate(self.caps))
        if mode == STANDARD:
            if not 1 <= d <= self.B:
                raise ValueError(f"need 1 <= d <= B={self.B} slot choices")
            if menus is not None:
                raise ValueError("standard mode takes no menus")
            rows, right = sample_table(self.tape, "slot-choice", m, self.B, d), self.B
            self.tie_words = attempt_table(self.tape, "slot-tie", m)
        else:
            if menus is not None:
                if len(menus) != m:
                    raise ValueError("need one menu per job")
                for j, mu in enumerate(menus):
                    if not all(is_id(i, self.n) for i in mu):
                        raise ValueError(f"menu of job {j} names an unknown machine")
            elif d < 1:
                raise ValueError(f"need d >= 1 menu draws, got d={d}: each job gets an empty menu")
            elif self.n < 1:
                raise ValueError(f"need n >= 1 machines to draw menus from, got n={self.n}")
            else:
                # capacity-proportional machine draws over the true slot pool,
                # draw t of job j under ("menu", j, t), all mapped in one map: an
                # owner table beats bisection up to about 8 slots per draw
                if self.B <= 8 * m * d:
                    owners = chain.from_iterable(map(repeat, ids(self.n), self.caps))
                    machine = [*owners].__getitem__
                else:
                    machine = partial(bisect_right, self.slot_prefix)
                draws = chain.from_iterable(uniform_rows(self.tape, "menu", m, self.B, d))
                menus = zip(*[map(machine, draws)] * d)
            rows = [tuple(sorted(set(mu))) for mu in menus]
            if not all(rows):
                raise ValueError(f"job {rows.index(())} has an empty menu")
            right = self.n
        # jobs by their ("job-rank", j) draw, ties to the smaller job; after the
        # owner table's ids(n), so the rank tables and the oracle share ids(m)
        self.order, self.place = rank_tables(self.tape.u64_table("job-rank", m))
        self._oracle = AdjacencyOracle(rows, right, range(m))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spec(cls, spec: InstanceSpec) -> "SchedulingInstance":
        if spec.family not in ("scheduling-std", "scheduling-res"):
            raise ValueError(f"not a scheduling spec: {spec.family!r}")
        mode = STANDARD if spec.family == "scheduling-std" else RESTRICTED
        caps = spec.seeded_values("cap", max(1, spec.n.bit_length() - 1))  # 1..~log2(n)
        return cls(caps, m=spec.m, d=spec.k, mode=mode, seed=spec.seed, menus=spec.explicit_edges)

    # -- derived data ------------------------------------------------------

    def require_mode(self, mode: str, call: str) -> None:
        """The one wrong-mode check: refuse `call` unless this is a `mode` instance."""
        if self.mode != mode:
            raise ValueError(f"{call} requires {mode} mode")

    def rank_order(self) -> Sequence[int]:
        """The jobs in simulated arrival order, as drawn at build time."""
        return self.order

    @property
    def oracle(self) -> AdjacencyOracle:
        """job → distinct chosen slots (standard: job j's d draws under
        ("slot-choice", j) over the slot pool, in draw order) or distinct
        menu machines in ascending order (restricted), with materialized
        reverse lists; built with the instance.  Every allocator, global run,
        rerun payment and local query reads a job's slots or machines from
        here only."""
        return self._oracle


# ---------------------------------------------------------------------------
# both modes: one online loop and one closure replay
# ---------------------------------------------------------------------------

_Heights = MutableMapping[int, int]
_Step = Callable[[Any, int, Sequence[int], _Heights], int | None]


def _run_order(inst: SchedulingInstance, order: Iterable[int] | None) -> Iterable[int]:
    """An online run's jobs: index order, or `order`, a permutation of the
    m jobs, each an int as in the oracle's order (checked unless it is the
    stored rank order)."""
    if order is None or order is inst.order:
        return range(inst.m) if order is None else order
    jobs = list(order)
    # the type check comes first: a bool sorts as a job, a str or None raises
    if not set(map(type, jobs)) <= {int} or sorted(jobs) != list(range(inst.m)):
        raise ValueError(f"order must be a permutation of the {inst.m} jobs")
    return jobs


def _run(
    inst: SchedulingInstance, step: _Step, ctx: Any, caps: Sequence[int] | None, jobs: Iterable[int]
) -> Allocation:
    """The one online loop: each of `jobs` in turn takes its step over its
    oracle record, under caller-given `caps` (checked by `_check_caps`) or
    the instance's.  A None ctx is the run's caps, as the restricted steps take."""
    caps = inst.caps if caps is None else _check_caps(caps, inst.n)
    ctx = caps if ctx is None else ctx
    rows = inst.oracle.rows
    heights = [0] * inst.n
    assign: list[int | None] = [None] * inst.m
    for j in jobs:
        assign[j] = step(ctx, j, rows[j], heights)
    return Allocation(assign=tuple(assign), heights=tuple(heights), caps=caps)


def _job_local(
    inst: SchedulingInstance, job: int, counter: ProbeCounter | None, step: _Step, ctx: Any
) -> int:
    """Machine of `job` under the rank-order replay: `step` over the jobs
    sharing a slot or menu machine with it at lower rank, transitively, in
    rank order, on records read through the query's view."""
    view = query_view(inst.oracle, (LEFT, job), counter, "job")
    heights: defaultdict[int, int] = defaultdict(int)
    for j in upward_closure((job,), inst.place, view.fwd, view.rev):
        machine = step(ctx, j, view.fwd(j), heights)
    return machine  # the last job placed is the query


# ---------------------------------------------------------------------------
# standard mode
# ---------------------------------------------------------------------------


def _pick_slot(
    ctx: tuple[SchedulingInstance, _Heights], j: int, chosen: Sequence[int], heights: _Heights
) -> int:
    """Job j's step, ctx the instance and its slot heights: the least-loaded
    chosen slot, whose height it raises by one, as its machine's.  A tie of c
    slots takes the one at `derive_uniform(tape, ("slot-tie", j), c)` in slot
    order, from `tie_words[j]` unless rejected."""
    inst, slot_h = ctx
    hs = [slot_h[s] for s in chosen]
    best = min(hs)
    ties = hs.count(best)
    if ties == 1:
        slot = chosen[hs.index(best)]
    else:
        mins = sorted(chosen if ties == len(hs) else [s for s, h in zip(chosen, hs) if h == best])
        t = uniform_first(inst.tie_words[j], ties)
        slot = mins[derive_uniform(inst.tape, ("slot-tie", j), ties) if t is None else t]
    slot_h[slot] += 1
    machine = bisect_right(inst.slot_prefix, slot)
    heights[machine] += 1
    return machine


def slms_online(inst: SchedulingInstance, order: Iterable[int] | None = None) -> Allocation:
    """Slot-based allocation over all jobs (index order unless given), with
    the slot choices of the oracle's records and the tie-break words, both
    drawn once with the instance.  A run at other capacities is the run of
    an instance built with them."""
    inst.require_mode(STANDARD, "slms_online")
    return _run(inst, _pick_slot, (inst, [0] * inst.B), None, _run_order(inst, order))


def slms_local(inst: SchedulingInstance, job: int, counter: ProbeCounter | None = None) -> int:
    """Machine of `job` under the rank-order replay of `_pick_slot`."""
    inst.require_mode(STANDARD, "slms_local")
    return _job_local(inst, job, counter, _pick_slot, (inst, defaultdict(int)))


def _check_machine(n: int, i: int) -> None:
    if not is_id(i, n):
        raise ValueError(f"unknown machine {i}; machines are 0..{n - 1}")


def _check_caps(caps: Sequence[int], n: int) -> tuple[int, ...]:
    """Caller-given capacities as ints: one per machine of the n, each an int
    under the constructor's `index` rule, none below 0 (a bid of 0 places
    no job there)."""
    try:
        checked = tuple(map(index, caps))
    except TypeError:
        checked = None
    if checked is None or len(checked) != n or min(checked, default=0) < 0:
        raise ValueError(f"caps must be {n} ints >= 0, one per machine")
    return checked


def _check_int(x: int, name: str, least: int) -> int:
    """A caller-given capacity or bid `x` as an int under the constructor's
    `index` rule, refused below `least`."""
    try:
        x = index(x)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {x!r}") from None
    if x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return x


def expected_height(b_i: int, B_minus_i: int, m: int) -> Fraction:
    """Expected job count on a machine claiming b_i slots against a pool of
    B_minus_i others: m·b_i/(B_minus_i + b_i)."""
    if b_i < 0:
        raise ValueError("capacity must be non-negative")
    if B_minus_i + b_i < 1:
        raise ValueError("slot pool must be non-empty")
    return Fraction(m * b_i, B_minus_i + b_i)


def _ratio_sum(lo: int, hi: int, c: int) -> tuple[int, int]:
    """Σ_{x=lo}^{hi-1} x/(c+x) as an unreduced numerator and denominator
    (hi > lo).  Halves are merged pairwise, so the big products multiply
    numbers of equal size, and nothing is reduced on the way."""
    if hi - lo == 1:
        return lo, c + lo
    mid = (lo + hi) // 2
    p1, q1 = _ratio_sum(lo, mid, c)
    p2, q2 = _ratio_sum(mid, hi, c)
    return p1 * q2 + p2 * q1, q1 * q2


def _expected_slot_payment(b: int, B_minus: int, m: int) -> Fraction:
    """Exact expected payment for b >= 1 slots against B₋ others' slots."""
    return Fraction(m * b * b, B_minus + b) + m * Fraction(*_ratio_sum(1, b + 1, B_minus))


def payment_slms_expected(inst: SchedulingInstance, i: int) -> PaymentRecord:
    """Exact expected payment: m·b²/(B₋+b) + m·Σ_{x=1}^{b} x/(B₋+x)."""
    inst.require_mode(STANDARD, "payment_slms_expected")
    _check_machine(inst.n, i)
    b = inst.caps[i]
    amount = _expected_slot_payment(b, inst.B - b, inst.m)
    return PaymentRecord(machine=i, amount=amount, scheme="expected")


def payment_slms_sampled(inst: SchedulingInstance, i: int) -> PaymentRecord:
    """One-draw unbiased payment: m·b²/B + m·b·k/(B₋+k) with k uniform on
    [1, b], drawn under ("slms-pay-k", i).  Averaging over all k reproduces
    the expected payment exactly."""
    inst.require_mode(STANDARD, "payment_slms_sampled")
    _check_machine(inst.n, i)
    b = inst.caps[i]
    B_minus = inst.B - b
    k = 1 + derive_uniform(inst.tape, ("slms-pay-k", i), b)
    amount = Fraction(inst.m * b * b, inst.B) + inst.m * b * Fraction(k, B_minus + k)
    return PaymentRecord(machine=i, amount=amount, scheme="sampled")


def slms_expected_utility(
    caps: Sequence[int], m: int, i: int, bid: int, true_cap: int
) -> Fraction:
    """Expected utility of machine i reporting `bid` slots while its true
    capacity is `true_cap`, under the quadratic cost model: a machine that
    claims x slots and carries expected height h̄ incurs cost x²·h̄/true_cap.
    The payment schedule makes truth the exact argmax of this function."""
    caps = _check_caps(caps, len(caps))
    _check_machine(len(caps), i)
    bid = _check_int(bid, "bid", 0)
    true_cap = _check_int(true_cap, "true_cap", 1)
    B_minus = sum(caps) - caps[i]
    if bid == 0:
        return Fraction(0)
    h_bar = expected_height(bid, B_minus, m)
    return _expected_slot_payment(bid, B_minus, m) - Fraction(bid * bid, true_cap) * h_bar


# ---------------------------------------------------------------------------
# restricted mode
# ---------------------------------------------------------------------------


def _pick_floored(
    caps: Sequence[int], j: int, cands: Iterable[int], heights: _Heights
) -> int | None:
    """A job's step, ctx the caps: the candidate machine minimizing
    ⌊(h_i+1)/b_i⌋, ties to the smaller machine, whose height it raises by
    one.  The candidates are a job's oracle record, sorted and distinct, so
    the first least floor is the smaller machine.  A machine with capacity
    0 takes no job; None if every candidate has it."""
    best = best_key = None
    for i in cands:
        c = caps[i]
        if c:
            key = (heights[i] + 1) // c
            if best_key is None or key < best_key:
                best_key, best = key, i
    if best is not None:
        heights[best] += 1
    return best


def rlms_online(
    inst: SchedulingInstance, caps: Sequence[int] | None = None, order: Iterable[int] | None = None
) -> Allocation:
    """Floored-load allocation over all jobs (index order unless given):
    job j goes to the menu machine minimizing ⌊(h_i+1)/b_i⌋, ties to the
    smaller machine."""
    inst.require_mode(RESTRICTED, "rlms_online")
    return _run(inst, _pick_floored, None, caps, _run_order(inst, order))


def rlms_local(inst: SchedulingInstance, job: int, counter: ProbeCounter | None = None) -> int:
    """Machine of `job` under the rank-order replay of `_pick_floored`."""
    inst.require_mode(RESTRICTED, "rlms_local")
    return _job_local(inst, job, counter, _pick_floored, inst.caps)


def _pick_unfloored(
    caps: Sequence[int], j: int, cands: Iterable[int], heights: _Heights
) -> int | None:
    """The unfloored step, ctx the caps: the candidate minimizing the
    exact (h_i+1)/b_i, ties to the smaller machine (the first of the sorted
    record), whose height it raises by one; None if every candidate has
    capacity 0."""
    fits = (i for i in cands if caps[i])
    best = min(fits, key=lambda i: Fraction(heights[i] + 1, caps[i]), default=None)
    if best is not None:
        heights[best] += 1
    return best


def greedy_unmodified(inst: SchedulingInstance, caps: Sequence[int] | None = None) -> Allocation:
    """The unfloored rule in job index order: minimize (h_i+1)/b_i exactly,
    ties to the smaller machine.

    Kept as the negative exhibit: raising a bid can strictly lower the
    machine's job count under this rule, which the regression fixtures pin
    down, their earlier load given as leading single-machine jobs.
    """
    inst.require_mode(RESTRICTED, "greedy_unmodified")
    return _run(inst, _pick_unfloored, None, caps, range(inst.m))


def _rank_run(inst: SchedulingInstance, i: int, bid: int) -> Allocation:
    """The rank-order run with machine i at `bid`, the others at truth."""
    return rlms_online(inst, caps=(*inst.caps[:i], bid, *inst.caps[i + 1 :]), order=inst.order)


def _rerun_heights(inst: SchedulingInstance, i: int, bids: Iterable[int]) -> list[int]:
    """Machine i's height in the rank-order run at each of `bids`, others at
    truth: one rerun per positive bid (at 0 every job skips the machine).
    The one mode guard of every rerun payment, before any rerun."""
    inst.require_mode(RESTRICTED, "a rerun height or payment")
    _check_machine(inst.n, i)
    return [bid and _rank_run(inst, i, bid).heights[i] for bid in bids]


def rerun_height(inst: SchedulingInstance, i: int, bid: int) -> int:
    """Height of machine i in the rank-order run when its bid is replaced by
    `bid` (0 allowed: the machine is then skipped by every job and its
    height is 0)."""
    return _rerun_heights(inst, i, (_check_int(bid, "bid", 0),))[0]


def _rerun_payment(inst: SchedulingInstance, i: int, bid: int) -> tuple[Fraction, int]:
    """Machine i's rerun payment bid·h(bid) + Σ_{x=0}^{bid} h(x), others at
    truth, and h(bid): one list of heights, one rerun per positive x."""
    bid = _check_int(bid, "bid", 0)  # before range(bid + 1), empty for a negative bid
    heights = _rerun_heights(inst, i, range(bid + 1))
    return Fraction(bid * heights[bid] + sum(heights)), heights[bid]


def payment_rlms(inst: SchedulingInstance, i: int) -> PaymentRecord:
    """Rerun payment at the true bid, priced on the rank-order run that the
    local queries answer."""
    _check_machine(inst.n, i)
    amount = payment_rlms_for_bid(inst, i, inst.caps[i])
    return PaymentRecord(machine=i, amount=amount, scheme="rerun")


def payment_rlms_for_bid(inst: SchedulingInstance, i: int, bid: int) -> Fraction:
    """The rerun payment as machine i's bid varies (others fixed at truth)."""
    return _rerun_payment(inst, i, bid)[0]


def rlms_utility(inst: SchedulingInstance, i: int, bid: int, true_cap: int) -> Fraction:
    """Utility of bidding `bid` with true capacity `true_cap` under the
    quadratic cost model x²·h(x)/true_cap (same calibration as the standard
    mode's closed-form sweep)."""
    true_cap = _check_int(true_cap, "true_cap", 1)
    payment, height = _rerun_payment(inst, i, bid)
    return payment - Fraction(bid * bid * height, true_cap)


def monotonicity_trace(
    inst: SchedulingInstance, i: int, bid_low: int, bid_high: int
) -> list[tuple[int, ...]]:
    """Per-step height deltas D^t = heights(bid_high) − heights(bid_low) for
    machine i's bid raised from bid_low to bid_high in the rank-order run,
    menus and ties fixed.  Entry t is the delta after the first t jobs of
    the rank order (t = 0 … m), read off the two runs' assignments."""
    _check_machine(inst.n, i)
    bid_low, bid_high = (_check_int(bid, "bid", 0) for bid in (bid_low, bid_high))
    if bid_high < bid_low:
        raise ValueError("bid_high must be >= bid_low")
    low, high = (_rank_run(inst, i, bid).assign for bid in (bid_low, bid_high))
    delta = [0] * inst.n
    rows = [tuple(delta)]
    for j in inst.order:
        if high[j] is not None:
            delta[high[j]] += 1
        if low[j] is not None:
            delta[low[j]] -= 1
        rows.append(tuple(delta))
    return rows


def makespan_ratio(inst: SchedulingInstance) -> Fraction:
    """The makespan of `rlms_online(inst)`, the restricted allocator run in
    job index order (not the rank-order run that the local queries and the
    rerun payments serve), over the exact optimal makespan."""
    from . import oracles

    alloc = rlms_online(inst)
    if inst.m < 1:  # the optimal makespan of no jobs is 0
        raise ValueError(f"makespan_ratio needs m >= 1 jobs, got m={inst.m}")
    opt = oracles.optimal_makespan(inst.caps, inst.m, menus=inst.oracle.rows)
    return alloc.makespan / opt
