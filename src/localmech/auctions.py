"""Three greedy item auctions with critical payments and local queries.

* uduv:  private demand sets, unit values.  Items are assigned one by one in
  a seeded order (descending 64-bit item scores, sorted at build); each item
  goes to the smallest-id unserved buyer reporting it; every winner pays 1/2.
* udubv: public demand sets, private values.  Buyers are served in
  descending bid order (ties to the smaller id); each takes the smallest
  free item of her set and pays the smallest level at which any of her items
  sells when the run is repeated without her (0 if one goes unsold).
* ksmb:  single-minded buyers who want their whole set.  Same bid order;
  a buyer is served iff her set is still fully free, and pays the highest
  winning bid among sets intersecting hers in the run without her.

uduv is serial dictatorship with items as the dictators (each item in score
order takes the first unserved buyer reporting it) and udubv is serial
dictatorship in bid order, so both replay `rsd.serial_dictatorship`; ksmb has
its own whole-set step, `_ksmb_awards`.  Global runs and local queries call
the same step on the same records, the instance oracle's, which refuses a
set that names an item twice.

Local queries agree with the global run outcome exactly.  uduv queries
replay the dependency closure of the queried buyer/item
(`probes.upward_closure`: higher-scored items sharing buyers, transitively).
udubv and ksmb buyer queries walk a memoised query tree instead
(`_bid_tree`; Nguyen and Onak, FOCS 2008), asking earlier rivals best first
as Yoshida, Yamamoto and Ito do (STOC 2009) and stopping as soon as the
answer is known; a winner's payment (`_tree_price`) comes from the same
recursion run without her, which shares every answer of the buyers ahead
of her.  `probes.resolve` drives both.  Neither reads a zero-bid rival's
set.  The tree has one frame for both modes, which asks its rivals inline.
The bid order is descending bid, ties to the smaller id, over the exact
bids `AuctionInstance.values`: a whole bid as its int, any other as its
`Fraction`, which Python compares exactly; payments are `Fraction`s.  The
build sorts the buyers once (`AuctionInstance.order`) and lists each item's
buyers in that order, so the global run and the query tree read the order
rather than sort: a query's rivals on an item are a prefix of the item's
record.  Only whole bids skip `Fraction` comparisons: every spec-built
instance bids whole numbers.

A price resolves only the holders that can move it.  In the run without
winner i the rivals ahead of her keep their full-run awards, so:
* udubv (award (a,), her set sorted by id): her items before a went to
  rivals ahead of her, who bid at least what she does, while a's holder
  bids at most that, so those items are skipped; a is scanned from behind
  her, each later item from the top of its record, and the price is 0 at
  the first item found unsold;
* ksmb: no rival ahead of her holds an item of hers, so every scan starts
  behind her, and an item's holder bids at most the first bid behind her
  there, the item's bound, read when she won.  The items go in descending
  bound; the scan ends at a bound no better than the best holder bid so
  far, and an item's scan at a rival no better than it.
Each scan resolves a part of the holders the full scan would, on the same
memoised tree, so a query's read set only shrinks.

The udubv and ksmb global runs (`_bid_run`) take their awards from the
allocation step and price each winner with the same two functions over the
instance's records, so a price is computed one way, global or local: the
rivals ahead of the winner keep their full-run awards and those behind her
are resolved afresh, so a winner costs a query's tree, not a rerun.
`_critical`, the full rerun that defines the price, is kept as the test
oracle.  A global run reads only its instance: the run under other reports
is the run of the instance built with them.

A misreport is an overlay, a mapping from buyer to report; absent buyers
report the truth.  A uduv buyer reports her item set (every value is 1)
and a udubv or ksmb buyer her bid (sets are public), so each query knows
what a report is: `uduv_local` checks and normalises reported sets and
`_bid_local` checks the reported bids and reads them over the true ones
(`_ReportedBids`, which copies no other bid), both after one check of the
reporters (`AuctionInstance.reports`).  `probes.reported_reads`
rebuilds only the records a query reads that a reported set or bid
touches: uduv's by id, the others by `_bid_order` (descending reported
bid, ties to the smaller id).  `truthfulness_audit` checks the served
local answers, not a global rerun: it asks each buyer's local query under
an overlay, for the truth and for every deviation, and values each answer
by one rule, `_utility`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Generator, ItemsView, Iterable, Mapping, Sequence

from .probes import (
    LEFT, RIGHT, AdjacencyOracle, ProbeCounter, query_view, rank_tables, reported_reads, resolve,
    upward_closure,
)
from .randomness import RandomTape
from .rsd import serial_dictatorship

if TYPE_CHECKING:  # instances imports this module for its family table
    from .instances import InstanceSpec

__all__ = [
    "AuctionInstance",
    "Outcome",
    "Violation",
    "uduv_run",
    "uduv_local",
    "udubv_run",
    "udubv_local",
    "ksmb_run",
    "ksmb_local",
    "truthfulness_audit",
]

UDUV = "uduv"
UDUBV = "udubv"
KSMB = "ksmb"

# shared constant payments (a Fraction is immutable)
ZERO, HALF = Fraction(0), Fraction(1, 2)


@dataclass(frozen=True)
class Outcome:
    awards: dict[int, tuple[int, ...]]
    payments: dict[int, Fraction]


@dataclass(frozen=True)
class Violation:
    buyer: int
    report: str
    utility_truth: Fraction
    utility_deviation: Fraction


class AuctionInstance:
    def __init__(
        self,
        sets: Sequence[Sequence[int]],
        m: int,
        mode: str,
        values: Sequence[Fraction | int] | None = None,
        k: int | None = None,
        seed: int = 0,
    ) -> None:
        if mode not in (UDUV, UDUBV, KSMB):
            raise ValueError(f"unknown auction mode {mode!r}")
        self.mode = mode
        # an item is an int, checked before the sort, which would raise
        # TypeError on a str or None; the oracle refuses a repeated item
        if not set(map(type, chain.from_iterable(sets))) <= {int}:
            bad = next(j for s in sets for j in s if type(j) is not int)
            raise ValueError(f"right id {bad!r} is not an int")
        self.sets: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in sets)
        self.n = len(self.sets)
        self.m = m
        widest = max(map(len, self.sets), default=0)
        self.k = widest if k is None else k
        if widest > self.k:
            b = next(b for b, s in enumerate(self.sets) if len(s) > self.k)
            raise ValueError(f"buyer {b} lists more than k={self.k} entries")
        self.seed = seed
        self.tape = RandomTape(seed)
        if mode == UDUV:
            if values is not None:
                raise ValueError("uduv takes no values: every value is 1")
            self.values: tuple[int | Fraction, ...] = (1,) * self.n
            # items by descending ("item-rank", j) score, ties to the smaller
            self.order, self.place = rank_tables(self.tape.u64_table("item-rank", m), True)
            records = range(self.n)  # item records list buyers by ascending id
        else:
            if values is None:
                raise ValueError(f"{mode} needs buyer values")
            if len(values) != self.n:
                raise ValueError("need one value per buyer")
            self.values = tuple(v if type(v) is int else _bid_key(v) for v in values)
            if min(self.values, default=0) < 0:
                raise ValueError("values must be non-negative")
            # buyers by descending bid, ties to the smaller id: the order
            # the greedy serves them in, and the order of each item record
            self.order, self.place = rank_tables(self.values, True)
            records = self.order
        self.oracle = AdjacencyOracle(self.sets, m, records)

    @classmethod
    def from_spec(cls, spec: InstanceSpec) -> "AuctionInstance":
        if spec.family not in (UDUV, UDUBV, KSMB):
            raise ValueError(f"not an auction spec: {spec.family!r}")
        sets = spec.seeded_rows("item-set")
        values = None if spec.family == UDUV else spec.seeded_values("value", 10**6)
        return cls(sets, m=spec.m, mode=spec.family, values=values, k=spec.k, seed=spec.seed)

    def require_mode(self, mode: str, call: str) -> None:
        """The one wrong-mode check: refuse `call` unless this is a `mode` instance."""
        if self.mode != mode:
            raise ValueError(f"{call} requires {mode} mode")

    def reports(self, overlay: Mapping[int, object]) -> ItemsView[int, object]:
        """The overlay's (buyer, report) pairs, every buyer id checked to be
        an int in range (no bool, float or string passes)."""
        for b in overlay:
            if type(b) is not int or not 0 <= b < self.n:
                raise ValueError(f"report overlay names unknown buyer {b!r}")
        return overlay.items()


def _bid_key(v: Fraction | int | float | str) -> int | Fraction:
    """The bid v exactly, as `values` holds it: its int when v is whole,
    else `Fraction(v)`.  Python compares int and Fraction exactly, and int
    comparisons skip `Fraction`'s slow path."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class _ReportedBids(dict):
    """The reported bids of a query, by buyer; any other buyer bids her
    value, read from `truth` on a miss, so a query copies no other bid."""

    def __init__(self, truth: Sequence[Fraction | int]) -> None:
        super().__init__()
        self.truth = truth

    def __missing__(self, b: int) -> Fraction | int:
        return self.truth[b]


def _bid_order(bids: Sequence[Fraction | int]) -> Callable[[int], tuple]:
    """Bid order as a sort key: descending bid, ties to the smaller id."""
    return lambda b: (-bids[b], b)


# ---------------------------------------------------------------------------
# uduv — private sets, unit values
# ---------------------------------------------------------------------------


def uduv_run(inst: AuctionInstance) -> Outcome:
    inst.require_mode(UDUV, "uduv_run")
    awards: dict[int, tuple[int, ...]] = dict.fromkeys(range(inst.n), ())
    payments: dict[int, Fraction] = dict.fromkeys(range(inst.n), ZERO)
    for j, b in serial_dictatorship(inst.order, inst.oracle.rev).items():
        if b is not None:
            awards[b] = (j,)
            payments[b] = HALF
    return Outcome(awards=awards, payments=payments)


def uduv_local(
    inst: AuctionInstance,
    query: tuple[str, int],
    counter: ProbeCounter | None = None,
    overlay: Mapping[int, Sequence[int]] | None = None,
) -> dict:
    """Resolve one buyer or one item.  Buyer queries return her award and
    payment; item queries return the item's winner (or None).  `overlay`
    maps a buyer to her reported item set."""
    inst.require_mode(UDUV, "uduv_local")
    kind, idx = query
    side = LEFT if kind == "buyer" else RIGHT if kind == "item" else None
    if side is None:
        raise ValueError(f"query kind must be 'buyer' or 'item', got {kind!r}")
    view = query_view(inst.oracle, (side, idx), counter, kind)
    reported: dict[int, tuple[int, ...]] = {}
    for b, s in inst.reports(overlay or {}):
        bad = [j for j in s if type(j) is not int or not 0 <= j < inst.m]
        if bad:
            raise ValueError(f"buyer {b} reports item {bad[0]!r}, not an int in 0..{inst.m - 1}")
        reported[b] = tuple(sorted(set(s)))
    # item records list their buyers by id, and so do the rebuilt ones
    fwd, rev = reported_reads(view, reported, (), None)
    roots = fwd(idx) if kind == "buyer" else (idx,)
    winner_of = serial_dictatorship(upward_closure(roots, inst.place, rev, fwd), rev)
    if kind == "item":
        return {"item": idx, "winner": winner_of[idx]}
    # an item takes an unserved buyer, so she wins at most one
    award = next(((j,) for j, b in winner_of.items() if b == idx), ())
    payment = HALF if award else ZERO
    return {"buyer": idx, "award": award, "payment": payment}


# ---------------------------------------------------------------------------
# udubv / ksmb — bid-ordered greedy with critical payments
# ---------------------------------------------------------------------------


def _positive_prefix(ranked: Sequence[int], bids: Sequence[Fraction | int]) -> Sequence[int]:
    """The positive bidders of `ranked`, a sequence in bid order: bids are
    non-negative, so the zero bids sort last and the rest are a prefix."""
    if not ranked or bids[ranked[-1]]:
        return ranked
    return ranked[: bisect_left(ranked, True, key=lambda b: not bids[b])]


_Sets = Callable[[int], Sequence[int]]


def _udubv_awards(order: Iterable[int], sets: _Sets) -> dict[int, tuple[int, ...]]:
    """Serial dictatorship in bid order: each buyer takes her smallest free item."""
    return {b: (j,) for b, j in serial_dictatorship(order, sets).items() if j is not None}


def _udubv_price(
    won: Mapping[int, tuple[int, ...]], mine: Sequence[int], bids: Sequence[Fraction | int]
) -> Fraction | int:
    """Smallest winning bid on one of `mine`, 0 if one of them goes unsold."""
    holder = {jt[0]: b for b, jt in won.items()}
    if not mine or any(j not in holder for j in mine):
        return ZERO
    return min(bids[holder[j]] for j in mine)


def _ksmb_awards(order: Iterable[int], sets: _Sets) -> dict[int, tuple[int, ...]]:
    """Each buyer in turn wins her whole set if none of it is taken yet."""
    won: dict[int, tuple[int, ...]] = {}
    taken: set[int] = set()
    for b in order:
        s = sets(b)
        if s and not any(j in taken for j in s):
            won[b] = tuple(s)
            taken.update(s)
    return won


def _ksmb_price(
    won: Mapping[int, tuple[int, ...]], mine: Sequence[int], bids: Sequence[Fraction | int]
) -> Fraction | int:
    """Highest winning bid among the sets that meet `mine`."""
    mine_set = set(mine)
    return max((bids[b] for b, s in won.items() if mine_set.intersection(s)), default=ZERO)


# mode -> (allocation step, critical price of a buyer's items from every holder
# in the run without her: `_critical`'s rule; `_tree_price` scans by `_PRICE_SCANS`)
_BID_RULES = {UDUBV: (_udubv_awards, _udubv_price), KSMB: (_ksmb_awards, _ksmb_price)}


def _critical(inst: AuctionInstance, i: int) -> Fraction:
    """Buyer i's critical price by its definition, the test oracle of
    `_bid_run`: her price rule applied to a full rerun without her, which
    serves the positive bidders in bid order with i removed."""
    awards, price = _BID_RULES[inst.mode]
    without = (b for b in _positive_prefix(inst.order, inst.values) if b != i)
    # the price is a bid, an int when whole; every payment is a Fraction
    return Fraction(price(awards(without, inst.sets.__getitem__), inst.sets[i], inst.values))


def _bid_tree(mode: str, fwd: _Sets, rev: _Sets, absent: int) -> Callable[[int], Generator]:
    """The query tree's frame of the bid-order run without buyer `absent`
    (Nguyen and Onak, FOCS 2008), for `probes.resolve`.

    A buyer's award depends only on the awards of the earlier positive-bid
    buyers sharing one of her items: for each item of her set, in order, her
    frame asks those rivals, best first, whether they took it, and stops at
    the first that did.  udubv hands her the first item no rival took; ksmb
    turns her away at the first item a rival took.  No frame asks about
    `absent`, so every answer is that buyer's award in the run without her:
    the full run's for the buyers ahead of her, whose answers never depend
    on her, and `absent`'s own full-run award if she is the one asked.

    Read through a metered view, each buyer the tree resolves costs her
    set, each item whose rivals it scans costs the item's buyer list, and
    zero-bid rivals are never read.  `rev(j)` lists item j's buyers by
    descending bid, ties to the smaller id (the instance's `order`, or
    `_bid_order` for a record a reported bid touches), so the tree takes
    its rivals in bid order without reading their sets, and a rival's bid
    can move an answer through a list it was charged for even when her own
    set goes unread.  Every buyer it resolves lies in the upward closure by
    bid of the root or of her rivals, so it reads no record outside those
    closures.
    """
    whole = mode == KSMB  # ksmb wants her whole set, udubv one item of it

    def frame(y: int):
        s = fwd(y)
        for j in s:
            for z in rev(j):
                if z == y:  # no rival took j; y bids, so every zero bid lies behind her
                    if not whole:
                        return (j,)
                    break
                if z != absent and j in (yield z):
                    if whole:
                        return ()
                    break
        return s if whole else ()

    return frame


_Award = Callable[[int], tuple[int, ...]]


def _udubv_scan(
    i: int,
    won: tuple[int, ...],
    mine: Sequence[int],
    rev: _Sets,
    bids: Sequence[Fraction | int],
    award_of: _Award,
) -> Fraction | int:
    """udubv's price of winner i, who took `won` = (a,), from the holders of
    `mine` in the run without her: the least holder bid, or 0 at the first
    item of hers that goes unsold.  Her items before a went to rivals ahead
    of her, who keep them and bid at least what she does, while no rival
    ahead of her took a, so a's holder bids at most that: those items are
    skipped.  a is scanned from behind her, then each later item from the
    top of its record."""
    a = won[0]
    price = bids[i]  # a's holder bids at most this
    for j in mine[mine.index(a):]:
        r = rev(j)
        for z in r[r.index(i) + 1:] if j == a else r:
            if not bids[z]:  # the zero bids sort last and win nothing
                return 0
            if z != i and j in award_of(z):
                price = min(price, bids[z])
                break
        else:
            return 0
    return price


def _ksmb_scan(
    i: int,
    won: tuple[int, ...],
    mine: Sequence[int],
    rev: _Sets,
    bids: Sequence[Fraction | int],
    award_of: _Award,
) -> Fraction | int:
    """ksmb's price of winner i from the holders of `mine` in the run
    without her: the best holder bid, 0 if none.  She took every item of
    hers, so no rival ahead of her holds one, and each scan starts behind
    her.  An item's holder bids at most the first bid behind her on it,
    the item's bound (read when she won), so the items go in descending
    bound, the scan ends at a bound no better than the best holder bid so
    far, and an item's scan at a rival no better than it."""
    bounded = []
    for j in mine:
        r = rev(j)
        behind = r[r.index(i) + 1:]
        if behind:
            bounded.append((bids[behind[0]], behind, j))
    best = 0
    for bound, behind, j in sorted(bounded, key=itemgetter(0), reverse=True):
        if bound <= best:
            break
        for z in behind:
            if bids[z] <= best:  # zero bids included: they win nothing
                break
            if j in award_of(z):
                best = bids[z]
                break
    return best


# mode -> the holder scan `_tree_price` prices a winner with
_PRICE_SCANS = {UDUBV: _udubv_scan, KSMB: _ksmb_scan}


def _tree_price(
    mode: str,
    i: int,
    won: tuple[int, ...],
    mine: Sequence[int],
    rev: _Sets,
    bids: Sequence[Fraction | int],
    frame: Callable[[int], Generator],
    lookup: Callable[[int], tuple[int, ...] | None],
    store: Callable[[int, tuple[int, ...]], object],
) -> Fraction:
    """Winner i's critical price: her price rule over the holders of
    `mine`, her set, in the run without her, whose awards `frame` (a
    `_bid_tree` without i) resolves through `lookup` and `store`; `won` is
    her award in the full run.

    A winner holds every item of her award (udubv) or set (ksmb) and no
    item has two holders, so a scan takes the rivals on an item of hers in
    bid order and stops at the first who wins it in that run: the item's
    holder there.  The rivals ahead of i keep their full-run awards in that
    run, which fixes some holders without a scan, and the price rule needs
    no holder that cannot move it, so the scan of her mode
    (`_PRICE_SCANS`) resolves only the holders that can:
    - udubv skips her items before her award and returns 0 at the first
      item found unsold;
    - ksmb starts behind her on every item, takes the items best bound
      first and stops at a bid no better than the best holder bid so far.
    It costs what `_bid_tree` charges for the rivals it resolves and the
    buyer lists it scans, a part of what resolving every holder costs.
    """

    def award_of(z: int) -> tuple[int, ...]:
        return resolve(z, frame, lookup, store)

    # the price is a bid, an int when whole; every payment is a Fraction
    return Fraction(_PRICE_SCANS[mode](i, won, mine, rev, bids, award_of))


def _bid_run(inst: AuctionInstance) -> Outcome:
    """The full run's awards from the allocation step, each winner priced
    in id order on the query tree of the run without her.  A rival placed
    ahead of the winner has her full-run award in that run; a rival
    behind her is resolved afresh, once per winner."""
    sets, bids, place, rev = inst.sets, inst.values, inst.place, inst.oracle.rev
    won = _BID_RULES[inst.mode][0](_positive_prefix(inst.order, bids), sets.__getitem__)
    payments = dict.fromkeys(range(inst.n), ZERO)
    for i in sorted(won):
        memo: dict[int, tuple[int, ...]] = {}
        ahead = place[i]

        def lookup(z: int) -> tuple[int, ...] | None:  # called within this pass only
            return won.get(z, ()) if place[z] < ahead else memo.get(z)

        frame = _bid_tree(inst.mode, sets.__getitem__, rev, i)
        payments[i] = _tree_price(
            inst.mode, i, won[i], sets[i], rev, bids, frame, lookup, memo.__setitem__
        )
    return Outcome(awards={b: won.get(b, ()) for b in range(inst.n)}, payments=payments)


def udubv_run(inst: AuctionInstance) -> Outcome:
    inst.require_mode(UDUBV, "udubv_run")
    return _bid_run(inst)


def ksmb_run(inst: AuctionInstance) -> Outcome:
    inst.require_mode(KSMB, "ksmb_run")
    return _bid_run(inst)


def _bid_local(
    inst: AuctionInstance,
    buyer: int,
    counter: ProbeCounter | None,
    overlay: Mapping[int, Fraction | int] | None,
) -> dict:
    """Buyer `buyer`'s award and critical payment from one memoised query
    tree, `_bid_tree` without her: her award is the tree's answer for her,
    and every other answer in the memo is that buyer's award in the run
    without her, so her payment (`_tree_price`) reuses them.  Her own set
    is free; every other read goes through the metered view, under the
    reports.  `overlay` maps a buyer to her reported bid.
    """
    view = query_view(inst.oracle, (LEFT, buyer), counter, "buyer")
    keys, moved = inst.values, ()
    if overlay is not None:
        keys, moved = _ReportedBids(inst.values), overlay
        for b, v in inst.reports(overlay):
            keys[b] = v = _bid_key(v)
            if v < 0:
                raise ValueError("bids must be non-negative")
    if not keys[buyer]:
        return {"buyer": buyer, "award": (), "payment": ZERO}
    fwd, rev = reported_reads(view, {}, moved, _bid_order(keys))
    frame = _bid_tree(inst.mode, fwd, rev, buyer)
    memo: dict[int, tuple[int, ...]] = {}
    won = resolve(buyer, frame, memo.get, memo.__setitem__)
    if not won:
        return {"buyer": buyer, "award": (), "payment": ZERO}
    mine = fwd(buyer)
    payment = _tree_price(inst.mode, buyer, won, mine, rev, keys, frame, memo.get, memo.__setitem__)
    return {"buyer": buyer, "award": won, "payment": payment}


def udubv_local(
    inst: AuctionInstance,
    buyer: int,
    counter: ProbeCounter | None = None,
    overlay: Mapping[int, Fraction | int] | None = None,
) -> dict:
    inst.require_mode(UDUBV, "udubv_local")
    return _bid_local(inst, buyer, counter, overlay)


def ksmb_local(
    inst: AuctionInstance,
    buyer: int,
    counter: ProbeCounter | None = None,
    overlay: Mapping[int, Fraction | int] | None = None,
) -> dict:
    inst.require_mode(KSMB, "ksmb_local")
    return _bid_local(inst, buyer, counter, overlay)


# ---------------------------------------------------------------------------
# deviation audit
# ---------------------------------------------------------------------------


def _utility(inst: AuctionInstance, buyer: int, got: dict) -> Fraction:
    """Buyer's true utility of the local answer `got`: her true value if the
    award's first item is in her true set (else 0), less the payment."""
    if not got["award"]:
        return ZERO
    value = inst.values[buyer] if got["award"][0] in inst.sets[buyer] else ZERO
    return value - got["payment"]


def truthfulness_audit(inst: AuctionInstance) -> list[Violation]:
    """Enumerate unilateral deviations and report every one that strictly
    beats truth-telling.  An empty list means no buyer can gain.

    Each utility comes from the served local buyer query, asked with no
    overlay for the truth and under one for each deviation, so the audit checks
    the allocation and payments that local replies actually give.  uduv
    deviations are all reported subsets of the item pool up to size k+1
    (m <= 12).  udubv/ksmb deviations are the bids {0, t/2, t±δ, 2t, p, p±ε},
    with t the buyer's value and p her critical bid.  A winner pays her
    critical bid, and it depends on the other bids only (Lehmann,
    O'Callaghan and Shoham, JACM 2002), so p is her local payment at a bid
    above every value, whether she wins at t or not.  Every award is valued
    one way, by `_utility` (a udubv or ksmb award always lies in her public
    set, and every uduv value is 1).
    """
    eps = Fraction(1, 1000)
    if inst.mode == UDUV:
        if inst.m > 12:
            raise ValueError("full subset enumeration capped at m <= 12")
        subsets = [c for size in range(inst.k + 2) for c in combinations(range(inst.m), size)]

        def answer(buyer: int, overlay: Mapping | None) -> dict:
            return uduv_local(inst, ("buyer", buyer), None, overlay)

        def deviations(buyer: int) -> list[tuple[str, Mapping]]:
            return [(f"set={rep}", {buyer: rep}) for rep in subsets]

    else:
        top = max(inst.values, default=0) + 1

        def answer(buyer: int, overlay: Mapping | None) -> dict:
            return _bid_local(inst, buyer, None, overlay)

        def deviations(buyer: int) -> list[tuple[str, Mapping]]:
            t = inst.values[buyer]
            p = answer(buyer, {buyer: top})["payment"]
            grid = [ZERO, Fraction(t, 2), t - eps, t + eps, 2 * t, p, p - eps, p + eps]
            bids = [bid for bid in grid if bid >= 0 and bid != t]
            return [(f"bid={bid}", {buyer: bid}) for bid in bids]

    violations: list[Violation] = []
    for buyer in range(inst.n):
        u_truth = _utility(inst, buyer, answer(buyer, None))
        for report, overlay in deviations(buyer):
            u_dev = _utility(inst, buyer, answer(buyer, overlay))
            if u_dev > u_truth:
                violations.append(Violation(buyer, report, u_truth, u_dev))
    return violations
