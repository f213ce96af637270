"""Probe-counted access to bipartite adjacency records.

The cost model used throughout the package: one *probe* is one access to one
entity's adjacency/preference record.  A local query's probes are its read
set: its `ProbeCounter` keeps each record its view read, once, and leaves
out the ones the query hands over free.  Every local query opens its view
with `query_view`, which refuses an id that is not its side's and hands
over the queried entity's own record free.  Under a report overlay (a
plain mapping from entity to report, read through `reported_reads`) a
reported row is free too, and a rebuilt record costs the true record it
replaces, so an overlay costs a query no more than the records it patches.
Reverse lists are materialized once at build time, in the order the
instance gives (ascending id, or bid order for udubv and ksmb); that setup
pass is not counted, but every *access* to a reverse record is, whatever
its order.  Left ids and places are the ints of one table, `ids(n)`, which
stays cached until another n is asked: the reverse records, the rank tables
and the global runs' per-entity results share its objects instead of each
making its own.  The same pass states the three rules of a left row for every
family: each right id is an int, in range, and named once.  The build's
time and memory follow the entries: an empty record is the shared `()`,
one pointer in the record table, so a standard-mode slot pool of mostly
empty slots builds at the cost of its jobs' choices.

Entities are `(side, id)` pairs with side "L" (men / jobs / buyers / agents)
or "R" (women / machines-and-slots / items / houses).

`upward_closure` is the dependency engine of the rank-order local queries of
scheduling, housing and the uduv auction: the query tree of Mansour,
Rubinstein, Vardi and Xie (ICALP 2012).  A greedy rule that serves entities in priority order
decides an entity from the higher-priority entities sharing a resource with
it, transitively; the query collects that set and replays the rule on it.
Instances sort their order once, at build (`rank_tables`, two tuples over
`ids(n)`); queries compare places.

`resolve` walks the memoised query trees of Nguyen and Onak
(FOCS 2008), asked best first as Yoshida, Yamamoto and Ito do (STOC 2009):
the udubv and ksmb buyer queries and matching's rejection rounds.  A frame
yields each question its answer needs and is sent that question's answer;
the caller's `lookup` and `store` hold the memo policy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Generator, Hashable, Iterable, Mapping, Sequence

__all__ = [
    "Entity", "ids", "ProbeCounter", "AdjacencyOracle", "MemoView", "query_view", "reported_reads",
    "neighborhood", "rank_tables", "upward_closure", "resolve",
]

Entity = tuple[str, int]

LEFT = "L"
RIGHT = "R"


@lru_cache(maxsize=1)
def ids(n: int) -> tuple[int, ...]:
    """`tuple(range(n))`, cached for the last n asked: the one source of the
    left-id and place ints, so the records and tables that list an id all
    hold the same int object."""
    return tuple(range(n))


class ProbeCounter:
    """A counter serves one local query: `seen` holds each record its view
    read or was handed free, and `count`, its probes, all but the free ones."""

    __slots__ = ("seen", "free")

    def __init__(self) -> None:
        self.seen: set[Entity] = set()
        self.free = 0

    @property
    def count(self) -> int:
        return len(self.seen) - self.free


class AdjacencyOracle:
    """Bipartite adjacency: n left records (ordered tuples of right ids)
    plus materialized reverse records, each listing its left ids in the
    order the instance gives (`order`, a permutation of the int ids
    0..n-1: `range(n)` for ascending ids, which walks `ids(n)`, or the bid
    order for udubv and ksmb, whose ints come from that table).  A record
    gets its list at its first entry, so the build costs time and memory
    per entry plus one pointer per record, and an empty record is the
    shared `()`.

    Every left row keeps three rules, checked in that one pass, row by row
    in `order`: each id is an int (a bool is not one), in [0, m), and named
    once.  A row that names j twice finds itself already at the end of j's
    record, so a repeat costs one comparison and no set.

    `rows` and `cols` are the one stored copies of the left rows and the
    right records.  A global run walks them uncounted, as do the checked
    single-record reads `fwd` and `rev`; a local query reads a record only
    through its `MemoView`, which charges the probe."""

    __slots__ = ("n", "m", "rows", "cols")

    def __init__(self, fwd: Sequence[Sequence[int]], m: int, order: Sequence[int]) -> None:
        if m < 0:
            raise ValueError(f"right count must be >= 0, got m={m}")
        self.n = len(fwd)
        self.m = m
        # a range compares to range(n) in O(1) and walks the id table; any
        # other order is sorted, once each entry is known to be an int (a
        # bool or 1.0 sorts as one)
        if order == range(self.n):
            order = ids(self.n)
        elif not set(map(type, order)) <= {int} or sorted(order) != list(range(self.n)):
            raise ValueError(f"order must be a permutation of the {self.n} left ids")
        rows = self.rows = tuple(map(tuple, fwd))
        rev: list = [()] * m  # () until the record's first entry
        for i in order:
            for j in rows[i]:
                if type(j) is not int:  # a bool, float or str is no id
                    raise ValueError(f"right id {j!r} is not an int")
                if not 0 <= j < m:
                    raise ValueError(f"right id {j} out of range [0, {m})")
                r = rev[j]
                if not r:
                    rev[j] = [i]
                elif r[-1] == i:  # row i reached j before
                    raise ValueError(f"left id {i} names right id {j} twice")
                else:
                    r.append(i)
        self.cols: tuple[tuple[int, ...], ...] = tuple(map(tuple, rev))

    # each read refuses what `_known` refuses, inline
    def fwd(self, i: int) -> tuple[int, ...]:
        if type(i) is not int or not 0 <= i < self.n:
            raise ValueError(f"left id {i!r} out of range [0, {self.n})")
        return self.rows[i]

    def rev(self, j: int) -> tuple[int, ...]:
        if type(j) is not int or not 0 <= j < self.m:
            raise ValueError(f"right id {j!r} out of range [0, {self.m})")
        return self.cols[j]


class MemoView:
    """Per-query oracle view: each read adds its record to the counter's
    `seen` (a fresh counter's if `counter` is None), so a repeat costs
    nothing."""

    __slots__ = ("_oracle", "_seen")

    def __init__(self, oracle: AdjacencyOracle, counter: ProbeCounter | None) -> None:
        self._oracle = oracle
        self._seen = (counter or ProbeCounter()).seen

    def fwd(self, i: int) -> tuple[int, ...]:
        self._seen.add((LEFT, i))
        return self._oracle.rows[i]

    def rev(self, j: int) -> tuple[int, ...]:
        self._seen.add((RIGHT, j))
        return self._oracle.cols[j]


def _known(oracle: AdjacencyOracle, side: str, i: object) -> bool:
    """Whether `i` is an id of `side`: an int (a bool is not one) in range."""
    return type(i) is int and 0 <= i < (oracle.n if side == LEFT else oracle.m)


def query_view(
    oracle: AdjacencyOracle, entity: Entity, counter: ProbeCounter | None, kind: str
) -> MemoView:
    """The view a local query about `entity`, a `kind` ("man", "job", ...),
    reads through: an id that is not its side's is refused, and the
    entity's own record is free, unless a shared counter has read it."""
    side, i = entity
    if not _known(oracle, side, i):
        raise ValueError(f"unknown {kind} {i}")
    counter = counter or ProbeCounter()
    if entity not in counter.seen:
        counter.seen.add(entity)
        counter.free += 1
    return MemoView(oracle, counter)


def reported_reads(
    view: MemoView, rows: Mapping[int, Sequence[int]], moved: Iterable[int], key: Callable | None
) -> tuple[Callable[[int], Sequence[int]], Callable[[int], Sequence[int]]]:
    """`view`'s (fwd, rev) under reported left `rows` and reported sort keys
    of the `moved` ids.  fwd(i) is i's reported row if she has one; rev(r)
    is rebuilt once per query (reporters dropped, those whose rows name r
    added, sorted by `key`, or by id if it is None) if it lists a reporter
    or a mover or a reported row names r.  Nothing reported: the view's own
    reads."""
    if not rows and not moved:
        return view.fwd, view.rev
    named: dict[int, list[int]] = {}  # right id → reporters whose rows name it
    for i, row in rows.items():
        for r in row:
            named.setdefault(r, []).append(i)
    touched = set(moved).union(rows)
    records: dict[int, Sequence[int]] = {}

    def fwd(i: int) -> Sequence[int]:
        return rows[i] if i in rows else view.fwd(i)

    def rev(r: int) -> Sequence[int]:
        got = records.get(r)
        if got is None:
            got = view.rev(r)
            if r in named or not touched.isdisjoint(got):
                got = sorted([i for i in got if i not in rows] + named.get(r, []), key=key)
            records[r] = got
        return got

    return fwd, rev


def neighborhood(
    oracle: AdjacencyOracle,
    entity: Entity,
    radius: int,
    counter: ProbeCounter | None = None,
) -> set[Entity]:
    """All entities within `radius` hops of `entity` (inclusive).

    A vertex's list is read when the vertex is expanded, i.e. when its
    distance is < radius; each list read costs one probe, including the
    root's.  Vertices on the boundary are reported but not expanded.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side, idx = entity
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    if not _known(oracle, side, idx):
        raise ValueError(f"entity id {idx} out of range")
    view = MemoView(oracle, counter)
    seen: set[Entity] = {entity}
    frontier: list[Entity] = [entity]
    for _ in range(radius):
        nxt: list[Entity] = []
        for s, i in frontier:
            nbrs = view.fwd(i) if s == LEFT else view.rev(i)
            other = RIGHT if s == LEFT else LEFT
            for j in nbrs:
                e = (other, j)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        if not nxt:
            break
        frontier = nxt
    return seen


def rank_tables(keys: Sequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ids 0..len(keys)-1 by ascending key, ties to the smaller id
    (`sorted` is stable; a descending order passes negated keys), and each
    id's place in that order: `order[place[x]] == x`.  Both hold the ints
    of `ids(len(keys))`, so a read returns a stored int.  They are tuples,
    which the collector stops tracking once it finds only ints in them: two
    lists would be walked again by every full collection of the process."""
    table = ids(len(keys))
    order = tuple(sorted(table, key=keys.__getitem__))
    place = [0] * len(order)
    for p, x in zip(table, order):
        place[x] = p
    return order, tuple(place)


def upward_closure(
    seeds: Iterable[int],
    place: Sequence[int],
    out: Callable[[int], Iterable[int]],
    back: Callable[[int], Iterable[int]],
) -> list[int]:
    """The seeds plus every y with place[y] < place[x] found in back(r) for
    some r in out(x), x already in the set, transitively, sorted by place:
    the order in which the greedy rule serves them.

    With `out`/`back` the reads of a `MemoView`, this reads out(x) for every
    member and back(r) for every r it lists, whatever the visiting order, so
    the probes charged depend only on the set returned.
    """
    members = set(seeds)
    stack = list(members)
    while stack:
        x = stack.pop()
        px = place[x]
        for r in out(x):
            for y in back(r):
                if y not in members and place[y] < px:
                    members.add(y)
                    stack.append(y)
    return sorted(members, key=place.__getitem__)


def resolve(
    root: Hashable,
    frame: Callable[[Any], Generator],
    lookup: Callable[[Any], Any],
    store: Callable[[Any, Any], object],
) -> Any:
    """The answer to `root`: `lookup(root)` if that is not None, else computed.

    `frame(q)` is a generator that yields each question q's answer needs, is
    sent that question's answer, and returns q's answer.  `lookup(q)` gives a
    known answer or None, in which case q gets a frame of its own; every
    answer a frame returns is handed to `store(q, answer)`.  Answers are never
    None.  The frames live on an explicit stack, because a chain of questions
    can be as long as the instance.
    """
    answer = lookup(root)
    if answer is not None:
        return answer
    # the open question and its frame stay in locals, so a step that meets
    # a known answer only sends it; the frames below wait on the stack
    q, gen = root, frame(root)
    stack: list[tuple[Any, Generator]] = []
    while True:
        try:
            sub = gen.send(answer)
        except StopIteration as done:
            answer = done.value
            store(q, answer)
            if not stack:
                return answer
            q, gen = stack.pop()
            continue
        answer = lookup(sub)
        if answer is None:
            stack.append((q, gen))
            q, gen = sub, frame(sub)
