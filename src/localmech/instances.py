"""Instance descriptions and construction.

An `InstanceSpec` is the portable recipe for an instance: a seed, a family
tag, the dimensions, and optional explicit data that overrides the rows and
values it draws (`seeded_rows`, `seeded_values`).  Specs round-trip through
JSON (the `lcmd gen` format; a key the family does not read is refused) and
`build_instance` turns one into the family-specific instance object.

`FAMILIES` is the one table of per-family knowledge that the harness and
the CLI read: how a spec is filled and built, which single-entity queries
the family answers locally (and how each answer is digested and printed),
its global run and its extra invariant checks.

Families:

    matching        n proposers with length-k ordered lists over m reviewers
    scheduling-std  n machines (slot capacities `bids`), m jobs, d slot choices
    scheduling-res  n machines, m jobs, d machine draws forming fixed menus
    uduv            n unit-demand buyers, m items, sets of size k, unit values
    udubv           as uduv but with private values (`valuations`)
    ksmb            n single-minded buyers wanting whole size-k sets
    housing         n agents, m houses, length-d ordered lists, lottery order
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from . import auctions, matching, rsd, scheduling
from .auctions import AuctionInstance
from .matching import MatchingInstance
from .randomness import RandomTape, sample_table, uniform_table
from .rsd import HousingInstance
from .scheduling import SchedulingInstance

__all__ = [
    "Query", "Family", "FAMILIES", "MAX_SIZE", "InstanceSpec", "build_instance", "spec_to_json",
    "spec_from_json", "int_rows",
]

# The largest n and m a spec may ask for.  A build takes time and memory in
# proportion to its size, so a spec past 2^20 entities on a side is refused
# up front rather than left to build until it is killed.
MAX_SIZE = 1 << 20


@dataclass(frozen=True)
class Query:
    """One kind of single-entity query: "what does the global run give this
    one entity?"

    `entity` names the queried entity; it is also the `lcmd` query flag
    (`--query-<entity>`) and the JSON key of the answer.  `side` is the
    instance attribute ("n" or "m") that counts those entities.  `local`
    maps (inst, rounds, entity, counter) to the local answer, `canon` an
    answer to the canonical string that the bench digests and the verify
    battery compares, and `doc` (entity, answer) to the JSON fields `lcmd`
    prints.
    """

    entity: str
    side: str
    local: Callable[..., Any]
    canon: Callable[[Any], str]
    doc: Callable[[int, Any], dict]


@dataclass(frozen=True)
class Family:
    """What every layer needs to know about one instance family.

    `size` is the name ("k" or "d") under which the list, set or menu size
    appears in the JSON spec and on the command line.  `values` is the JSON
    key of `InstanceSpec.values`, which `--bids` fills: "bids" for
    scheduling, "valuations" for udubv and ksmb, None for a family that
    takes none (uduv's values are all 1).  `rows` is the side ("n" or
    "m") that gives one `explicit_edges` row each, None for a family that
    takes none.  `cls` builds the instance through its `from_spec`
    classmethod.  `queries` holds the query kinds, the bench's kind first.
    `run` maps (inst, rounds) to the global run and one list of answers per
    query kind; `extra` maps (inst, global run) to the (verify row,
    violations) pairs beyond local == global.  Each row names its runner,
    answers and extra rows itself: none tests the instance's mode.

    Every function here looks the library's runners and local queries up on
    their modules when it is called, so wrappers set on those module
    attributes (tracing, profiling) see every call.
    """

    size: str
    values: str | None
    rows: str | None
    cls: type
    queries: tuple[Query, ...]
    run: Callable[[Any, int], tuple[Any, tuple[list, ...]]]
    extra: Callable[[Any, Any], list[tuple[str, int]]]


def _status_query(entity: str, side: str, partner: str, local) -> Query:
    def doc(e: int, st: matching.ManStatus) -> dict:
        matched = {} if st.partner is None else {partner: st.partner}
        return {entity: e, "status": st.state, **matched}

    return Query(entity, side, local, lambda st: f"{st.state}|{st.partner}", doc)


def _plain_query(entity: str, side: str, key: str, local) -> Query:
    return Query(entity, side, local, str, lambda e, got: {entity: e, key: got})


def _buyer_query(local) -> Query:
    def doc(e: int, got: dict) -> dict:
        return {"buyer": e, "award": list(got["award"]), "payment": str(got["payment"])}

    return Query("buyer", "n", local, lambda got: f"{got['award']}|{got['payment']}", doc)


def _matching_run(inst, rounds: int):
    statuses, _ = matching.abridged_gs(inst, rounds)
    holder = {st.partner: man for man, st in statuses.items() if st.state == matching.MATCHED}
    men = [statuses[man] for man in range(inst.n)]
    women = [
        matching.ManStatus.matched(holder[w]) if w in holder else matching.UNMATCHED_STATUS
        for w in range(inst.m)
    ]
    return statuses, (men, women)


def _matching_extra(inst, statuses) -> list[tuple[str, int]]:
    full, stats = matching.abridged_gs(inst, 10**6)
    mstar = matching.matched_count(full)
    nk = inst.n * inst.k
    return [
        ("round_rejections_bounded", sum(s.rejections > nk / s.round_index for s in stats)),
        ("truncated_size_lower_bound", sum(s.matched < mstar - nk / s.round_index for s in stats)),
        ("no_blocking_pairs_full_run", len(matching.blocking_pairs(inst, full))),
    ]


def _placed(alloc: scheduling.Allocation):
    return alloc, (alloc.assign,)


def _heights_rows(inst, alloc) -> list[tuple[str, int]]:
    counts = [0] * inst.n
    for mach in alloc.assign:
        if mach is not None:
            counts[mach] += 1
    return [("heights_match_assignments", int(tuple(counts) != alloc.heights))]


def _menu_rows(inst, alloc) -> list[tuple[str, int]]:
    jobs = zip(alloc.assign, inst.oracle.rows)
    outside = sum(1 for mach, menu in jobs if mach is not None and mach not in menu)
    return [("assignment_within_menu", outside)]


def _buyers(inst, out: auctions.Outcome):
    return out, ([{"award": out.awards[b], "payment": out.payments[b]} for b in range(inst.n)],)


def _buyers_and_items(inst, out: auctions.Outcome):
    _, (buyers,) = _buyers(inst, out)
    winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
    return out, (buyers, [winner_of.get(j) for j in range(inst.m)])


def _awarded_once_rows(inst, out) -> list[tuple[str, int]]:
    awarded = [j for jt in out.awards.values() for j in jt]
    return [("items_awarded_once", len(awarded) - len(set(awarded)))]


def _within_bid_rows(inst, out) -> list[tuple[str, int]]:
    winners = (b for b in range(inst.n) if out.awards[b])
    return [("winner_pays_at_most_bid", sum(out.payments[b] > inst.values[b] for b in winners))]


def _housing_run(inst, rounds: int):
    alloc = rsd.rsd_global(inst)
    return alloc, ([alloc[a] for a in range(inst.n)],)


def _housing_extra(inst, alloc) -> list[tuple[str, int]]:
    taken = [h for h in alloc.values() if h is not None]
    outside = sum(1 for a, h in alloc.items() if h is not None and h not in inst.oracle.rows[a])
    return [("houses_assigned_once", len(taken) - len(set(taken))), ("house_within_list", outside)]


FAMILIES: dict[str, Family] = {
    "matching": Family("k", None, "n", MatchingInstance, (
        _status_query("man", "n", "woman", lambda i, r, e, c: matching.local_ags(i, r, e, c)),
        _status_query("woman", "m", "man", lambda i, r, e, c: matching.local_ags_woman(i, r, e, c)),
    ), _matching_run, _matching_extra),
    "scheduling-std": Family("d", "bids", None, SchedulingInstance, (
        _plain_query("job", "m", "machine", lambda i, r, e, c: scheduling.slms_local(i, e, c)),
    ), lambda i, r: _placed(scheduling.slms_online(i, order=i.order)), _heights_rows),
    "scheduling-res": Family("d", "bids", "m", SchedulingInstance, (
        _plain_query("job", "m", "machine", lambda i, r, e, c: scheduling.rlms_local(i, e, c)),
    ), lambda i, r: _placed(scheduling.rlms_online(i, order=i.order)),
       lambda i, a: _heights_rows(i, a) + _menu_rows(i, a)),
    "uduv": Family("k", None, "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.uduv_local(i, ("buyer", e), c)),
        _plain_query("item", "m", "winner",
                     lambda i, r, e, c: auctions.uduv_local(i, ("item", e), c)["winner"]),
    ), lambda i, r: _buyers_and_items(i, auctions.uduv_run(i)), _awarded_once_rows),
    "udubv": Family("k", "valuations", "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.udubv_local(i, e, c)),
    ), lambda i, r: _buyers(i, auctions.udubv_run(i)),
       lambda i, o: _within_bid_rows(i, o) + _awarded_once_rows(i, o)),
    "ksmb": Family("k", "valuations", "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.ksmb_local(i, e, c)),
    ), lambda i, r: _buyers(i, auctions.ksmb_run(i)),
       lambda i, o: _within_bid_rows(i, o) + _awarded_once_rows(i, o)),
    "housing": Family("d", None, "n", HousingInstance, (
        _plain_query("agent", "n", "house", lambda i, r, e, c: rsd.rsd_local(i, e, c)),
    ), _housing_run, _housing_extra),
}


def _family(name: Any) -> Family:
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    return FAMILIES[name]


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one instance.

    `n` counts the querying side (men / machines / buyers / agents), `m` the
    resource side (women / jobs / items / houses).  `k` is the per-entity
    list, set or menu size (the scheduling and housing families call it d).
    Explicit fields, when given, override seeded generation of the same data:
    `values` gives one integer per entity of n, `explicit_edges` one row per
    entity of the family's `rows` side, of at most k raw entries as a seeded
    row holds k (the one width check of a row).  `n`, `m` and an explicit
    standard-mode slot pool (Σ values) are at most `MAX_SIZE`.
    """

    seed: int
    family: str
    n: int
    m: int
    k: int = 0
    values: tuple[int, ...] | None = None
    explicit_edges: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        fam = _family(self.family)
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise ValueError("n, m, k must be non-negative")
        if self.n > MAX_SIZE or self.m > MAX_SIZE:
            raise ValueError(f"n and m may be at most {MAX_SIZE}, got n={self.n}, m={self.m}")
        if self.values is not None:
            if fam.values is None:
                raise ValueError(f"{self.family} takes no values")
            if len(self.values) != self.n:
                raise ValueError(f"{fam.values} length must equal n")
            # the standard-mode oracle holds one reverse record per slot: an
            # empty one is the shared () at one pointer, so the cap bounds the
            # record table, while build time and memory follow the jobs' entries
            if self.family == "scheduling-std" and sum(self.values) > MAX_SIZE:
                raise ValueError(f"bids may sum to at most {MAX_SIZE} slots")
        if self.explicit_edges is not None:
            if fam.rows is None:
                raise ValueError(f"{self.family} takes no explicit_edges")
            want = getattr(self, fam.rows)
            if len(self.explicit_edges) != want:
                raise ValueError(f"explicit_edges needs one row per entity: {fam.rows}={want}")
            for i, row in enumerate(self.explicit_edges):
                if len(row) > self.k:
                    entity = fam.queries[0].entity
                    raise ValueError(f"{entity} {i} lists more than {fam.size}={self.k} entries")

    def seeded_rows(self, tag: str) -> Sequence[tuple[int, ...]]:
        """`explicit_edges` when given, else one row per entity of n: k
        distinct ids from [0, m), in draw order, drawn under (tag, i)."""
        if self.explicit_edges is not None:
            return self.explicit_edges
        if not 1 <= self.k <= self.m:
            size = FAMILIES[self.family].size
            raise ValueError(f"need 1 <= {size} <= m, got {size}={self.k}, m={self.m}")
        return sample_table(RandomTape(self.seed), tag, self.n, self.m, self.k)

    def seeded_values(self, tag: str, span: int) -> Sequence[int]:
        """`values` when given, else one draw from [1, span] per entity of n, under (tag, i)."""
        if self.values is not None:
            return self.values
        return [1 + v for v in uniform_table(RandomTape(self.seed), tag, self.n, span)]


def spec_to_json(spec: InstanceSpec) -> str:
    fam = FAMILIES[spec.family]
    doc: dict[str, Any] = {
        "seed": spec.seed,
        "family": spec.family,
        "n": spec.n,
        "m": spec.m,
        fam.size: spec.k,
    }
    if spec.values is not None:
        doc[fam.values] = list(spec.values)
    if spec.explicit_edges is not None:
        doc["explicit_edges"] = [list(e) for e in spec.explicit_edges]
    return json.dumps(doc, indent=2, sort_keys=True)


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int(x, what) for x in value)


def int_rows(value: Any, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of integer lists as tuples; ValueError on any other shape."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integer lists, got {value!r}")
    return tuple(_ints(row, f"each row of {what}") for row in value)


def spec_from_json(text: str) -> InstanceSpec:
    """The spec of a `gen` JSON object; ValueError on any key its family does not read."""
    doc = json.loads(text)
    if not isinstance(doc, Mapping):
        raise ValueError("instance JSON must be an object")
    missing = [key for key in ("family", "seed", "n") if key not in doc]
    if missing:
        raise ValueError(f"instance JSON missing required field {missing[0]!r}")
    fam = _family(doc["family"])
    taken = {"family", "seed", "n", "m", fam.size, fam.values, fam.rows and "explicit_edges"}
    foreign = sorted(set(doc) - taken)
    if foreign:
        raise ValueError(f"{doc['family']} takes no field {foreign[0]!r}")
    n = _int(doc["n"], "n")
    m = _int(doc.get("m", n), "m")

    def _field(name: str | None, parse):
        return None if doc.get(name) is None else parse(doc[name], name)

    return InstanceSpec(
        seed=_int(doc["seed"], "seed"),
        family=doc["family"],
        n=n,
        m=m,
        k=_int(doc.get(fam.size, 0), fam.size),
        values=_field(fam.values, _ints),
        explicit_edges=_field("explicit_edges", int_rows),
    )


def build_instance(spec: InstanceSpec):
    """Construct the family-specific instance object for `spec`."""
    # `from_spec` is looked up on the class at each call, so a wrapper set
    # on the class attribute (tracing, profiling) sees every build.
    return FAMILIES[spec.family].cls.from_spec(spec)
