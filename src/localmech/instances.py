"""Instance descriptions and construction.

An `InstanceSpec` is the portable recipe for an instance: a seed, a family
tag, the dimensions, and optional explicit data that overrides seeded
generation.  Specs round-trip through JSON (the `lcmd gen` format) and
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
from typing import Any, Callable, Mapping

from . import auctions, matching, rsd, scheduling
from .auctions import AuctionInstance
from .matching import MatchingInstance
from .rsd import HousingInstance
from .scheduling import SchedulingInstance

__all__ = [
    "Query", "Family", "FAMILIES", "InstanceSpec", "build_instance", "spec_to_json",
    "spec_from_json", "int_rows",
]


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
    appears in the JSON spec and on the command line.  `values` names the
    spec field ("bids" or "valuations") that `--bids` fills, None for a
    family that takes no per-entity integers.  `rows` is the side ("n" or
    "m") that gives one `explicit_edges` row each, None for a family that
    takes none.  `cls` builds the instance through its `from_spec`
    classmethod.  `queries` holds the query kinds, the bench's kind first.
    `run` maps (inst, rounds) to the global run and one list of answers per
    query kind; `extra` maps (inst, global run) to the (verify row,
    violations) pairs beyond local == global.

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


def _scheduling_run(inst, rounds: int):
    std = inst.mode == scheduling.STANDARD
    runner = scheduling.slms_online if std else scheduling.rlms_online
    alloc = runner(inst, order=inst.rank_order())
    return alloc, (alloc.assign,)


def _scheduling_extra(inst, alloc) -> list[tuple[str, int]]:
    counts = [0] * inst.n
    for mach in alloc.assign:
        if mach is not None:
            counts[mach] += 1
    rows = [("heights_match_assignments", int(tuple(counts) != alloc.heights))]
    if inst.mode == scheduling.RESTRICTED:
        jobs = enumerate(alloc.assign)
        outside = sum(1 for j, mach in jobs if mach is not None and mach not in inst.menu(j))
        rows.append(("assignment_within_menu", outside))
    return rows


def _auction_run(inst, rounds: int):
    out = getattr(auctions, f"{inst.mode}_run")(inst)
    buyers = [{"award": out.awards[b], "payment": out.payments[b]} for b in range(inst.n)]
    if inst.mode != auctions.UDUV:
        return out, (buyers,)
    winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
    return out, (buyers, [winner_of.get(j) for j in range(inst.m)])


def _auction_extra(inst, out) -> list[tuple[str, int]]:
    rows = []
    if inst.mode != auctions.UDUV:
        winners = (b for b in range(inst.n) if out.awards[b])
        overpaid = sum(1 for b in winners if out.payments[b] > inst.values[b])
        rows.append(("winner_pays_at_most_bid", overpaid))
    awarded = [j for jt in out.awards.values() for j in jt]
    return rows + [("items_awarded_once", len(awarded) - len(set(awarded)))]


def _housing_run(inst, rounds: int):
    alloc = rsd.rsd_global(inst)
    return alloc, ([alloc[a] for a in range(inst.n)],)


def _housing_extra(inst, alloc) -> list[tuple[str, int]]:
    taken = [h for h in alloc.values() if h is not None]
    outside = sum(1 for a, h in alloc.items() if h is not None and h not in inst.lists[a])
    return [("houses_assigned_once", len(taken) - len(set(taken))), ("house_within_list", outside)]


FAMILIES: dict[str, Family] = {
    "matching": Family("k", None, "n", MatchingInstance, (
        _status_query("man", "n", "woman", lambda i, r, e, c: matching.local_ags(i, r, e, c)),
        _status_query("woman", "m", "man", lambda i, r, e, c: matching.local_ags_woman(i, r, e, c)),
    ), _matching_run, _matching_extra),
    "scheduling-std": Family("d", "bids", None, SchedulingInstance, (
        _plain_query("job", "m", "machine", lambda i, r, e, c: scheduling.slms_local(i, e, c)),
    ), _scheduling_run, _scheduling_extra),
    "scheduling-res": Family("d", "bids", "m", SchedulingInstance, (
        _plain_query("job", "m", "machine", lambda i, r, e, c: scheduling.rlms_local(i, e, c)),
    ), _scheduling_run, _scheduling_extra),
    "uduv": Family("k", "valuations", "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.uduv_local(i, ("buyer", e), c)),
        _plain_query("item", "m", "winner",
                     lambda i, r, e, c: auctions.uduv_local(i, ("item", e), c)["winner"]),
    ), _auction_run, _auction_extra),
    "udubv": Family("k", "valuations", "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.udubv_local(i, e, c)),
    ), _auction_run, _auction_extra),
    "ksmb": Family("k", "valuations", "n", AuctionInstance, (
        _buyer_query(lambda i, r, e, c: auctions.ksmb_local(i, e, c)),
    ), _auction_run, _auction_extra),
    "housing": Family("d", None, "n", HousingInstance, (
        _plain_query("agent", "n", "house", lambda i, r, e, c: rsd.rsd_local(i, e, c)),
    ), _housing_run, _housing_extra),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one instance.

    `n` counts the querying side (men / machines / buyers / agents), `m` the
    resource side (women / jobs / items / houses).  `k` is the per-entity
    list, set or menu size (the scheduling and housing families call it d).
    Explicit fields, when given, override seeded generation of the same data;
    `explicit_edges` gives one row per entity of the family's `rows` side.
    """

    seed: int
    family: str
    n: int
    m: int
    k: int = 0
    bids: tuple[int, ...] | None = None
    valuations: tuple[int, ...] | None = None
    explicit_edges: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise ValueError("n, m, k must be non-negative")
        if self.explicit_edges is not None:
            rows = FAMILIES[self.family].rows
            if rows is None:
                raise ValueError(f"{self.family} takes no explicit_edges")
            want = getattr(self, rows)
            if len(self.explicit_edges) != want:
                raise ValueError(f"explicit_edges needs one row per entity: {rows}={want}")


def spec_to_json(spec: InstanceSpec) -> str:
    doc: dict[str, Any] = {
        "seed": spec.seed,
        "family": spec.family,
        "n": spec.n,
        "m": spec.m,
        FAMILIES[spec.family].size: spec.k,
    }
    if spec.bids is not None:
        doc["bids"] = list(spec.bids)
    if spec.valuations is not None:
        doc["valuations"] = list(spec.valuations)
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
    doc = json.loads(text)
    if not isinstance(doc, Mapping):
        raise ValueError("instance JSON must be an object")
    missing = [key for key in ("family", "seed", "n") if key not in doc]
    if missing:
        raise ValueError(f"instance JSON missing required field {missing[0]!r}")
    n = _int(doc["n"], "n")
    m = _int(doc.get("m", n), "m")
    if "k" in doc and "d" in doc and _int(doc["k"], "k") != _int(doc["d"], "d"):
        raise ValueError("instance JSON gives conflicting k and d")
    size = "k" if "k" in doc else "d"

    def _field(name: str, parse):
        return None if doc.get(name) is None else parse(doc[name], name)

    return InstanceSpec(
        seed=_int(doc["seed"], "seed"),
        family=doc["family"],
        n=n,
        m=m,
        k=_int(doc.get(size, 0), size),
        bids=_field("bids", _ints),
        valuations=_field("valuations", _ints),
        explicit_edges=_field("explicit_edges", int_rows),
    )


def build_instance(spec: InstanceSpec):
    """Construct the family-specific instance object for `spec`."""
    # `from_spec` is looked up on the class at each call, so a wrapper set
    # on the class attribute (tracing, profiling) sees every build.
    return FAMILIES[spec.family].cls.from_spec(spec)
