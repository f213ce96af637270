"""Instance descriptions and construction.

An `InstanceSpec` is the portable recipe for an instance: a seed, a family
tag, the dimensions, and optional explicit data that overrides seeded
generation.  Specs round-trip through JSON (the `lcmd gen` format) and
`build_instance` turns one into the family-specific instance object.

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
from typing import Any, Mapping

from .auctions import AuctionInstance
from .matching import MatchingInstance
from .rsd import HousingInstance
from .scheduling import SchedulingInstance

__all__ = [
    "Family", "FAMILIES", "InstanceSpec", "build_instance", "spec_to_json", "spec_from_json",
    "int_rows",
]


@dataclass(frozen=True)
class Family:
    """What every layer needs to know about one instance family.

    `size` is the name ("k" or "d") under which the list, set or menu size
    appears in the JSON spec and on the command line.  `values` names the
    spec field ("bids" or "valuations") that `--bids` fills, None for a
    family that takes no per-entity integers.  `cls` builds the instance
    through its `from_spec` classmethod.
    """

    size: str
    values: str | None
    cls: type


FAMILIES: dict[str, Family] = {
    "matching": Family("k", None, MatchingInstance),
    "scheduling-std": Family("d", "bids", SchedulingInstance),
    "scheduling-res": Family("d", "bids", SchedulingInstance),
    "uduv": Family("k", "valuations", AuctionInstance),
    "udubv": Family("k", "valuations", AuctionInstance),
    "ksmb": Family("k", "valuations", AuctionInstance),
    "housing": Family("d", None, HousingInstance),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one instance.

    `n` counts the querying side (men / machines / buyers / agents), `m` the
    resource side (women / jobs / items / houses).  `k` is the per-entity
    list, set or menu size (the scheduling and housing families call it d).
    Explicit fields, when given, override seeded generation of the same data.
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise ValueError("n, m, k must be non-negative")


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
