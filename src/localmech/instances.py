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
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "FAMILIES", "InstanceSpec", "build_instance", "spec_to_json", "spec_from_json", "int_rows"
]

FAMILIES = (
    "matching",
    "scheduling-std",
    "scheduling-res",
    "uduv",
    "udubv",
    "ksmb",
    "housing",
)


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
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise ValueError("n, m, k must be non-negative")

    @property
    def d(self) -> int:
        """Menu / list size alias used by the scheduling and housing families."""
        return self.k


def spec_to_json(spec: InstanceSpec) -> str:
    size_key = "d" if spec.family in ("scheduling-std", "scheduling-res", "housing") else "k"
    doc: dict[str, Any] = {
        "seed": spec.seed,
        "family": spec.family,
        "n": spec.n,
        "m": spec.m,
        size_key: spec.k,
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
    if spec.family == "matching":
        from . import matching

        return matching.MatchingInstance.from_spec(spec)
    if spec.family in ("scheduling-std", "scheduling-res"):
        from . import scheduling

        return scheduling.SchedulingInstance.from_spec(spec)
    if spec.family in ("uduv", "udubv", "ksmb"):
        from . import auctions

        return auctions.AuctionInstance.from_spec(spec)
    if spec.family == "housing":
        from . import rsd

        return rsd.HousingInstance.from_spec(spec)
    raise ValueError(f"unknown family {spec.family!r}")
