"""Serial dictatorship over houses with a seeded lottery order.

Each agent holds an ordered list of d houses; agents take turns in
increasing lottery number (seeded uniform over [1, n⁴]; the rare collision
goes to the smaller agent id) and grab their best still-available listed
house, or nothing if all d are gone.  The lottery is sorted at build time.

The local query resolves an agent by settling only the earlier-arriving
agents who share a listed house, transitively (`probes.upward_closure`) — the
rest of the lottery provably cannot touch her outcome.  `serial_dictatorship`
is the one replay step, run by the global runner over every agent, by the
local query over its closure, and by the udubv and uduv auctions.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .probes import LEFT, AdjacencyOracle, ProbeCounter, query_view, rank_tables, upward_closure
from .randomness import RandomTape, uniform_table

if TYPE_CHECKING:  # instances imports this module for its family table
    from .instances import InstanceSpec

__all__ = ["HousingInstance", "serial_dictatorship", "rsd_global", "rsd_local"]


class HousingInstance:
    def __init__(
        self,
        lists: Sequence[Sequence[int]],
        m: int,
        seed: int = 0,
        ranks: Sequence[int] | None = None,
    ) -> None:
        self.lists: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in lists)
        self.n = len(self.lists)
        self.m = m
        self.seed = seed
        self.tape = RandomTape(seed)
        self.d = max(map(len, self.lists), default=0)
        if ranks is not None:
            if len(ranks) != self.n:
                raise ValueError("need one lottery number per agent")
            try:
                self.ranks: tuple[int, ...] = tuple(index(r) for r in ranks)
            except TypeError:
                raise ValueError("lottery numbers must be integers") from None
        else:
            lottery = uniform_table(self.tape, "lottery", self.n, max(1, self.n**4))
            self.ranks = tuple(1 + v for v in lottery)
        self.order, self.place = rank_tables(self.ranks)
        self.oracle = AdjacencyOracle(self.lists, m, range(self.n))

    @classmethod
    def from_spec(cls, spec: InstanceSpec) -> "HousingInstance":
        if spec.family != "housing":
            raise ValueError(f"not a housing spec: {spec.family!r}")
        return cls(spec.seeded_rows("house-list"), m=spec.m, seed=spec.seed)

    @classmethod
    def seeded(cls, n: int, d: int, seed: int) -> "HousingInstance":
        from .instances import InstanceSpec

        return cls.from_spec(InstanceSpec(seed=seed, family="housing", n=n, m=n, k=d))


def serial_dictatorship(
    order: Iterable[int], prefs: Callable[[int], Sequence[int]]
) -> dict[int, int | None]:
    """Each entity of `order` in turn takes the first entry of prefs(entity)
    that no earlier entity took, or None if every entry is taken."""
    got: dict[int, int | None] = {}
    taken: set[int] = set()
    for a in order:
        pick = None
        for h in prefs(a):
            if h not in taken:
                taken.add(h)
                pick = h
                break
        got[a] = pick
    return got


def rsd_global(inst: HousingInstance) -> dict[int, int | None]:
    return serial_dictatorship(inst.order, inst.lists.__getitem__)


def rsd_local(
    inst: HousingInstance, agent: int, counter: ProbeCounter | None = None
) -> int | None:
    """House of `agent`, equal to rsd_global's, resolved from the closure of
    earlier-arriving agents who share a house, transitively.  Lottery
    numbers are seeded mechanism data and cost no probes; reading an agent's
    list or a house's interested-agents list costs one probe each (the
    queried agent's own list is free)."""
    view = query_view(inst.oracle, (LEFT, agent), counter, "agent")
    closure = upward_closure((agent,), inst.place, view.fwd, view.rev)
    return serial_dictatorship(closure, view.fwd)[agent]
