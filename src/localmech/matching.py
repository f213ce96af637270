"""Stable matching: global Gale-Shapley, the round-truncated variant, and a
per-man local simulation consistent with it.

Men hold ordered lists of at most k women; women score suitors with a strict
priority (seeded hash scores, or explicit rankings for hand-built fixtures).
Proposals within a round are simultaneous: every free, non-exhausted man
proposes to the next woman on his list, and each woman keeps the best of
{current hold} ∪ {new proposers}.  The global run meets the proposers one
at a time, each against the holder so far: a strict maximum does not depend
on the order of the comparisons, so the holders and the rejected men are
the simultaneous round's.  A man rejected in the final truncated round who
still has names left is reported as disqualified — his outcome is the one
thing an ℓ-round run genuinely leaves undecided.

The local query never replays rounds.  A man is rejected by the woman at
position i of his list in round max(his arrival there, the earliest arrival
of any suitor she ranks above him), and he arrives one round after his
rejection at position i-1.  So his answer depends only on the arrival chains
of higher-ranked rivals, which the query settles by a memoised recursion in
the manner of Nguyen and Onak: rivals in list-position order, stopping as
soon as the outcome is fixed, with the round budget falling at every level;
`probes.resolve` drives it.  It equals the truncated global run's answer,
record for record.  A woman keeps the best proposal so far, so her query
answers with the first of her suitors, best first, to arrive within the budget.

Priority keys: `MatchingInstance.priority_key(w, man)` is the per-pair
definition.  A seeded instance draws the stems ("woman-priority", w) and the
men's leaves at build (`randomness.pair_tables`); a key is one mix of the
two.  The global run mixes each round's proposals in one `proposal_keys`
call, a block of lanes at a time, and keeps each holder's key, so it mixes
only the keys it compares, each once, as `blocking_pairs` does.  A local
query takes a settled woman's `suitor_keys`, one mix per suitor.  Explicit
rankings draw no tables and answer from the ranking.

Cost rule: priority scores are derived from the seed and cost no probes;
reading any man's list or any woman's suitor list costs one probe per query
(memoised), except the queried entity's own record.  Settling a woman reads
her suitor record and every suitor's list.  The recursion only settles women
a man could reach within the remaining budget, so the records a query reads
are a subset of its radius-2ℓ neighborhood, and usually a small one.  A
woman query settles her first, which is all it reads when her best suitor
lists her first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .probes import LEFT, RIGHT, AdjacencyOracle, MemoView, ProbeCounter, query_view, resolve
from .randomness import RandomTape, pair_keys, pair_mix, pair_tables

if TYPE_CHECKING:  # instances imports this module for its family table
    from .instances import InstanceSpec

__all__ = [
    "ManStatus",
    "RoundStats",
    "MatchingInstance",
    "global_gs",
    "abridged_gs",
    "local_ags",
    "local_ags_woman",
    "default_rounds",
    "rounds_for_epsilon",
    "blocking_pairs",
    "matched_count",
]

MATCHED = "matched"
UNMATCHED = "unmatched"
DISQUALIFIED = "disqualified"


@dataclass(frozen=True)
class ManStatus:
    """Outcome for one participant: matched (with partner), unmatched, or —
    only in truncated runs — disqualified."""

    state: str
    partner: int | None = None

    @classmethod
    def matched(cls, partner: int) -> "ManStatus":
        return cls(MATCHED, partner)


UNMATCHED_STATUS = ManStatus(UNMATCHED)
DISQUALIFIED_STATUS = ManStatus(DISQUALIFIED)


@dataclass(frozen=True)
class RoundStats:
    """Per-round tallies of a truncated run.

    rejections:               men rejected in this round (R)
    rejected_with_remaining:  of those, men with names still left (C)
    exhausted_total:          men out of names by the end of this round (D, cumulative)
    matched:                  engaged couples at the end of this round (M)
    """

    round_index: int
    rejections: int
    rejected_with_remaining: int
    exhausted_total: int
    matched: int


class MatchingInstance:
    def __init__(
        self,
        men_prefs: Sequence[Sequence[int]],
        m: int,
        seed: int = 0,
        women_prefs: Sequence[Sequence[int]] | None = None,
        k: int | None = None,
    ) -> None:
        self.men_prefs: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in men_prefs)
        self.n = len(self.men_prefs)
        self.m = m
        self.k = k if k is not None else max((len(p) for p in self.men_prefs), default=0)
        self.seed = seed
        self.tape = RandomTape(seed)
        for i, p in enumerate(self.men_prefs):
            if len(set(p)) != len(p):
                raise ValueError(f"man {i} lists a woman twice")
            if len(p) > self.k:
                raise ValueError(f"man {i} lists more than k={self.k} women")
        self.oracle = AdjacencyOracle(self.men_prefs, m, range(self.n))
        # Explicit women rankings (best first) for hand fixtures; otherwise
        # priorities are seeded hash scores, strict by construction.
        self._explicit_rank: list[dict[int, int]] | None = None
        if women_prefs is not None:
            if len(women_prefs) != m:
                raise ValueError("need one ranking per woman")
            for w, order in enumerate(women_prefs):
                # an id is an int, checked before a set folds True into 1
                # or meets an id it cannot hash
                if any(type(man) is not int or not 0 <= man < self.n for man in order):
                    raise ValueError(f"woman {w} ranks a man outside 0..{self.n - 1}")
                if len(set(order)) != len(order):
                    raise ValueError(f"woman {w} ranks a man twice")
            self._explicit_rank = [
                {man: len(order) - pos for pos, man in enumerate(order)}
                for order in women_prefs
            ]
        else:  # the stems ("woman-priority", w) and the leaves of the men
            self._tables = pair_tables(self.tape, "woman-priority", m, self.n)

    @classmethod
    def from_spec(cls, spec: InstanceSpec) -> "MatchingInstance":
        if spec.family != "matching":
            raise ValueError(f"not a matching spec: {spec.family!r}")
        return cls(spec.seeded_rows("men-list"), m=spec.m, seed=spec.seed, k=spec.k)

    @classmethod
    def seeded(cls, n: int, k: int, seed: int) -> "MatchingInstance":
        from .instances import InstanceSpec

        return cls.from_spec(InstanceSpec(seed=seed, family="matching", n=n, m=n, k=k))

    def priority_key(self, woman: int, man: int) -> tuple[int, int]:
        """Strict comparable priority of `man` for `woman`; larger wins.
        Hash-score ties (negligible but possible) go to the smaller man id."""
        if not (0 <= woman < self.m and 0 <= man < self.n):
            raise IndexError(f"no woman {woman} or no man {man} in this instance")
        if self._explicit_rank is not None:
            return (self._explicit_rank[woman].get(man, -1), -man)
        return (self.tape.u64("woman-priority", woman, man), -man)

    def proposal_keys(self, women: Sequence[int], men: Sequence[int]) -> list[int]:
        """The first part of `priority_key(w, man)` for each pair of `women` and
        `men`, mixed from a seeded instance's tables a block of lanes at a time."""
        if self._explicit_rank is None:
            return pair_mix(self._tables, women, men)  # which refuses ids outside the tables
        if min(women, default=0) < 0 or any(not 0 <= man < self.n for man in men):
            raise IndexError("a woman or a man of the pairs is not in this instance")
        rank = self._explicit_rank  # a list, so a woman past the last raises IndexError
        return [rank[w].get(man, -1) for w, man in zip(women, men, strict=True)]

    def suitor_keys(self, woman: int, men: Sequence[int]) -> list[int]:
        """The first part of `priority_key(woman, man)` for each of `men`; a
        seeded instance takes one mix step per man from its tables."""
        if self._explicit_rank is None:
            return pair_keys(self._tables, woman, men)  # which refuses ids outside the tables
        if not 0 <= woman < self.m:
            raise IndexError(f"no woman {woman} in this instance")
        return self.proposal_keys([woman] * len(men), men)


# ---------------------------------------------------------------------------
# global engine
# ---------------------------------------------------------------------------


def abridged_gs(
    inst: MatchingInstance, rounds: int
) -> tuple[dict[int, ManStatus], list[RoundStats]]:
    """Stop after `rounds` proposal rounds; men rejected in the final round
    with names left are disqualified.  Each proposer in turn meets his
    woman's holder and the loser moves one place down his list, which is
    the simultaneous round (module note)."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    prefs = inst.men_prefs
    pos = [0] * inst.n
    holder: dict[int, tuple[int, int]] = {}  # woman -> (key, -man); never freed
    proposers = [man for man in range(inst.n) if prefs[man]]
    exhausted_total = inst.n - len(proposers)
    stats: list[RoundStats] = []
    while proposers and len(stats) < rounds:
        women = [prefs[man][pos[man]] for man in proposers]
        rejected: list[int] = []
        for man, w, key in zip(proposers, women, inst.proposal_keys(women, proposers)):
            mine = (key, -man)
            cur = holder.setdefault(w, mine)
            if cur is mine:
                continue
            if mine > cur:
                holder[w], man = mine, -cur[1]
            pos[man] += 1  # the loser moves one place down his list
            rejected.append(man)
        proposers = [man for man in rejected if pos[man] < len(prefs[man])]
        exhausted_total += len(rejected) - len(proposers)
        stats.append(
            RoundStats(len(stats) + 1, len(rejected), len(proposers), exhausted_total, len(holder))
        )
    partner = {-cur[1]: w for w, cur in holder.items()}
    disqualified = set(proposers)  # non-empty iff the round cap truncated the run
    return {
        man: ManStatus(MATCHED, partner[man]) if man in partner
        else DISQUALIFIED_STATUS if man in disqualified else UNMATCHED_STATUS
        for man in range(inst.n)
    }, stats


def global_gs(inst: MatchingInstance) -> dict[int, ManStatus]:
    """Run to quiescence; statuses are matched/unmatched only.  Each round
    with proposers makes a proposal and a run makes at most n·k, so n·k
    rounds always reach quiescence."""
    return abridged_gs(inst, max(1, inst.n * inst.k))[0]


def matched_count(statuses: Mapping[int, ManStatus]) -> int:
    return sum(1 for st in statuses.values() if st.state == MATCHED)


# ---------------------------------------------------------------------------
# local query
# ---------------------------------------------------------------------------


NEVER = math.inf


class _RejectionRounds:
    """Per-query memo of rejection rounds, settled on demand.

    A man reaches the woman at position i of his list in round 1 if i = 0,
    and one round after his rejection at position i-1 otherwise.  She rejects
    him in round max(his arrival, the earliest arrival of any suitor she ranks
    above him), so his rejection round depends only on those suitors' arrival
    chains, each of which ends strictly earlier.

    `rejected(man, i, T)` answers with a round r: if r <= T it is the round
    in which `man` is rejected at position i; if r > T he is not rejected
    there by round T, and r is a lower bound (NEVER if he never is).  A
    question (man, i, T) asks about the arrivals of higher-ranked rivals with
    budget T-1 or less, so T falls at every level and the evaluation ends.
    Each attempt runs `_frame` on `probes.resolve`, whose explicit stack of
    generator frames makes long chains cost heap, not interpreter stack.

    A question whose (man, i) is already open further down the stack closes
    a cycle of "he stays until she is taken" dependencies.  Rather than
    unwinding the cycle once per spare round of budget, the inner question is
    assumed to answer "not by T".  Every round is at least one more than any
    round that decides it, so a false assumption about a node can only push
    rounds later than that node's true round upwards; the contradicted node
    with the earliest true round therefore comes out exact.  An attempt
    whose assumed nodes all finish later than assumed is exact and is kept.
    Otherwise every round up to the earliest contradicted one is exact, the
    later ones are kept as lower bounds, and the attempt is rerun; each rerun
    settles at least one more node exactly.
    """

    __slots__ = ("_view", "_keys", "_suitors", "_exact", "_at_least")

    def __init__(self, inst: MatchingInstance, view: MemoView) -> None:
        self._view = view
        self._keys = inst.suitor_keys
        # woman -> ([(position of her in his list, man, her key for him)]
        # sorted: first choices first, then by position, then by man;
        # {man: her key for him})
        self._suitors: dict[int, tuple[list, dict[int, tuple[int, int]]]] = {}
        self._exact: dict[tuple[int, int], int] = {}
        self._at_least: dict[tuple[int, int], float] = {}

    def _settle(self, woman: int) -> tuple[list, dict[int, tuple[int, int]]]:
        """Read her suitor record and every suitor's list."""
        got = self._suitors.get(woman)
        if got is None:
            view = self._view
            men = view.rev(woman)
            order, keys = [], {}
            for mm, key in zip(men, self._keys(woman, men)):
                key = keys[mm] = (key, -mm)
                order.append((view.fwd(mm).index(woman), mm, key))
            order.sort()
            got = self._suitors[woman] = (order, keys)
        return got

    def _frame(self, question: tuple[int, int, int]):
        """Evaluate one question (man, pos, budget); yields sub-questions
        and is sent their answers."""
        man, pos, budget = question
        if pos == 0:
            arrival = 1
        else:
            arrival = (yield (man, pos - 1, budget - 1)) + 1
            if arrival > budget:
                return arrival
        suitors, keys = self._settle(self._view.fwd(man)[pos])
        mine = keys[man]
        # `first`: earliest arrival of a higher-ranked rival, once one is
        # known; only a rival arriving by `limit` can still move it.
        # `floor`: lower bound on the arrivals ruled out so far.
        first = None
        floor = NEVER
        limit = budget
        for p, rival, key in suitors:
            if key <= mine:
                continue
            if p >= limit:
                floor = min(floor, p + 1)
                break
            got = 1 if p == 0 else (yield (rival, p - 1, limit - 1)) + 1
            if got > limit:
                floor = min(floor, got)
                continue
            if got <= arrival:
                return arrival
            first, limit = got, got - 1
        return first if first is not None else max(arrival, floor)

    def rejected(self, man: int, pos: int, budget: int) -> float:
        """The round `man` is rejected at `pos` if at most `budget`, else a
        lower bound on it above `budget`."""
        while True:
            exact, at_least = dict(self._exact), dict(self._at_least)
            assumed: dict[tuple[int, int], int] = {}
            answer = self._attempt((man, pos, budget), exact, at_least, assumed)
            wrong = [
                (exact[node], node)
                for node, t in assumed.items()
                if exact.get(node, NEVER) <= t
            ]
            if not wrong:
                self._exact, self._at_least = exact, at_least
                return answer
            # Only rounds after the earliest contradicted one can be off, and
            # only upwards: keep everything up to it, and lower bounds past it.
            earliest = min(wrong)[0]
            for node, r in exact.items():
                if node not in self._exact:
                    if r <= earliest:
                        self._exact[node] = r
                    else:
                        at_least[node] = r
            for node, r in at_least.items():
                r = min(r, earliest + 1)
                if r > self._at_least.get(node, 0):
                    self._at_least[node] = r

    def _attempt(self, question, exact, at_least, assumed) -> float:
        """Answer `question`, filling `exact` and `at_least` and recording in
        `assumed` each node assumed "not by T" on closing a cycle (largest
        T per node)."""
        open_nodes: set[tuple[int, int]] = set()

        def lookup(q) -> float | None:
            man, pos, budget = q
            node = (man, pos)
            r = exact.get(node)
            if r is not None:
                return r
            # arrival at position pos is no earlier than round pos + 1
            lower = at_least.get(node, pos + 1)
            if lower > budget:
                return lower
            if node in open_nodes:
                assumed[node] = max(assumed.get(node, 0), budget)
                return budget + 1
            open_nodes.add(node)
            return None

        def store(q, answer: float) -> None:
            node = q[:2]
            open_nodes.discard(node)
            if answer <= q[2]:
                exact[node] = answer
            elif answer > at_least.get(node, 0):
                at_least[node] = answer

        return resolve(question, self._frame, lookup, store)


def local_ags(
    inst: MatchingInstance,
    rounds: int,
    man: int,
    counter: ProbeCounter | None = None,
) -> ManStatus:
    """Status of `man` after `rounds` truncated rounds, resolved from the
    records his rejection rounds depend on.  Equals abridged_gs(inst,
    rounds)[man].

    Each woman the recursion settles costs her suitor record plus every
    suitor's list, and it settles only women a man could reach within the
    remaining budget, so every record read lies inside the radius-2·rounds
    neighborhood: the women within distance 2·rounds-1 and their suitors.
    """
    view = query_view(inst.oracle, (LEFT, man), counter, "man")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rej = _RejectionRounds(inst, view)
    lst = view.fwd(man)
    for pos, woman in enumerate(lst):
        r = rej.rejected(man, pos, rounds)
        if r > rounds:
            return ManStatus.matched(woman)
        if r == rounds:
            return DISQUALIFIED_STATUS if pos + 1 < len(lst) else UNMATCHED_STATUS
    return UNMATCHED_STATUS


def local_ags_woman(
    inst: MatchingInstance,
    rounds: int,
    woman: int,
    counter: ProbeCounter | None = None,
) -> ManStatus:
    """The woman's partner after `rounds` truncated rounds: the best of her
    suitors to reach her by then, since she keeps the best proposal so far.
    Equals her holder in abridged_gs(inst, rounds).  Her suitor record is
    free, each suitor's list costs a probe, and the suitors she asks, best
    first, share one memo of rejection rounds."""
    view = query_view(inst.oracle, (RIGHT, woman), counter, "woman")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rej = _RejectionRounds(inst, view)
    suitors, _ = rej._settle(woman)
    for pos, mm, _ in sorted(suitors, key=lambda s: s[2], reverse=True):
        if pos == 0 or rej.rejected(mm, pos - 1, rounds - 1) < rounds:
            return ManStatus.matched(mm)
    return UNMATCHED_STATUS


def default_rounds(k: int) -> int:
    """The round budget used when none is given: 2·k²."""
    return 2 * k * k


def rounds_for_epsilon(k: int, eps: float) -> int:
    """Round budget sufficient for the final-round spillover to be at most
    an eps fraction of the full-run matching size."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return k + 1 + math.ceil(k * (1 + 1 / eps) * math.log(2 * k * k / eps))


def blocking_pairs(
    inst: MatchingInstance, statuses: Mapping[int, ManStatus]
) -> list[tuple[int, int]]:
    """All pairs (man, woman) who strictly prefer each other to their current
    assignments.  Disqualified men are excluded as potential blockers; the
    map must assign each woman at most once."""
    man_of: dict[int, int] = {}
    for mm, st in statuses.items():
        if st.state == MATCHED:
            if st.partner in man_of:
                raise ValueError(
                    f"woman {st.partner} assigned to both {man_of[st.partner]} and {mm}"
                )
            man_of[st.partner] = mm
    # the pairs (man, woman he lists above his partner), then (holder, woman)
    men: list[int] = []
    women: list[int] = []
    for mm in range(inst.n):
        st = statuses.get(mm, UNMATCHED_STATUS)
        if st.state != DISQUALIFIED:
            lst = inst.men_prefs[mm]
            better = lst.index(st.partner) if st.state == MATCHED else len(lst)
            men += [mm] * better
            women += lst[:better]
    held = [w for w in women if w in man_of]
    keys = inst.proposal_keys(women + held, men + [man_of[w] for w in held])
    rivals = iter(keys[len(men) :])
    return sorted(
        (mm, w) for mm, w, key in zip(men, women, keys)
        if w not in man_of or (key, -mm) > (next(rivals), -man_of[w])
    )
