"""Serial dictatorship: global allocation, local queries, lottery plumbing."""

from __future__ import annotations

import pytest

from localmech.instances import InstanceSpec, build_instance
from localmech.probes import ProbeCounter
from localmech.randomness import uniform_table
from localmech.rsd import HousingInstance, rsd_global, rsd_local


def _lottery(inst: HousingInstance) -> list[int]:
    """Each agent's lottery number, redrawn from the tape: the instance keeps
    only the order they give."""
    return [1 + v for v in uniform_table(inst.tape, "lottery", inst.n, inst.n**4)]


def test_single_agent_takes_her_house():
    inst = HousingInstance([(0,)], m=1)
    assert rsd_global(inst) == {0: 0}
    assert rsd_local(inst, 0) == 0


def test_explicit_ranks_control_the_order():
    # agent 1 arrives first and takes the contested house
    inst = HousingInstance([(0,), (0, 1)], m=2, ranks=[5, 2])
    assert rsd_global(inst) == {0: None, 1: 0}


def test_fractional_lottery_numbers_are_refused():
    # truncating them would hand agent 0 the house although 1.2 < 1.9
    for ranks in ([1.9, 1.2], [1, "2"]):
        with pytest.raises(ValueError, match="lottery numbers must be integers"):
            HousingInstance([(0,), (0,)], m=1, ranks=ranks)


def test_first_arrival_gets_top_choice_and_houses_stay_unique():
    inst = HousingInstance.seeded(n=500, d=3, seed=9)
    alloc = rsd_global(inst)
    assert set(alloc) == set(range(inst.n))
    assigned = [h for h in alloc.values() if h is not None]
    assert len(assigned) == len(set(assigned))
    for a, h in alloc.items():
        if h is not None:
            assert h in inst.oracle.rows[a]
    first = inst.order[0]
    assert alloc[first] == inst.oracle.rows[first][0]


def test_local_matches_global_everywhere():
    inst = HousingInstance.seeded(n=500, d=3, seed=2)
    alloc = rsd_global(inst)
    for a in range(inst.n):
        assert rsd_local(inst, a) == alloc[a], a


def test_earliest_agent_resolves_in_at_most_d_probes():
    inst = HousingInstance.seeded(n=2000, d=3, seed=5)
    first = inst.order[0]
    counter = ProbeCounter()
    assert rsd_local(inst, first, counter) == inst.oracle.rows[first][0]
    assert counter.count <= inst.d


def test_lottery_is_seeded_and_in_range():
    a = HousingInstance.seeded(n=64, d=2, seed=7)
    b = HousingInstance.seeded(n=64, d=2, seed=7)
    c = HousingInstance.seeded(n=64, d=2, seed=8)
    assert list(a.order) == list(b.order)
    assert list(a.order) != list(c.order)
    lottery = _lottery(a)
    assert all(1 <= r <= 64**4 for r in lottery)
    assert list(a.order) == sorted(range(a.n), key=lambda x: (lottery[x], x))
    assert not hasattr(a, "ranks")


def test_validation_errors():
    with pytest.raises(ValueError):
        HousingInstance([(0, 0)], m=1)
    with pytest.raises(ValueError):
        HousingInstance([(0,)], m=1, ranks=[1, 2])
    inst = HousingInstance([(0,)], m=1)
    with pytest.raises(ValueError):
        rsd_local(inst, 3)
    with pytest.raises(ValueError):
        HousingInstance.from_spec(InstanceSpec(seed=0, family="uduv", n=2, m=2, k=1))
    # a spec's lists hold at most d houses, as matching and auction rows
    # hold at most k; the direct constructor reads d off the lists
    rows = ((0, 1, 2), (1,))
    with pytest.raises(ValueError, match="agent 0 lists more than d=1 entries"):
        HousingInstance.from_spec(
            InstanceSpec(seed=0, family="housing", n=2, m=3, k=1, explicit_edges=rows)
        )
    assert HousingInstance(rows, m=3).d == 3


def test_housing_builds_past_65536_agents():
    # lottery numbers come from n^4 values, past 2^64 once n > 65536
    n = 65537
    inst = build_instance(InstanceSpec(seed=0, family="housing", n=n, m=n, k=1))
    lottery = _lottery(inst)
    assert all(1 <= r <= n**4 for r in lottery)
    assert max(lottery) > 2**64
    assert list(inst.order) == sorted(range(n), key=lambda x: (lottery[x], x))
    assert rsd_local(inst, 0) == rsd_global(inst)[0]
