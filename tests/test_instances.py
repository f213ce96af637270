"""Instance specs, the adjacency oracle, and probe accounting."""

from __future__ import annotations

import json
import math

import pytest

from localmech.instances import FAMILIES, InstanceSpec, build_instance, spec_from_json, spec_to_json
from localmech.matching import MatchingInstance
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, MemoView, ProbeCounter, neighborhood


def test_spec_json_round_trip():
    for family in FAMILIES:
        spec = InstanceSpec(seed=9, family=family, n=12, m=15, k=3)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec


def test_spec_json_round_trip_with_explicit_data():
    spec = InstanceSpec(
        seed=1,
        family="scheduling-res",
        n=3,
        m=5,
        k=2,
        bids=(4, 8, 36),
        explicit_edges=((0, 1), (1, 2), (0, 2), (0, 1), (2,)),
    )
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_size_key_spelling():
    # scheduling and housing specs spell the size parameter "d", others "k"
    assert '"d"' in spec_to_json(InstanceSpec(seed=0, family="housing", n=4, m=4, k=2))
    assert '"k"' in spec_to_json(InstanceSpec(seed=0, family="uduv", n=4, m=4, k=2))
    with pytest.raises(ValueError):
        spec_from_json(json.dumps({"family": "uduv", "seed": 0, "n": 4, "k": 1, "d": 2}))


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, family="nope", n=1, m=1)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, family="uduv", n=-1, m=1)


def test_build_instance_dispatch():
    for family in FAMILIES:
        inst = build_instance(InstanceSpec(seed=2, family=family, n=6, m=6, k=2))
        assert inst.n == 6


def test_oracle_transpose_consistency():
    # forward and reverse views describe the same edge set
    inst = MatchingInstance.seeded(100, 3, 11)
    oracle = inst.oracle
    for i in range(100):
        for j in oracle.fwd(i):
            assert i in oracle.rev(j)
    for j in range(inst.m):
        for i in oracle.rev(j):
            assert j in oracle.fwd(i)


def test_oracle_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        AdjacencyOracle([(0, 5)], 3)
    oracle = AdjacencyOracle([(0, 1)], 2)
    with pytest.raises(ValueError):
        oracle.fwd(1)
    with pytest.raises(ValueError):
        oracle.rev(2)


def test_probe_counting_memoizes_per_record():
    oracle = AdjacencyOracle([(0, 1), (1, 2)], 3)
    counter = ProbeCounter()
    view = MemoView(oracle, counter)
    view.fwd(0)
    view.fwd(0)
    assert counter.count == 1
    view.rev(1)
    view.rev(1)
    view.fwd(1)
    assert counter.count == 3


def test_probe_free_records_cost_nothing():
    oracle = AdjacencyOracle([(0, 1), (1, 2)], 3)
    counter = ProbeCounter()
    view = MemoView(oracle, counter, free=((LEFT, 0),))
    view.fwd(0)
    assert counter.count == 0
    view.fwd(1)
    assert counter.count == 1


def test_neighborhood_counts_every_record_including_root():
    #    0 - a - 1 - b - 2      (left 0,1,2 / right a=0, b=1)
    oracle = AdjacencyOracle([(0,), (0, 1), (1,)], 2)
    counter = ProbeCounter()
    ball = neighborhood(oracle, (LEFT, 0), 2, counter)
    assert ball == {(LEFT, 0), (RIGHT, 0), (LEFT, 1)}
    # reads: fwd(0), rev(0); left 1 is on the boundary and never expanded
    assert counter.count == 2
    counter = ProbeCounter()
    ball = neighborhood(oracle, (LEFT, 0), 4, counter)
    assert ball == {(LEFT, 0), (RIGHT, 0), (LEFT, 1), (RIGHT, 1), (LEFT, 2)}
    assert counter.count == 4


def test_neighborhood_validates_entity():
    oracle = AdjacencyOracle([(0,)], 1)
    with pytest.raises(ValueError):
        neighborhood(oracle, ("X", 0), 1)
    with pytest.raises(ValueError):
        neighborhood(oracle, (LEFT, 5), 1)


def test_neighborhood_scaling_on_sparse_lists():
    # radius-4 balls around sampled proposers stay tiny relative to n
    n = 10_000
    inst = MatchingInstance.seeded(n, 3, 4)
    sizes = []
    for v in range(0, n, n // 200):
        sizes.append(len(neighborhood(inst.oracle, (LEFT, v), 4)))
    sizes.sort()
    fitted_c = sizes[-1] / math.log(n)
    assert fitted_c < 60.0, (sizes[-1], fitted_c)
    assert sizes[len(sizes) // 2] <= 120


def test_restricted_menu_draw_frequency():
    # capacity-proportional draws: machine 2 should soak up 36/48 of them
    spec = InstanceSpec(seed=3, family="scheduling-res", n=3, m=100_000, k=2, bids=(4, 8, 36))
    inst = build_instance(spec)
    hits = 0
    total = 0
    for j in range(inst.m):
        menu = inst.menu(j)
        hits += sum(1 for i in menu if i == 2)
        total += len(menu)
    freq = hits / total
    assert abs(freq - 36 / 48) < 0.01, freq


@pytest.mark.parametrize(
    "patch",
    [
        {"seed": [1]},
        {"seed": 1.7},
        {"n": None},
        {"n": True},
        {"m": "3"},
        {"k": {"a": 1}},
        {"bids": 7},
        {"bids": [1, [2]]},
        {"explicit_edges": [1, 2, 0]},
        {"explicit_edges": [[0], [[1]]]},
        {"explicit_edges": "01"},
    ],
)
def test_spec_from_json_rejects_wrong_types(patch):
    doc = {"family": "scheduling-res", "seed": 0, "n": 2, "m": 3, "d": 1, **patch}
    with pytest.raises(ValueError):
        spec_from_json(json.dumps(doc))
