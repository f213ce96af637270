"""Range and limit refusals, each asked exactly at its boundary and one step
on each side: the accepted values must pass and the refused ones must raise
`ValueError` with exactly the message given.  A refusal with no boundary is
asked once, with its message."""

from __future__ import annotations

import pytest

from localmech import cli
from localmech.auctions import (
    AuctionInstance, ksmb_local, truthfulness_audit, udubv_local, uduv_local,
)
from localmech.harness import bench_points, verify_family
from localmech.instances import FAMILIES, InstanceSpec, build_instance, spec_from_json
from localmech.matching import MatchingInstance, abridged_gs, local_ags, local_ags_woman
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, neighborhood
from localmech.randomness import RandomTape
from localmech.rsd import HousingInstance, rsd_local
from localmech.scheduling import (
    RESTRICTED,
    SchedulingInstance,
    expected_height,
    monotonicity_trace,
    payment_rlms,
    rlms_local,
    rlms_online,
    slms_expected_utility,
    slms_local,
    slms_online,
)

ORACLE = AdjacencyOracle([(0, 1), (1,), (3,)], 4, range(3))  # n = 3 left, m = 4 right
POOL = 1 << 20  # the most right records a spec allows (a standard-mode slot pool)
WOMEN = MatchingInstance([[0, 1], [1, 2], [2, 0]], m=3, seed=1)
MACHINES = SchedulingInstance((2, 1, 1), m=4, d=2, mode=RESTRICTED, seed=2)
BUYERS = AuctionInstance([(0,), (1, 2)], 4, "uduv")  # m = 4 items
BIDDERS = AuctionInstance([(0,), (0, 1)], 2, "udubv", values=(3, 5))
SETS = AuctionInstance([(0,), (0, 1)], 2, "ksmb", values=(3, 5))
SLOTS = SchedulingInstance((2, 1), m=3, d=2, mode="standard", seed=1)  # 3 jobs
AGENTS = HousingInstance([[0], [0, 1]], 2)


def _report_item(j):
    # buyer 0 reports item j beside item 1
    return uduv_local(BUYERS, ("buyer", 0), None, {0: (1, j)})


def _audit_uduv(m: int):
    # one buyer wanting one item, so k = 1 and every m up to the cap is quick
    return truthfulness_audit(AuctionInstance([(0,)], m, "uduv"))


# an item id is an int: none of these may pass as one, nor the bools as items 1 and 0
NOT_INTS = (True, False, 1.0, 0.5, "1", None)


def _wide_row(family: str, length: int):
    # row 0 of `length` ids beside rows of one id, at k = 2: the spec alone
    # checks a row's width, with one message for every family
    rows = (tuple(range(length)),) + ((0,),) * 3
    return build_instance(InstanceSpec(seed=0, family=family, n=4, m=4, k=2, explicit_edges=rows))


# family → its refusal of row 0 past k = 2, named by the entity its rows list
WIDE_ROW = {
    "housing": "agent 0 lists more than d=2 entries",
    "scheduling-res": "job 0 lists more than d=2 entries",
    "uduv": "buyer 0 lists more than k=2 entries",
    "udubv": "buyer 0 lists more than k=2 entries",
    "ksmb": "buyer 0 lists more than k=2 entries",
}

# name → (call of one int, accepted values, refused values, message of a refused value)
REFUSALS = {
    "neighborhood radius": (
        lambda r: neighborhood(ORACLE, (LEFT, 0), r),
        (0, 1), (-1,), lambda r: "radius must be >= 0",
    ),
    "neighborhood left id": (
        lambda i: neighborhood(ORACLE, (LEFT, i), 1),
        (0, 1, 2), (-1, 3, 4), lambda i: f"entity id {i} out of range",
    ),
    "neighborhood right id": (
        lambda i: neighborhood(ORACLE, (RIGHT, i), 1),
        (0, 1, 3), (-1, 4, 5), lambda i: f"entity id {i} out of range",
    ),
    "neighborhood left id type": (
        lambda i: neighborhood(ORACLE, (LEFT, i), 1),
        (0, 2), NOT_INTS, lambda i: f"entity id {i} out of range",
    ),
    "neighborhood right id type": (
        lambda i: neighborhood(ORACLE, (RIGHT, i), 1),
        (0, 3), NOT_INTS, lambda i: f"entity id {i} out of range",
    ),
    # every local query opens with the same id check: the last id passes,
    # -1 and the id count are refused
    "rsd_local agent": (
        lambda a: rsd_local(AGENTS, a),
        (0, 1), (-1, 2, 3), lambda a: f"unknown agent {a}",
    ),
    "uduv_local buyer": (
        lambda b: uduv_local(BUYERS, ("buyer", b)),
        (0, 1), (-1, 2, 3), lambda b: f"unknown buyer {b}",
    ),
    "uduv_local item": (
        lambda j: uduv_local(BUYERS, ("item", j)),
        (0, 3), (-1, 4, 5), lambda j: f"unknown item {j}",
    ),
    "udubv_local buyer": (
        lambda b: udubv_local(BIDDERS, b),
        (0, 1), (-1, 2, 3), lambda b: f"unknown buyer {b}",
    ),
    "ksmb_local buyer": (
        lambda b: ksmb_local(SETS, b),
        (0, 1), (-1, 2, 3), lambda b: f"unknown buyer {b}",
    ),
    "slms_local job": (
        lambda j: slms_local(SLOTS, j),
        (0, 2), (-1, 3, 4), lambda j: f"unknown job {j}",
    ),
    "rlms_local job": (
        lambda j: rlms_local(MACHINES, j),
        (0, 3), (-1, 4, 5), lambda j: f"unknown job {j}",
    ),
    "local_ags man": (
        lambda man: local_ags(WOMEN, 2, man),
        (0, 2), (-1, 3, 4), lambda man: f"unknown man {man}",
    ),
    "local_ags_woman woman": (
        lambda w: local_ags_woman(WOMEN, 2, w),
        (0, 1, 2), (-1, 3, 4), lambda w: f"unknown woman {w}",
    ),
    "women_prefs man id": (
        lambda man: MatchingInstance([[0], [0], [0]], m=1, women_prefs=[[man]]),
        (0, 1, 2), (-1, 3, 4), lambda man: "woman 0 ranks a man outside 0..2",
    ),
    "women_prefs man id type": (
        lambda man: MatchingInstance([[0], [0], [0]], m=1, women_prefs=[[man]]),
        (0, 2), NOT_INTS, lambda man: "woman 0 ranks a man outside 0..2",
    ),
    "restricted menu machine": (
        lambda i: SchedulingInstance((1, 1, 1), m=1, d=1, menus=[(0, i)]),
        (0, 1, 2), (-1, 3, 4), lambda i: "menu of job 0 names an unknown machine",
    ),
    "uduv audit item cap": (
        _audit_uduv,
        (11, 12), (13, 14), lambda m: "full subset enumeration capped at m <= 12",
    ),
    "reported item": (
        _report_item,
        (0, 3), (-1, 4, 5), lambda j: f"buyer 0 reports item {j!r}, not an int in 0..3",
    ),
    # an item is an int: none of these may pass as a nearby item id
    "reported item type": (
        _report_item,
        (0, 2), (1.7, 2.2, 2.0, "2", True, False, None),
        lambda j: f"buyer 0 reports item {j!r}, not an int in 0..3",
    ),
    "reporting buyer": (
        lambda b: uduv_local(BUYERS, ("buyer", 0), None, {b: (3,)}),
        (0, 1), (-1, 2, 1.0, True, "1"), lambda b: f"report overlay names unknown buyer {b!r}",
    ),
    "monotonicity_trace bid order": (
        lambda d: monotonicity_trace(MACHINES, 0, 2, 2 + d),
        (0, 1), (-1, -2), lambda d: "bid_high must be >= bid_low",
    ),
    "slms_expected_utility machine": (
        lambda i: slms_expected_utility((2, 1, 1), 4, i, 1, 1),
        (0, 1, 2), (-1, 3, 4), lambda i: f"unknown machine {i}; machines are 0..2",
    ),
    "buyer value count": (
        lambda c: AuctionInstance([(0,), (1,)], 2, "udubv", values=(5,) * c),
        (2,), (0, 1, 3, 4), lambda c: "need one value per buyer",
    ),
    "man list length": (
        lambda length: _wide_row("matching", length),
        (1, 2), (3, 4), lambda length: "man 0 lists more than k=2 entries",
    ),
    **{
        f"{family} row length": (
            lambda length, family=family: _wide_row(family, length),
            (1, 2), (3, 4), lambda length, message=message: message,
        )
        for family, message in WIDE_ROW.items()
    },
    # a directly built auction keeps its k-minded cap, with the spec's message
    "auction set length, direct": (
        lambda length: AuctionInstance([tuple(range(length))], 3, "uduv", k=1),
        (0, 1), (2, 3), lambda length: "buyer 0 lists more than k=1 entries",
    ),
    "woman ranking count": (
        lambda c: MatchingInstance([[0]], m=2, women_prefs=[[0]] * c),
        (2,), (0, 1, 3, 4), lambda c: "need one ranking per woman",
    ),
    "abridged_gs rounds": (
        lambda r: abridged_gs(WOMEN, r),
        (1, 2), (0, -1), lambda r: "rounds must be >= 1",
    ),
    "local_ags_woman rounds": (
        lambda r: local_ags_woman(WOMEN, r, 0),
        (1, 2), (0, -1), lambda r: "rounds must be >= 1",
    ),
    # bench and verify refuse a round budget below 1 for every family
    "bench rounds": (
        lambda r: [bench_points(f, [(8, 1, 1)], 2, r) for f in FAMILIES],
        (1, 2), (0, -1), lambda r: "rounds must be >= 1",
    ),
    "verify rounds": (
        lambda r: [verify_family(f, [8], 1, 2, r) for f in FAMILIES],
        (1, 2), (0, -1), lambda r: "rounds must be >= 1",
    ),
    "restricted menu count": (
        lambda c: SchedulingInstance((1, 1), m=2, d=1, menus=[(0,)] * c),
        (2,), (0, 1, 3, 4), lambda c: "need one menu per job",
    ),
    "expected_height capacity": (
        lambda b: expected_height(b, 1, 4),
        (0, 1), (-1, -2), lambda b: "capacity must be non-negative",
    ),
    "expected_height slot pool": (
        lambda pool: expected_height(0, pool, 4),
        (1, 2), (0, -1), lambda pool: "slot pool must be non-empty",
    ),
    # every family's rows pass through the oracle, which refuses a non-int id
    "oracle right id type": (
        lambda j: AdjacencyOracle([(j,)], 2, range(1)),
        (0, 1), NOT_INTS, lambda j: f"right id {j!r} is not an int",
    ),
    # a pool of 2^20 records, built in the order (2, 1, 0): row 1 is checked first
    "oracle right id range, 2^20 records": (
        lambda j: AdjacencyOracle([(0, 7), (j,), (POOL - 1,)], POOL, (2, 1, 0)),
        (0, POOL - 1), (-1, POOL, POOL + 1), lambda j: f"right id {j} out of range [0, {POOL})",
    ),
    # the oracle's order holds the n left ids as ints: a bool or 1.0 that
    # sorts as an id is refused with the rest
    "oracle order entry type": (
        lambda x: AdjacencyOracle([(0,), (0, 1)], 2, (x, 0)),
        (1,), NOT_INTS, lambda x: "order must be a permutation of the 2 left ids",
    ),
    "auction item type": (
        lambda j: AuctionInstance([(j,)], 2, "uduv"),
        (0, 1), NOT_INTS, lambda j: f"right id {j!r} is not an int",
    ),
    "matching woman type": (
        lambda w: MatchingInstance([[w]], 2),
        (0, 1), NOT_INTS, lambda w: f"right id {w!r} is not an int",
    ),
    "housing house type": (
        lambda h: HousingInstance([[h]], 2),
        (0, 1), NOT_INTS, lambda h: f"right id {h!r} is not an int",
    ),
    # checked before the sort, which would raise TypeError on a str or None;
    # the fixed item is 2, so neither accepted id repeats it
    "auction set item type": (
        lambda j: AuctionInstance([(2, j)], 3, "uduv"),
        (0, 1), NOT_INTS, lambda j: f"right id {j!r} is not an int",
    ),
    "restricted menu machine type": (
        lambda i: SchedulingInstance((1, 1, 1), m=1, d=1, menus=[(0, i)]),
        (0, 2), NOT_INTS, lambda i: "menu of job 0 names an unknown machine",
    ),
    # every local query and machine payment refuses an entity id that is not an int
    "rsd_local agent type": (
        lambda a: rsd_local(AGENTS, a),
        (0, 1), NOT_INTS, lambda a: f"unknown agent {a}",
    ),
    "uduv_local buyer type": (
        lambda b: uduv_local(BUYERS, ("buyer", b)),
        (0, 1), NOT_INTS, lambda b: f"unknown buyer {b}",
    ),
    "uduv_local item type": (
        lambda j: uduv_local(BUYERS, ("item", j)),
        (0, 3), NOT_INTS, lambda j: f"unknown item {j}",
    ),
    "udubv_local buyer type": (
        lambda b: udubv_local(BIDDERS, b),
        (0, 1), NOT_INTS, lambda b: f"unknown buyer {b}",
    ),
    "ksmb_local buyer type": (
        lambda b: ksmb_local(SETS, b),
        (0, 1), NOT_INTS, lambda b: f"unknown buyer {b}",
    ),
    "slms_local job type": (
        lambda j: slms_local(SLOTS, j),
        (0, 2), NOT_INTS, lambda j: f"unknown job {j}",
    ),
    "rlms_local job type": (
        lambda j: rlms_local(MACHINES, j),
        (0, 3), NOT_INTS, lambda j: f"unknown job {j}",
    ),
    "local_ags man type": (
        lambda man: local_ags(WOMEN, 2, man),
        (0, 2), NOT_INTS, lambda man: f"unknown man {man}",
    ),
    "local_ags_woman woman type": (
        lambda w: local_ags_woman(WOMEN, 2, w),
        (0, 2), NOT_INTS, lambda w: f"unknown woman {w}",
    ),
    "payment_rlms machine type": (
        lambda i: payment_rlms(MACHINES, i),
        (0, 2), NOT_INTS, lambda i: f"unknown machine {i}; machines are 0..2",
    ),
    "slms_expected_utility machine type": (
        lambda i: slms_expected_utility((2, 1, 1), 4, i, 1, 1),
        (0, 2), NOT_INTS, lambda i: f"unknown machine {i}; machines are 0..2",
    ),
    # every instance and spec draw builds its tape from the seed, which is
    # taken as it is: not truncated, parsed or read as 0 or 1
    "tape seed": (
        RandomTape,
        (0, -1, 2**64 + 5), (2.9, "7", True), lambda s: f"seed must be an int, got {s!r}",
    ),
    "housing seed": (
        lambda s: HousingInstance([[0], [0, 1]], 2, seed=s),
        (2, 3), (2.9, "7", True), lambda s: f"seed must be an int, got {s!r}",
    ),
}

HOUSING = InstanceSpec(seed=0, family="housing", n=1, m=1, k=1)
RESTRICTED_TWIN = SchedulingInstance((2, 1), m=3, d=2, mode=RESTRICTED, seed=1)

# name → (call, its whole message)
ONCE = {
    "auction mode": (lambda: AuctionInstance([(0,)], 2, "vcg"), "unknown auction mode 'vcg'"),
    "auction values": (lambda: AuctionInstance([(0,)], 2, "ksmb"), "ksmb needs buyer values"),
    "auction spec": (lambda: AuctionInstance.from_spec(HOUSING), "not an auction spec: 'housing'"),
    "matching spec": (
        lambda: MatchingInstance.from_spec(HOUSING), "not a matching spec: 'housing'"
    ),
    "scheduling mode": (
        lambda: SchedulingInstance((1,), m=1, d=1, mode="std"),
        "mode must be 'standard' or 'restricted'",
    ),
    "scheduling spec": (
        lambda: SchedulingInstance.from_spec(HOUSING), "not a scheduling spec: 'housing'"
    ),
    "instance JSON": (lambda: spec_from_json("[]"), "instance JSON must be an object"),
    # an online run's order is a permutation of the m jobs: not a repeat,
    # a shorter list or an id past the jobs
    "slms_online repeated job": (
        lambda: slms_online(SLOTS, order=[0, 0]), "order must be a permutation of the 3 jobs"
    ),
    "rlms_online repeated job": (
        lambda: rlms_online(RESTRICTED_TWIN, order=[1, 1, 1]),
        "order must be a permutation of the 3 jobs",
    ),
    "slms_online job past the jobs": (
        lambda: slms_online(SLOTS, order=[7]), "order must be a permutation of the 3 jobs"
    ),
    # a row names each right id once: the oracle refuses a repeat for every
    # family and names the row and the id
    "oracle repeated right id": (
        lambda: AdjacencyOracle([(0, 1, 0)], 2, range(1)), "left id 0 names right id 0 twice"
    ),
    "housing repeated house": (
        lambda: HousingInstance([[0, 0]], 1), "left id 0 names right id 0 twice"
    ),
    "matching repeated woman": (
        lambda: MatchingInstance([[1, 1]], 2), "left id 0 names right id 1 twice"
    ),
    "auction repeated item": (
        lambda: AuctionInstance([(1,), (0, 2, 0)], 3, "uduv"), "left id 1 names right id 0 twice"
    ),
    # row 0's id is out of range, but `order` checks row 1 first, whose
    # float id is out of range too and is named for its type
    "oracle first offender in order, 2^20 records": (
        lambda: AdjacencyOracle([(POOL,), (1, float(POOL))], POOL, (1, 0)),
        "right id 1048576.0 is not an int",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusals_hold_exactly_at_their_boundaries(name):
    call, accepted, refused, message = REFUSALS[name]
    for x in accepted:
        call(x)
    for x in refused:
        with pytest.raises(ValueError) as err:
            call(x)
        assert str(err.value) == message(x), x


@pytest.mark.parametrize("name", list(ONCE))
def test_refusals_without_a_boundary_name_their_fault(name):
    call, message = ONCE[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_rows_naming_each_id_once_build():
    # the rows refused above for a repeated id, with each id listed once
    assert AdjacencyOracle([(0, 1)], 2, range(1)).rev(1) == (0,)
    assert HousingInstance([[0]], 1).oracle.fwd(0) == (0,)
    assert MatchingInstance([[1]], 2).oracle.fwd(0) == (1,)
    assert AuctionInstance([(1,), (2, 0)], 3, "uduv").oracle.fwd(1) == (0, 2)
    # ids repeated across rows are fine: each record lists both rows
    assert AdjacencyOracle([(0, 1), (1, 0)], 2, (1, 0)).rev(0) == (1, 0)


def test_a_bid_list_that_is_not_ints_is_a_usage_error(capsys):
    # argparse turns the list parser's refusal into exit 2
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "scheduling", "--mode", "res", "--n", "2", "--bids", "1,x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("argument --bids: expected a comma-separated int list, got '1,x'\n")


# `run` and `query` answer one request; each of these asks two, or a
# --scheme with no payment to price or of the other mode's payments, and is
# refused before any build
REFUSED_REQUESTS = {
    "woman and man": ["query", "matching", "--n", "8", "--query-woman", "0", "--query-man", "1"],
    "payment and job": [
        "query", "scheduling", "--mode", "res", "--n", "4", "--m", "8",
        "--pay-machine", "0", "--query-job", "3",
    ],
    "audit and buyer": [
        "run", "auction", "--mode", "uduv", "--n", "6", "--m", "6", "--audit", "--query-buyer", "1",
    ],
    "scheme without payment": [
        "query", "scheduling", "--mode", "std", "--bids", "2,1,3", "--m", "8",
        "--scheme", "sampled", "--query-job", "0",
    ],
    "scheme of the other mode": [
        "query", "scheduling", "--mode", "res", "--n", "4", "--m", "8",
        "--pay-machine", "0", "--scheme", "sampled",
    ],
}


@pytest.mark.parametrize("name", list(REFUSED_REQUESTS))
def test_run_and_query_answer_one_request(name, capsys, monkeypatch):
    argv = REFUSED_REQUESTS[name]
    monkeypatch.setattr(cli, "build_instance", None)  # a build would raise TypeError
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    flags = [x for x in argv if x.startswith(("--query", "--pay", "--audit", "--scheme"))]
    assert all(flag in err for flag in flags), err


def test_json_output_refuses_a_value_it_cannot_write():
    # the CLI's JSON writer spells a Fraction as a string and refuses the rest
    with pytest.raises(TypeError) as err:
        cli._json_default(object())
    assert str(err.value) == "not JSON serializable: object"


def test_monotonicity_trace_with_equal_bids_moves_nothing():
    rows = monotonicity_trace(MACHINES, 1, 1, 1)
    assert rows == [(0,) * MACHINES.n] * (MACHINES.m + 1)
