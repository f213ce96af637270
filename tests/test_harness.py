"""Orchestration layer: benchmarks, summaries, verify batteries, CLI verbs."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localmech import auctions, cli, harness, matching, rsd, scheduling
from localmech.harness import (
    BENCH_COLUMNS,
    BenchRecord,
    ExperimentConfig,
    bench_points,
    canonical_family,
    csv_body,
    fit_polylog,
    fit_power_exponent,
    render_csv,
    summarize_bench,
    verify_family,
)
from localmech.instances import FAMILIES, MAX_SIZE, build_instance, spec_from_json
from localmech.probes import ProbeCounter

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_family_aliases():
    assert canonical_family("rsd") == "housing"
    assert canonical_family("scheduling") == "scheduling-res"
    assert canonical_family("auction") == "uduv"
    assert canonical_family("matching") == "matching"
    with pytest.raises(ValueError):
        canonical_family("raffle")
    # every (lcmd family, --mode) pair names an instance family, and each
    # instance family is reached by exactly one pair
    reached = [fam for modes in harness.LCMD_FAMILIES.values() for fam in modes.values()]
    assert sorted(reached) == sorted(FAMILIES)
    assert harness.LCMD_FAMILIES["scheduling"] == {"std": "scheduling-std", "res": "scheduling-res"}
    assert harness.LCMD_FAMILIES["auction"] == {m: m for m in ("uduv", "udubv", "ksmb")}
    for name in FAMILIES:
        assert canonical_family(name) == name


def test_experiment_config_validation():
    cfg = ExperimentConfig(family="rsd", ns=(64,), seeds=2, size=2)
    assert cfg.family == "housing"
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(), seeds=1, size=3)
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(10,), seeds=0, size=3)
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(10,), seeds=1, size=3, queries=0)
    # a grid of two or more sizes gets a polylog fit, which takes ln ln n
    with pytest.raises(ValueError, match="ln ln n"):
        ExperimentConfig(family="rsd", ns=(1, 2), seeds=1, size=2)
    assert ExperimentConfig(family="rsd", ns=(1, 1), seeds=1, size=2).ns == (1, 1)


def test_render_csv_and_body():
    text = render_csv(("a", "b"), [(1, "x"), (2, "y")], comments=["made-up: now"])
    assert text == "# made-up: now\na,b\n1,x\n2,y\n"
    assert csv_body(text) == "a,b\n1,x\n2,y"


def test_fits_recover_planted_growth():
    ns = [2**8, 2**10, 2**12, 2**14]
    poly = [n**0.5 for n in ns]
    assert abs(fit_power_exponent(ns, poly) - 0.5) < 1e-6
    logs = [3.0 * math.log(n) ** 2 for n in ns]
    c, p = fit_polylog(ns, logs)
    assert abs(p - 2.0) < 1e-6 and abs(c - 3.0) < 1e-6
    # a squared-log curve reads as a small fractional power on this grid
    assert 0.1 < fit_power_exponent(ns, logs) < 0.4
    for ns, ys in (([10], [1.0]), ([64, 64], [3.0, 5.0]), ([], [])):
        for fit in (fit_power_exponent, fit_polylog):
            with pytest.raises(ValueError, match="two distinct"):
                fit(ns, ys)
    with pytest.raises(ValueError, match="ln ln n"):
        fit_polylog([1, 2, 4], [1.0, 2.0, 3.0])


def test_bench_grids_holding_n_below_2_exit_2_before_any_cell(capsys, monkeypatch):
    # the polylog fit would otherwise fail on ln ln 1 after every cell ran
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_bench_cell", refuse)
    for argv in (["scheduling", "--n", "1,2", "--d", "1"], ["udubv", "--n", "2,1", "--k", "1"]):
        assert cli.main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "ln ln n" in captured.err


def test_bench_and_audit_do_not_import_numpy():
    # no lcmd verb loads numpy or scipy, even where one is installed
    root = Path(__file__).resolve().parent.parent
    code = (
        "import contextlib, io, sys\n"
        "from localmech import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bench', 'rsd', '--n', '16,32,64', '--seeds', '2',"
        " '--queries', '5', '--d', '2']) == 0\n"
        "    assert cli.main(['run', 'auction', '--mode', 'udubv', '--seed', '0', '--n', '6',"
        " '--m', '6', '--k', '2', '--audit']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not loaded, loaded\n"
    )
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_summarize_bench_rows():
    records = [
        BenchRecord("housing", n, seed, q, probes=n.bit_length() + q, wall_time=0.0, digest="d")
        for n in (256, 1024)
        for seed in range(2)
        for q in range(3)
    ]
    rows = summarize_bench(records)
    stats = {(r[0], r[1], r[2]): r[3] for r in rows}
    assert stats[("housing", "256", "max")] == "11"
    assert stats[("housing", "1024", "max")] == "13"
    assert ("housing", "", "power_exponent") in stats
    assert ("housing", "", "polylog_exponent") in stats


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def test_bench_grid_shape_and_determinism():
    points = [(256, 20, 100), (1024, 20, 100), (4096, 20, 100)]
    records = bench_points("rsd", points, size=3)
    assert len(records) == 6000
    keys = [(r.family, r.n, r.seed, r.query) for r in records]
    assert keys == sorted(keys)
    assert all(r.family == "housing" and len(r.digest) == 16 for r in records)
    again = bench_points("rsd", [(256, 3, 10)], size=3)
    rerun = bench_points("rsd", [(256, 3, 10)], size=3)
    assert [(r.probes, r.digest) for r in again] == [
        (r.probes, r.digest) for r in rerun
    ]


@pytest.mark.parametrize("family", ["scheduling-std", "scheduling-res"])
def test_cells_come_with_their_oracle_built(family):
    # the first timed query of a cell must not pay for the oracle
    for n in (8, 64):
        for seed in range(3):
            _, inst, _ = harness._cell(family, n, seed, size=2, rounds=None)
            assert inst._oracle is not None, (n, seed)


def test_verify_batteries_come_back_clean():
    scheduling_rows = ["job_local_matches_global", "heights_match_assignments"]
    bid_rows = ["buyer_local_matches_global", "winner_pays_at_most_bid", "items_awarded_once"]
    # (family, size, the battery's rows in order)
    cases = [
        ("matching", 2, [
            "man_local_matches_global", "woman_local_matches_global", "round_rejections_bounded",
            "truncated_size_lower_bound", "no_blocking_pairs_full_run",
        ]),
        ("scheduling-std", 2, scheduling_rows),
        ("scheduling-res", 2, [*scheduling_rows, "assignment_within_menu"]),
        ("uduv", 2, [
            "buyer_local_matches_global", "item_local_matches_global", "items_awarded_once",
        ]),
        ("udubv", 2, bid_rows),
        ("ksmb", 2, bid_rows),
        ("rsd", 2, [
            "agent_local_matches_global", "houses_assigned_once", "house_within_list",
        ]),
    ]
    for family, size, names in cases:
        rows = verify_family(family, ns=[40], seeds=2, size=size)
        assert [name for name, _, _ in rows] == names, family
        for name, instances, violations in rows:
            assert instances > 0, (family, name)
            assert violations == 0, (family, name)
    with pytest.raises(ValueError):
        verify_family("matching", ns=[], seeds=1, size=3)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_gen_writes_loadable_spec(tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(["gen", "rsd", "--seed", "3", "--n", "12", "--d", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["family"] == "housing"
    assert data["n"] == 12


# (family, verb and mode, instance flags that `gen` and the verb share, query)
_CLI_CASES = [
    ("matching", ["matching"], ["--seed", "1", "--n", "30", "--k", "2"], ["--query-man", "3"]),
    ("scheduling-std", ["scheduling", "--mode", "std"],
     ["--seed", "2", "--m", "9", "--d", "2", "--bids", "1,2,3"], ["--query-job", "4"]),
    ("scheduling-res", ["scheduling", "--mode", "res"],
     ["--seed", "2", "--n", "5", "--m", "12", "--d", "2"], ["--query-job", "7"]),
    ("uduv", ["auction", "--mode", "uduv"],
     ["--seed", "3", "--n", "10", "--m", "8", "--k", "2"], ["--query-item", "1"]),
    ("udubv", ["auction", "--mode", "udubv"],
     ["--seed", "0", "--m", "3", "--k", "1", "--bids", "5,6,7"], ["--query-buyer", "2"]),
    ("ksmb", ["auction", "--mode", "ksmb"],
     ["--seed", "4", "--n", "3", "--m", "4", "--k", "2", "--bids", "9,4,6"], ["--query-buyer", "1"]),
    ("housing", ["rsd"], ["--seed", "3", "--n", "20", "--m", "25", "--d", "2"], ["--query-agent", "6"]),
]


def test_cli_query_roundtrip_through_config(tmp_path, capsys):
    # `gen` writes the spec that the same flags give the query directly,
    # explicit bids included.
    for family, verb, flags, query in _CLI_CASES:
        out = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *flags, "--out", str(out)]) == 0, family
        assert json.loads(out.read_text())["family"] == family
        assert cli.main(["query", *verb, *flags, *query]) == 0, family
        direct = capsys.readouterr().out
        assert cli.main(["query", *verb, "--config", str(out), *query]) == 0, family
        assert capsys.readouterr().out == direct, family
        assert json.loads(direct)["probes"] >= 0


# instance family -> run/query argv, instance flags without the size flag,
# and a request
_DEFAULT_SIZE_CASES = {
    "matching": (["matching"], ["--n", "8"], ["--query-man", "1"]),
    "scheduling-std": (["scheduling", "--mode", "std"], ["--n", "4", "--m", "9"], ["--query-job", "1"]),
    "scheduling-res": (["scheduling", "--mode", "res"], ["--n", "4", "--m", "9"], ["--query-job", "1"]),
    "uduv": (["auction", "--mode", "uduv"], ["--n", "6", "--m", "6"], ["--query-item", "1"]),
    "udubv": (["auction", "--mode", "udubv"], ["--n", "6", "--m", "6"], ["--query-buyer", "1"]),
    "ksmb": (["auction", "--mode", "ksmb"], ["--n", "6", "--m", "6"], ["--query-buyer", "1"]),
    "housing": (["rsd"], ["--n", "8"], ["--query-agent", "1"]),
}


def test_cli_gen_takes_the_size_default_of_run_and_query(tmp_path, capsys):
    # with no size flag, the spec `gen` writes is the instance the query
    # builds from the same flags, so the query through that file answers
    # the same with the same probes
    assert set(_DEFAULT_SIZE_CASES) == set(FAMILIES)
    for family, (verb, flags, request) in _DEFAULT_SIZE_CASES.items():
        path = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *flags, "--out", str(path)]) == 0, family
        assert cli.main(["query", *verb, *flags, *request]) == 0, family
        direct = capsys.readouterr().out
        assert cli.main(["query", *verb, "--config", str(path), *request]) == 0, family
        assert capsys.readouterr().out == direct, family


def _global_lines(family: str, inst) -> list[dict]:
    """What `lcmd run` prints for a whole instance, from the global runners."""
    if family == "matching":
        statuses, _ = matching.abridged_gs(inst, 2 * inst.k * inst.k)
        return [
            {"man": man, "status": st.state, **({} if st.partner is None else {"woman": st.partner})}
            for man, st in sorted(statuses.items())
        ]
    if family.startswith("scheduling"):
        runner = scheduling.slms_online if inst.mode == scheduling.STANDARD else scheduling.rlms_online
        alloc = runner(inst, order=inst.rank_order())
        return [{"job": j, "machine": mach} for j, mach in enumerate(alloc.assign)]
    if family == "housing":
        alloc = rsd.rsd_global(inst)
        return [{"agent": a, "house": alloc[a]} for a in range(inst.n)]
    out = getattr(auctions, f"{family}_run")(inst)
    return [
        {"buyer": b, "award": list(out.awards[b]), "payment": str(out.payments[b])}
        for b in range(inst.n)
    ]


def test_cli_run_all_matches_global_runner(tmp_path, capsys):
    # a bare `run` prints the global outcome of the instance that `gen`
    # writes for the same flags, one line per entity, and `--bids` reaches
    # that instance as machine capacities or buyer values.
    for family, verb, flags, _ in _CLI_CASES:
        out = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *flags, "--out", str(out)]) == 0, family
        assert cli.main(["run", *verb, *flags]) == 0, family
        got = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        inst = build_instance(spec_from_json(out.read_text()))
        assert got == _global_lines(family, inst), family
        if "--bids" in flags:
            bids = [int(x) for x in flags[flags.index("--bids") + 1].split(",")]
            given = inst.caps if family.startswith("scheduling") else inst.values
            assert list(given) == bids, family


def _man_doc(inst, man, counter):
    st = matching.local_ags(inst, 2 * inst.k * inst.k, man, counter)
    matched = {} if st.partner is None else {"woman": st.partner}
    return {"man": man, "status": st.state, **matched}


def _woman_doc(inst, woman, counter):
    st = matching.local_ags_woman(inst, 2 * inst.k * inst.k, woman, counter)
    matched = {} if st.partner is None else {"man": st.partner}
    return {"woman": woman, "status": st.state, **matched}


def _buyer_doc(local):
    def doc(inst, buyer, counter):
        got = local(inst, buyer, counter)
        return {"buyer": buyer, "award": list(got["award"]), "payment": str(got["payment"])}

    return doc


# (family, query flag, population attribute, what `lcmd query` prints for
# one entity, from the library's local answer)
_QUERY_KINDS = [
    ("matching", "--query-man", "n", _man_doc),
    ("matching", "--query-woman", "m", _woman_doc),
    ("scheduling-std", "--query-job", "m",
     lambda inst, j, c: {"job": j, "machine": scheduling.slms_local(inst, j, c)}),
    ("scheduling-res", "--query-job", "m",
     lambda inst, j, c: {"job": j, "machine": scheduling.rlms_local(inst, j, c)}),
    ("uduv", "--query-buyer", "n",
     _buyer_doc(lambda inst, b, c: auctions.uduv_local(inst, ("buyer", b), c))),
    ("uduv", "--query-item", "m",
     lambda inst, j, c: {"item": j, "winner": auctions.uduv_local(inst, ("item", j), c)["winner"]}),
    ("udubv", "--query-buyer", "n", _buyer_doc(auctions.udubv_local)),
    ("ksmb", "--query-buyer", "n", _buyer_doc(auctions.ksmb_local)),
    ("housing", "--query-agent", "n",
     lambda inst, a, c: {"agent": a, "house": rsd.rsd_local(inst, a, c)}),
]


@pytest.mark.parametrize(
    "family,flag,side,doc", _QUERY_KINDS, ids=[f"{f}{q}" for f, q, _, _ in _QUERY_KINDS]
)
def test_cli_query_prints_the_local_answer(family, flag, side, doc, tmp_path, capsys):
    # every query kind of `lcmd query` prints the library's local answer for
    # the entity plus the probes that answer charged
    _, verb, flags, _ = next(case for case in _CLI_CASES if case[0] == family)
    out = tmp_path / "spec.json"
    assert cli.main(["gen", family, *flags, "--out", str(out)]) == 0
    inst = build_instance(spec_from_json(out.read_text()))
    for e in range(getattr(inst, side)):
        assert cli.main(["query", *verb, *flags, flag, str(e)]) == 0, (family, e)
        counter = ProbeCounter()
        want = {**doc(inst, e, counter), "probes": counter.count}
        assert json.loads(capsys.readouterr().out) == want, (family, e)


def test_cli_item_query_is_uduv_only(capsys):
    for mode in ("udubv", "ksmb"):
        for verb in ("query", "run"):
            argv = [verb, "auction", "--mode", mode, "--n", "4", "--m", "4", "--query-item", "0"]
            assert cli.main(argv) == 2, (mode, verb)
            assert capsys.readouterr().out == ""


def test_cli_audit_prints_a_violation_with_fraction_utilities(monkeypatch, capsys):
    found = [auctions.Violation(0, "bid=0", Fraction(1, 2), Fraction(3, 4))]
    monkeypatch.setattr(auctions, "truthfulness_audit", lambda inst: found)
    argv = ["run", "auction", "--mode", "udubv", "--seed", "3", "--n", "6", "--m", "6", "--k", "2"]
    assert cli.main([*argv, "--audit"]) == 1
    assert capsys.readouterr().out == (
        '{"violations": [{"buyer": 0, "report": "bid=0", '
        '"utility_deviation": "3/4", "utility_truth": "1/2"}]}\n'
    )


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
# family -> (run/query verb and mode, query flag); other family values use rsd's
_VERBS = {
    "matching": (["matching"], "--query-man"),
    "scheduling-std": (["scheduling", "--mode", "std"], "--query-job"),
    "scheduling-res": (["scheduling", "--mode", "res"], "--query-job"),
    "uduv": (["auction", "--mode", "uduv"], "--query-item"),
    "udubv": (["auction", "--mode", "udubv"], "--query-buyer"),
    "ksmb": (["auction", "--mode", "ksmb"], "--query-buyer"),
    "housing": (["rsd"], "--query-agent"),
}
_SMALL_INT = st.integers(-1, 6)
_ROWS = st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=7)


@st.composite
def _config_docs(draw):
    """Spec JSON objects: mostly well-typed fields of small instances, with
    any field dropped or replaced by arbitrary JSON.  A document holds its
    family's size key and the optional keys the family reads, each perhaps
    absent; about one in eight also holds a key the family does not read
    (another family's value key or the other size spelling), which is
    refused."""
    family = draw(st.sampled_from(sorted(_VERBS)))
    fam = FAMILIES[family]
    doc = {
        "family": family,
        "seed": draw(st.integers(-2, 50)),
        "n": draw(_SMALL_INT),
        "m": draw(_SMALL_INT),
        fam.size: draw(_SMALL_INT),
    }
    optional = {
        "bids": st.none() | st.lists(st.integers(-2, 9), max_size=7),
        "valuations": st.none() | st.lists(st.integers(-2, 9), max_size=7),
        "explicit_edges": st.none() | _ROWS,
        "d" if fam.size == "k" else "k": _SMALL_INT,
    }
    own = [key for key in optional if key == fam.values or (key == "explicit_edges" and fam.rows)]
    keys = [key for key in own if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 0:
        keys.append(draw(st.sampled_from([key for key in optional if key not in own])))
    doc.update((key, draw(optional[key])) for key in keys)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True, max_size=2)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_JSON)
    return doc


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=_config_docs(), entity=st.integers(-1, 4))
def test_cli_config_fuzz_exits_0_or_2(doc, entity, tmp_path):
    # whatever a --config file holds, lcmd answers or exits 2 with a message;
    # it never raises
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    family = doc.get("family")
    known = isinstance(family, str) and family in _VERBS
    verb, flag = _VERBS[family if known else "housing"]
    assert cli.main(["query", *verb, "--config", str(path), flag, str(entity)]) in (0, 2)
    assert cli.main(["run", *verb, "--config", str(path)]) in (0, 2)


# sizes up to 40, or (one draw in eight) past MAX_SIZE, which every verb
# refuses before a build
_FLAG_SIZE = st.integers(0, 7).flatmap(
    lambda r: st.integers(MAX_SIZE + 1, 2**70) if r == 0 else st.integers(-2, 40)
)
# Capacities and values stay at or below 1,000: a standard-mode slot pool
# holds one record per slot, and expected payments at capacity 10^5 pass
# Python's 4,300-digit int limit.
_FLAG_BIDS = st.lists(st.integers(-2, 1000), max_size=8)
# run/query family -> its mode choices, size flag and entity flags ("" asks
# for the whole run)
_FLAG_FAMILIES = {
    "matching": ([], "--k", ["--query-man", ""]),
    "scheduling": (["std", "res"], "--d", ["--query-job", "--pay-machine", ""]),
    "auction": (["uduv", "udubv", "ksmb"], "--k", ["--query-buyer", "--query-item", ""]),
    "rsd": ([], "--d", ["--query-agent", ""]),
}


@st.composite
def _flag_argvs(draw, sets_path):
    """argv lists for every verb: instance flags drawn from small and
    out-of-range values, each flag present or not, and (for auctions) a
    --sets file whose JSON content is drawn too."""
    verb = draw(st.sampled_from(["gen", "run", "query", "bench", "verify"]))

    def maybe(flag, values):
        """The flag with a drawn value, three times in four."""
        return [flag, str(draw(values))] if draw(st.integers(0, 3)) else []

    n = maybe("--n", _FLAG_SIZE)
    if verb in ("bench", "verify"):
        family = draw(st.sampled_from(sorted(_VERBS) + ["auction", "rsd", "scheduling", "raffle"]))
        grid = draw(st.lists(_FLAG_SIZE, min_size=1, max_size=3))
        argv = [verb, family, "--n", ",".join(map(str, grid)), "--seeds", "1"]
        if verb == "bench":
            argv += ["--queries", str(draw(st.integers(1, 5)))]
        return argv + maybe("--k", _SMALL_INT) + maybe("--d", _SMALL_INT) + maybe(
            "--rounds", st.integers(-2, 60)
        )
    bids = maybe("--bids", _FLAG_BIDS.map(lambda xs: ",".join(map(str, xs))))
    seed = maybe("--seed", st.integers(-3, 2**70))
    if verb == "gen":
        family = draw(st.sampled_from(sorted(_VERBS) + ["auction", "rsd", "raffle"]))
        size = maybe(draw(st.sampled_from(["--k", "--d"])), _SMALL_INT)
        return [verb, family, *seed, *n, *maybe("--m", _FLAG_SIZE), *size, *bids]
    family = draw(st.sampled_from(sorted(_FLAG_FAMILIES)))
    modes, size_flag, entities = _FLAG_FAMILIES[family]
    argv = [verb, family, *seed, *n, *maybe(size_flag, _SMALL_INT)]
    if modes:
        argv += ["--mode", draw(st.sampled_from(modes)), *maybe("--m", _FLAG_SIZE), *bids]
    if family == "matching":
        argv += maybe("--rounds", st.integers(-2, 60) | st.just(10**9))
    if family == "auction" and draw(st.booleans()):
        sets_path.write_text(json.dumps(draw(_ROWS | _JSON)))
        argv += ["--sets", str(sets_path)]
    entity = draw(st.sampled_from(entities))
    if entity.startswith("--query") or entity == "--pay-machine":
        argv += [entity, str(draw(st.integers(-1, 5)))]
    elif entity:
        argv.append(entity)
    return argv


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_cli_flag_fuzz_exits_0_1_or_2(data, tmp_path, capsys):
    # whatever the instance flags and --sets file hold, every verb answers,
    # reports violations or exits 2 with a message; it never raises
    argv = data.draw(_flag_argvs(tmp_path / "sets.json"))
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag the verb lacks
        code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    # query without a query flag
    assert cli.main(["query", "rsd", "--seed", "0", "--n", "8"]) == 2
    # seeded restricted menus with no machine to draw from: refused by n
    assert cli.main(["run", "scheduling", "--mode", "res", "--n", "0", "--m", "0"]) == 2
    assert "got n=0" in capsys.readouterr().err
    # config family mismatch
    out = tmp_path / "h.json"
    assert cli.main(["gen", "rsd", "--n", "8", "--out", str(out)]) == 0
    assert cli.main(["run", "matching", "--config", str(out)]) == 2
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["query", "rsd", "--config", str(bad), "--query-agent", "0"]) == 2
    # argparse-level misuse (missing required --mode)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "scheduling", "--n", "4"])
    assert exc.value.code == 2


# instance family -> run/query argv, gen flags, the instance flags that may
# not join --config, and a request
_CONFIG_CASES = {
    "matching": (["matching"], ["--n", "4"], ["--seed", "--n", "--k"], ["--query-man", "1"]),
    "scheduling-std": (
        ["scheduling", "--mode", "std"], ["--bids", "2,1"],
        ["--seed", "--n", "--m", "--d", "--bids"], ["--query-job", "1"],
    ),
    "udubv": (
        ["auction", "--mode", "udubv"], ["--bids", "3,5", "--k", "1"],
        ["--seed", "--n", "--m", "--k", "--bids", "--sets"], ["--query-buyer", "1"],
    ),
    "housing": (["rsd"], ["--n", "4"], ["--seed", "--n", "--m", "--d"], ["--query-agent", "1"]),
}


def test_cli_config_refuses_an_instance_flag_it_would_ignore(tmp_path, capsys):
    # the file gives the whole instance: an instance flag beside it is named
    # and refused, while --rounds and a request still go with it
    sets = tmp_path / "sets.json"
    sets.write_text("[[0], [1]]")
    values = {"--bids": "1,2", "--sets": str(sets)}
    for family, (verb, gen, flags, request) in _CONFIG_CASES.items():
        path = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *gen, "--out", str(path)]) == 0
        base = [*verb, "--config", str(path)]
        for flag in flags:
            for argv in (["run", *base], ["query", *base, *request]):
                assert cli.main([*argv, flag, values.get(flag, "9")]) == 2, (argv, flag)
                out, err = capsys.readouterr()
                assert (out, err) == ("", f"lcmd: --config gives the whole instance, not {flag}\n")
        assert cli.main(["query", *base, *request]) == 0, family
        capsys.readouterr()
    argv = ["query", "rsd", "--config", str(tmp_path / "housing.json"), "--n", "1000"]
    assert cli.main([*argv, "--seed", "9", "--query-agent", "3"]) == 2
    assert capsys.readouterr().err == "lcmd: --config gives the whole instance, not --seed or --n\n"
    argv = ["query", "matching", "--config", str(tmp_path / "matching.json"), "--rounds", "2"]
    assert cli.main([*argv, "--query-man", "1"]) == 0


def test_cli_sizes_past_the_cap_exit_2(tmp_path, capsys):
    # a size past MAX_SIZE is refused before any build starts
    argv = ["query", "rsd", "--n", "99999999999999999999", "--d", "1", "--query-agent", "0"]
    assert cli.main(argv) == 2
    assert "at most" in capsys.readouterr().err
    for over in ({"n": MAX_SIZE + 1}, {"n": 4, "m": MAX_SIZE + 1}):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"family": "housing", "seed": 0, "d": 1, **over}))
        assert cli.main(["query", "rsd", "--config", str(path), "--query-agent", "0"]) == 2
        assert "at most" in capsys.readouterr().err
    assert cli.main(["bench", "rsd", "--n", str(MAX_SIZE + 1), "--d", "1"]) == 2
    assert "at most" in capsys.readouterr().err


def test_cli_pay_machine_out_of_range_exits_2(capsys):
    for mode, scheme in (("std", "expected"), ("std", "sampled"), ("res", "rerun")):
        base = ["query", "scheduling", "--mode", mode, "--bids", "1,2,3", "--m", "6"]
        for machine in ("-1", "3"):
            argv = base + ["--pay-machine", machine, "--scheme", scheme]
            assert cli.main(argv) == 2
            assert "unknown machine" in capsys.readouterr().err
        assert cli.main(base + ["--pay-machine", "2", "--scheme", scheme]) == 0
        assert json.loads(capsys.readouterr().out)["machine"] == 2


def test_cli_wrong_typed_json_exits_2(tmp_path, capsys):
    good = {"family": "housing", "seed": 0, "n": 2, "m": 2, "d": 1}
    for patch, said in (
        ({"seed": [1]}, "must be"),
        ({"explicit_edges": [1, 2, 0]}, "must be"),
        ({"family": [1]}, "unknown family"),
        ({"family": {"a": 1}}, "unknown family"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**good, **patch}))
        assert cli.main(["query", "rsd", "--config", str(path), "--query-agent", "0"]) == 2
        assert said in capsys.readouterr().err
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([[[0]], [1]]))
    argv = ["query", "auction", "--mode", "uduv", "--n", "2", "--m", "2", "--sets", str(sets)]
    assert cli.main(argv + ["--query-buyer", "0"]) == 2
    assert "--sets" in capsys.readouterr().err


def test_cli_refuses_spec_keys_the_family_does_not_read(tmp_path, capsys):
    # another family's value key, or a misspelt key, exits 2 and names the
    # key instead of being ignored
    for family, verb, flags, query in _CLI_CASES:
        spec = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *flags, "--out", str(spec)]) == 0, family
        doc = json.loads(spec.read_text())
        foreign = "valuations" if family.startswith("scheduling") else "bids"
        for key in (foreign, "valuation"):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({**doc, key: [1] * doc["n"]}))
            for argv in (
                ["run", *verb, "--config", str(path)],
                ["query", *verb, "--config", str(path), *query],
            ):
                assert cli.main(argv) == 2, (argv, key)
                out, err = capsys.readouterr()
                assert out == "" and repr(key) in err, (argv, key)


def test_cli_refuses_buyer_sets_longer_than_k(tmp_path, capsys):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([[0, 1, 2], [1]]))
    for mode in ("uduv", "udubv", "ksmb"):
        flags = ["--mode", mode, "--n", "2", "--m", "3", "--k", "1", "--sets", str(sets)]
        for argv in (["run", "auction", *flags], ["query", "auction", *flags, "--query-buyer", "1"]):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "buyer 0 lists more than k=1 entries" in err, argv


def test_cli_refuses_housing_lists_longer_than_d(tmp_path, capsys):
    path = tmp_path / "lists.json"
    doc = {"family": "housing", "seed": 0, "n": 2, "m": 3, "d": 1}
    path.write_text(json.dumps({**doc, "explicit_edges": [[0, 1, 2], [1]]}))
    assert cli.main(["query", "rsd", "--config", str(path), "--query-agent", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "agent 0 lists more than d=1 entries" in err


def test_cli_refuses_a_housing_list_naming_a_house_twice(tmp_path, capsys):
    path = tmp_path / "lists.json"
    doc = {"family": "housing", "seed": 0, "n": 2, "m": 2, "d": 2}
    path.write_text(json.dumps({**doc, "explicit_edges": [[1], [0, 0]]}))
    assert cli.main(["run", "rsd", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "lcmd: left id 1 names right id 0 twice\n")
    path.write_text(json.dumps({**doc, "explicit_edges": [[1], [0]]}))
    assert cli.main(["run", "rsd", "--config", str(path)]) == 0


def test_cli_refuses_restricted_menus_longer_than_d(tmp_path, capsys):
    path = tmp_path / "menus.json"
    doc = {"family": "scheduling-res", "seed": 0, "n": 3, "m": 2, "d": 1}
    path.write_text(json.dumps({**doc, "explicit_edges": [[0], [0, 1, 2]]}))
    argv = ["query", "scheduling", "--mode", "res", "--config", str(path), "--query-job", "0"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "job 1 lists more than d=1 entries" in err


# family → its refusal of row 1 past a size of 1, the one message of the spec
_WIDE_ROW = {
    "matching": "man 1 lists more than k=1 entries",
    "scheduling-res": "job 1 lists more than d=1 entries",
    "uduv": "buyer 1 lists more than k=1 entries",
    "udubv": "buyer 1 lists more than k=1 entries",
    "ksmb": "buyer 1 lists more than k=1 entries",
    "housing": "agent 1 lists more than d=1 entries",
}


def test_cli_refuses_every_family_row_longer_than_its_size(tmp_path, capsys):
    # exit 2, nothing on stdout, and the message alone on stderr: no traceback
    for family, verb, _, _ in _CLI_CASES:
        if family not in _WIDE_ROW:
            continue
        doc = {"family": family, "seed": 0, "n": 2, "m": 2, FAMILIES[family].size: 1}
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps({**doc, "explicit_edges": [[1], [0, 1]]}))
        assert cli.main(["run", *verb, "--config", str(path)]) == 2, family
        assert capsys.readouterr() == ("", f"lcmd: {_WIDE_ROW[family]}\n"), family


def test_cli_counts_a_sets_raw_entries(tmp_path, capsys):
    # the spec counts a row's raw entries, as a restricted menu's repeated
    # draws need, so a set too wide for k is refused by width, and one that
    # fits k but repeats an item by the oracle's once rule
    sets = tmp_path / "sets.json"
    flags = ["--mode", "uduv", "--n", "2", "--m", "3", "--k", "2", "--sets", str(sets)]
    sets.write_text(json.dumps([[0, 0, 1], [1]]))
    assert cli.main(["run", "auction", *flags]) == 2
    assert capsys.readouterr() == ("", "lcmd: buyer 0 lists more than k=2 entries\n")
    sets.write_text(json.dumps([[0, 0], [1]]))
    assert cli.main(["run", "auction", *flags]) == 2
    assert capsys.readouterr() == ("", "lcmd: left id 0 names right id 0 twice\n")


def test_cli_uduv_takes_no_bids(capsys):
    # every uduv buyer values an item at 1, so --bids has nowhere to go
    flags = ["--n", "3", "--m", "3", "--k", "1", "--bids", "5,6,7"]
    auction = ["auction", "--mode", "uduv", *flags]
    for argv in (["gen", "uduv", *flags], ["run", *auction], ["query", *auction, "--query-buyer", "0"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "--bids" in err, argv


def test_cli_refuses_a_standard_slot_pool_past_max_size(capsys):
    # the slot pool is refused before the build, not built slot by slot
    argv = ["query", "scheduling", "--mode", "std", "--bids", str(2 * MAX_SIZE), "--m", "4"]
    start = time.perf_counter()
    assert cli.main([*argv, "--query-job", "0"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "bids may sum to at most" in capsys.readouterr().err


def test_cli_payment_past_the_int_print_limit_exits_2(capsys):
    # against one other slot and 4 jobs, 9859 slots is the smallest capacity
    # whose exact expected payment has a part past 4300 digits
    argv = ["query", "scheduling", "--mode", "std", "--m", "4", "--pay-machine", "0", "--bids"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert cli.main([*argv, "9858,1"]) == 0
        num, den = json.loads(capsys.readouterr().out)["payment"].split("/")
        assert (len(num), len(den)) == (4298, 4293)
        assert cli.main([*argv, "9859,1"]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert "machine 0's exact expected payment is a fraction of 4302/4297 digits" in err
    assert "past the 4300-digit limit" in err


def test_cli_explicit_rows_must_match_n(tmp_path, capsys):
    # a spec whose explicit lists, sets or menus do not give one row per
    # entity is refused, not built as a smaller instance
    rows = [[0], [1], [2]]
    cases = [
        ({"family": "matching", "k": 1}, ["run", "matching"]),
        ({"family": "housing", "d": 1}, ["run", "rsd"]),
        ({"family": "uduv", "k": 1}, ["run", "auction", "--mode", "uduv"]),
        ({"family": "scheduling-res", "d": 1}, ["run", "scheduling", "--mode", "res"]),
        ({"family": "scheduling-std", "d": 1}, ["run", "scheduling", "--mode", "std"]),
    ]
    path = tmp_path / "rows.json"
    for patch, verb in cases:
        path.write_text(json.dumps({"seed": 0, "n": 5, "m": 5, "explicit_edges": rows, **patch}))
        assert cli.main([*verb, "--config", str(path)]) == 2, patch
        assert capsys.readouterr().out == "", patch
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps(rows))
    argv = ["run", "auction", "--mode", "uduv", "--m", "4", "--sets", str(sets)]
    assert cli.main([*argv, "--n", "5"]) == 2
    assert "explicit_edges" in capsys.readouterr().err
    assert cli.main([*argv, "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["award"] for line in lines] == [[0], [1], [2]]


def test_cli_gen_refuses_unbuildable_specs(tmp_path, capsys):
    # `gen` builds the instance before writing, so it never writes a spec
    # that `run --config` would refuse
    for flags in (
        ["scheduling-std", "--n", "5", "--bids", "1,2,3"],
        ["udubv", "--n", "3", "--k", "5"],
        ["housing", "--n", "3", "--d", "0"],
    ):
        out = tmp_path / "spec.json"
        assert cli.main(["gen", *flags, "--out", str(out)]) == 2, flags
        assert not out.exists(), flags
        assert capsys.readouterr().err.startswith("lcmd: "), flags


def test_cli_scheme_follows_mode(capsys):
    # without --scheme a payment takes its mode's scheme: expected for std,
    # rerun for res; a scheme of the other mode still exits 2
    base = ["query", "scheduling", "--bids", "1,2,3", "--m", "6", "--pay-machine", "2"]
    for mode, scheme in (("std", "expected"), ("res", "rerun")):
        assert cli.main([*base, "--mode", mode]) == 0, mode
        default = capsys.readouterr().out
        assert json.loads(default)["scheme"] == scheme
        assert cli.main([*base, "--mode", mode, "--scheme", scheme]) == 0, mode
        assert capsys.readouterr().out == default
    for mode, scheme in (("std", "rerun"), ("res", "expected"), ("res", "sampled")):
        assert cli.main([*base, "--mode", mode, "--scheme", scheme]) == 2, (mode, scheme)
        assert capsys.readouterr().out == ""


def test_cli_empty_menu_exits_2(tmp_path, capsys):
    doc = {"family": "scheduling-res", "seed": 0, "n": 1, "m": 2, "d": 1,
           "explicit_edges": [[], [0]]}
    path = tmp_path / "menus.json"
    path.write_text(json.dumps(doc))
    argv = ["query", "scheduling", "--mode", "res", "--config", str(path), "--query-job", "0"]
    assert cli.main(argv) == 2
    assert "job 0 has an empty menu" in capsys.readouterr().err
    # a seeded build with d = 0 draws no menu at all, and says so by d
    argv = ["query", "scheduling", "--mode", "res", "--n", "3", "--d", "0", "--query-job", "0"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "got d=0" in err


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify", "matching", "--n", "40", "--seeds", "2", "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert csv_body(text).splitlines()[0] == "name,instances,violations"
    assert all(line.endswith(",0") for line in csv_body(text).splitlines()[1:])

    monkeypatch.setattr(
        "localmech.harness.verify_family", lambda *a, **kw: [("planted", 5, 2)]
    )
    out = tmp_path / "v.csv"
    rc = cli.main(["verify", "matching", "--n", "40", "--seeds", "2", "--out", str(out)])
    assert rc == 1
    assert "planted,5,2" in out.read_text()
    assert "planted: 2 violations over 5 instances" in capsys.readouterr().out


def test_cli_bench_deterministic_output(tmp_path, capsys):
    argv = ["bench", "rsd", "--n", "64,128", "--seeds", "2", "--queries", "5", "--d", "2"]
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    summary1 = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out2)]) == 0
    summary2 = capsys.readouterr().out
    body1, body2 = csv_body(out1.read_text()), csv_body(out2.read_text())
    assert body1 == body2
    assert summary1 == summary2
    header = body1.splitlines()[0]
    assert header == ",".join(BENCH_COLUMNS)
    assert len(body1.splitlines()) == 1 + 2 * 2 * 5


def test_cli_scheduling_and_auction_verbs(capsys):
    rc = cli.main(
        ["query", "scheduling", "--mode", "std", "--seed", "2", "--bids", "1,1",
         "--m", "4", "--pay-machine", "0", "--scheme", "expected"]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["machine"] == 0
    rc = cli.main(
        ["run", "auction", "--mode", "udubv", "--seed", "0", "--n", "4", "--m", "4",
         "--k", "2", "--audit"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}
