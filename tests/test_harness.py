"""Orchestration layer: benchmarks, summaries, verify batteries, CLI verbs."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localmech import auctions, cli, matching, rsd, scheduling
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
from localmech.instances import build_instance, spec_from_json
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


def test_experiment_config_validation():
    cfg = ExperimentConfig(family="rsd", ns=(64,), seeds=2)
    assert cfg.family == "housing"
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(), seeds=1)
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(10,), seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="matching", ns=(10,), seeds=1, queries=0)


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
    with pytest.raises(ValueError):
        fit_power_exponent([10], [1.0])


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
    records = bench_points("rsd", points, d=3)
    assert len(records) == 6000
    keys = [(r.family, r.n, r.seed, r.query) for r in records]
    assert keys == sorted(keys)
    assert all(r.family == "housing" and len(r.digest) == 16 for r in records)
    again = bench_points("rsd", [(256, 3, 10)], d=3)
    rerun = bench_points("rsd", [(256, 3, 10)], d=3)
    assert [(r.probes, r.digest) for r in again] == [
        (r.probes, r.digest) for r in rerun
    ]


def test_verify_batteries_come_back_clean():
    cases = [
        ("matching", dict(k=2)),
        ("scheduling-std", dict(d=2)),
        ("scheduling-res", dict(d=2)),
        ("uduv", dict(k=2)),
        ("udubv", dict(k=2)),
        ("ksmb", dict(k=2)),
        ("rsd", dict(d=2)),
    ]
    for family, kw in cases:
        rows = verify_family(family, ns=[40], seeds=2, **kw)
        assert rows, family
        for name, instances, violations in rows:
            assert instances > 0, (family, name)
            assert violations == 0, (family, name)
    with pytest.raises(ValueError):
        verify_family("matching", ns=[], seeds=1)


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
    return [{
        "awards": {str(b): list(jt) for b, jt in out.awards.items()},
        "payments": {str(b): str(p) for b, p in out.payments.items()},
    }]


def test_cli_run_all_matches_global_runner(tmp_path, capsys):
    # `run --all` (a bare `run` for the auctions) prints the global outcome
    # of the instance that `gen` writes for the same flags, and `--bids`
    # reaches that instance as machine capacities or buyer values.
    for family, verb, flags, _ in _CLI_CASES:
        out = tmp_path / f"{family}.json"
        assert cli.main(["gen", family, *flags, "--out", str(out)]) == 0, family
        whole = [] if verb[0] == "auction" else ["--all"]
        assert cli.main(["run", *verb, *flags, *whole]) == 0, family
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


def _buyer_doc(local):
    def doc(inst, buyer, counter):
        got = local(inst, buyer, counter)
        return {"buyer": buyer, "award": list(got["award"]), "payment": str(got["payment"])}

    return doc


# (family, query flag, population attribute, what `lcmd query` prints for
# one entity, from the library's local answer)
_QUERY_KINDS = [
    ("matching", "--query-man", "n", _man_doc),
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
    any field dropped or replaced by arbitrary JSON."""
    doc = {
        "family": draw(st.sampled_from(sorted(_VERBS))),
        "seed": draw(st.integers(-2, 50)),
        "n": draw(_SMALL_INT),
        "m": draw(_SMALL_INT),
        draw(st.sampled_from(["k", "d"])): draw(_SMALL_INT),
        "bids": draw(st.none() | st.lists(st.integers(-2, 9), max_size=7)),
        "valuations": draw(st.none() | st.lists(st.integers(-2, 9), max_size=7)),
        "explicit_edges": draw(st.none() | _ROWS),
    }
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
    whole = [] if verb[0] == "auction" else ["--all"]
    assert cli.main(["query", *verb, "--config", str(path), flag, str(entity)]) in (0, 2)
    assert cli.main(["run", *verb, "--config", str(path), *whole]) in (0, 2)


def test_cli_usage_errors_exit_2(tmp_path):
    # query without a query flag
    assert cli.main(["query", "rsd", "--seed", "0", "--n", "8"]) == 2
    # config family mismatch
    out = tmp_path / "h.json"
    assert cli.main(["gen", "rsd", "--n", "8", "--out", str(out)]) == 0
    assert cli.main(["run", "matching", "--config", str(out), "--all"]) == 2
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["query", "rsd", "--config", str(bad), "--query-agent", "0"]) == 2
    # argparse-level misuse (missing required --mode)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "scheduling", "--n", "4", "--all"])
    assert exc.value.code == 2


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


def test_cli_explicit_rows_must_match_n(tmp_path, capsys):
    # a spec whose explicit lists, sets or menus do not give one row per
    # entity is refused, not built as a smaller instance
    rows = [[0], [1], [2]]
    cases = [
        ({"family": "matching", "k": 1}, ["run", "matching"], ["--all"]),
        ({"family": "housing", "d": 1}, ["run", "rsd"], ["--all"]),
        ({"family": "uduv", "k": 1}, ["run", "auction", "--mode", "uduv"], []),
        ({"family": "scheduling-res", "d": 1}, ["run", "scheduling", "--mode", "res"], ["--all"]),
        ({"family": "scheduling-std", "d": 1}, ["run", "scheduling", "--mode", "std"], ["--all"]),
    ]
    path = tmp_path / "rows.json"
    for patch, verb, whole in cases:
        path.write_text(json.dumps({"seed": 0, "n": 5, "m": 5, "explicit_edges": rows, **patch}))
        assert cli.main([*verb, "--config", str(path), *whole]) == 2, patch
        assert capsys.readouterr().out == "", patch
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps(rows))
    argv = ["run", "auction", "--mode", "uduv", "--m", "4", "--sets", str(sets)]
    assert cli.main([*argv, "--n", "5"]) == 2
    assert "explicit_edges" in capsys.readouterr().err
    assert cli.main([*argv, "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["awards"] == {"0": [0], "1": [1], "2": [2]}


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
