"""`lcmd` command line.

Verbs:

    gen     write an instance description JSON
    run     answer queries (or stream a whole solution) for one family
    query   like `run` but requires a single-entity query flag
    verify  run a family's invariant battery; CSV report, exit 1 on violations
    bench   probe benchmark over an n grid; records CSV plus summary stats

Exit codes: 0 success, 1 invariant/audit violations, 2 usage or config error.
Single-query answers are JSON objects on stdout; batch output is CSV.
`gen`, `run` and `query` map the instance flags --seed/--n/--m/--k|--d/
--bids/--sets/--config to an instance spec the same way (`_spec`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import auctions, harness, matching, rsd, scheduling
from .instances import FAMILIES, InstanceSpec, build_instance, int_rows, spec_from_json, spec_to_json
from .probes import ProbeCounter

__all__ = ["build_parser", "main"]


class _Usage(Exception):
    """Bad flag combination or malformed config (exit 2)."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated int list, got {text!r}")


def _json_default(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, default=_json_default, sort_keys=True))


def _spec(args, family: str) -> InstanceSpec:
    """The instance spec of a verb's flags: the --config file when given,
    otherwise --seed, --n (default: the --bids count), --m (default n), the
    family's size flag, --bids (into the family's `values` field) and
    --sets (explicit item sets).  Flags a verb lacks read as unset."""
    flags = vars(args)
    if flags.get("config"):
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = spec_from_json(fh.read())
        if spec.family != family:
            raise _Usage(f"config family {spec.family!r} does not match requested {family!r}")
        return spec
    fam = FAMILIES[family]
    bids = flags.get("bids")
    if bids and fam.values is None:
        raise _Usage(f"{family} takes no --bids")
    n = args.n if args.n is not None else len(bids) if bids else None
    if n is None:
        raise _Usage("--n is required without --config")
    m = flags.get("m")
    edges = None
    if flags.get("sets"):
        with open(args.sets, "r", encoding="utf-8") as fh:
            edges = int_rows(json.load(fh), "--sets")
    values = {fam.values: tuple(bids)} if bids else {}
    return InstanceSpec(
        seed=args.seed,
        family=family,
        n=n,
        m=m if m is not None else n,
        k=args.size,
        explicit_edges=edges,
        **values,
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_parsers(verb_parser: argparse.ArgumentParser) -> None:
    fams = verb_parser.add_subparsers(dest="family", required=True, metavar="FAMILY")

    mp = fams.add_parser("matching", help="truncated proposal rounds over seeded lists")
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--n", type=int)
    mp.add_argument("--k", dest="size", type=int, default=3)
    mp.add_argument("--rounds", type=int)
    mp.add_argument("--query-man", type=int)
    mp.add_argument("--all", action="store_true")
    mp.add_argument("--config")

    sp = fams.add_parser("scheduling", help="load balancing; std slots or res menus")
    sp.add_argument("--mode", choices=("std", "res"), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--d", dest="size", type=int, default=2)
    sp.add_argument("--bids", type=_int_list)
    sp.add_argument("--query-job", type=int)
    sp.add_argument("--pay-machine", type=int)
    sp.add_argument("--scheme", choices=("expected", "sampled", "rerun"), default="expected")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--config")

    ap = fams.add_parser("auction", help="greedy auctions with critical payments")
    ap.add_argument("--mode", choices=("uduv", "udubv", "ksmb"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int)
    ap.add_argument("--m", type=int)
    ap.add_argument("--k", dest="size", type=int, default=2)
    ap.add_argument("--bids", type=_int_list)
    ap.add_argument("--sets", help="JSON file: list of item-id lists, one per buyer")
    ap.add_argument("--query-buyer", type=int)
    ap.add_argument("--query-item", type=int)
    ap.add_argument("--audit", action="store_true")
    ap.add_argument("--config")

    hp = fams.add_parser("rsd", help="serial dictatorship over lottery ranks")
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--n", type=int)
    hp.add_argument("--m", type=int)
    hp.add_argument("--d", dest="size", type=int, default=3)
    hp.add_argument("--query-agent", type=int)
    hp.add_argument("--all", action="store_true")
    hp.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmd",
        description="Per-query mechanism runs, invariant checks, probe benchmarks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    gen = sub.add_parser("gen", help="write an instance description JSON")
    gen.add_argument("family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", "--d", dest="size", type=int, default=3)
    gen.add_argument("--bids", type=_int_list)
    gen.add_argument("--out")

    for verb in ("run", "query"):
        vp = sub.add_parser(verb, help="answer queries for one family")
        _add_family_parsers(vp)

    for verb, extra in (("verify", None), ("bench", "queries")):
        vp = sub.add_parser(verb)
        vp.add_argument("family")
        vp.add_argument("--n", type=_int_list, required=True, help="comma-separated n grid")
        vp.add_argument("--seeds", type=int, default=10)
        if extra:
            vp.add_argument("--queries", type=int, default=100)
        vp.add_argument("--k", type=int, default=3)
        vp.add_argument("--d", type=int, default=2)
        vp.add_argument("--rounds", type=int)
        vp.add_argument("--out")
    return parser


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _spec(args, harness.canonical_family(args.family))
    _write_text(args.out, spec_to_json(spec) + "\n")
    return 0


def _man_doc(man: int, st: matching.ManStatus) -> dict:
    doc = {"man": man, "status": st.state}
    if st.partner is not None:
        doc["woman"] = st.partner
    return doc


def _run_matching(args, single: bool) -> int:
    spec = _spec(args, "matching")
    inst = build_instance(spec)
    rounds = args.rounds if args.rounds is not None else 2 * spec.k * spec.k
    if args.query_man is not None:
        counter = ProbeCounter()
        st = matching.local_ags(inst, rounds, args.query_man, counter)
        _emit({**_man_doc(args.query_man, st), "probes": counter.count})
        return 0
    if args.all and not single:
        statuses, _ = matching.abridged_gs(inst, rounds)
        for man in range(inst.n):
            _emit(_man_doc(man, statuses[man]))
        return 0
    raise _Usage("matching needs --query-man ID" + ("" if single else " or --all"))


def _run_scheduling(args, single: bool) -> int:
    inst = build_instance(_spec(args, f"scheduling-{args.mode}"))
    if args.pay_machine is not None:
        i = args.pay_machine
        if args.mode == "std":
            if args.scheme == "rerun":
                raise _Usage("--scheme rerun applies to --mode res")
            if args.scheme == "expected":
                rec = scheduling.payment_slms_expected(inst, i)
            else:
                rec = scheduling.payment_slms_sampled(inst, i)
        else:
            if args.scheme != "rerun":
                raise _Usage("--mode res payments use --scheme rerun")
            rec = scheduling.payment_rlms(inst, i)
        _emit({"machine": rec.machine, "payment": str(rec.amount), "scheme": rec.scheme})
        return 0
    local = scheduling.slms_local if args.mode == "std" else scheduling.rlms_local
    if args.query_job is not None:
        counter = ProbeCounter()
        mach = local(inst, args.query_job, counter)
        _emit({"job": args.query_job, "machine": mach, "probes": counter.count})
        return 0
    if args.all and not single:
        runner = scheduling.slms_online if args.mode == "std" else scheduling.rlms_online
        alloc = runner(inst, order=inst.rank_order())
        for j in range(inst.m):
            _emit({"job": j, "machine": alloc.assign[j]})
        return 0
    raise _Usage(
        "scheduling needs --query-job J or --pay-machine I" + ("" if single else " or --all")
    )


def _run_auction(args, single: bool) -> int:
    family = args.mode
    inst = build_instance(_spec(args, family))
    if args.query_buyer is not None:
        counter = ProbeCounter()
        if family == "uduv":
            got = auctions.uduv_local(inst, ("buyer", args.query_buyer), counter)
        elif family == "udubv":
            got = auctions.udubv_local(inst, args.query_buyer, counter)
        else:
            got = auctions.ksmb_local(inst, args.query_buyer, counter)
        _emit(
            {
                "buyer": got["buyer"],
                "award": list(got["award"]),
                "payment": str(got["payment"]),
                "probes": counter.count,
            }
        )
        return 0
    if args.query_item is not None:
        if family != "uduv":
            raise _Usage("item queries are uduv-only; buyer queries cover the other modes")
        counter = ProbeCounter()
        got = auctions.uduv_local(inst, ("item", args.query_item), counter)
        _emit({"item": got["item"], "winner": got["winner"], "probes": counter.count})
        return 0
    if args.audit:
        violations = auctions.truthfulness_audit(inst)
        _emit(
            {
                "violations": [
                    {
                        "buyer": v.buyer,
                        "report": v.report,
                        "utility_truth": str(v.utility_truth),
                        "utility_deviation": str(v.utility_deviation),
                    }
                    for v in violations
                ]
            }
        )
        return 1 if violations else 0
    if single:
        raise _Usage("auction needs --query-buyer I or --query-item J")
    runner = {
        "uduv": auctions.uduv_run,
        "udubv": auctions.udubv_run,
        "ksmb": auctions.ksmb_run,
    }[family]
    out = runner(inst)
    _emit(
        {
            "awards": {b: list(jt) for b, jt in sorted(out.awards.items())},
            "payments": {b: str(p) for b, p in sorted(out.payments.items())},
        }
    )
    return 0


def _run_rsd(args, single: bool) -> int:
    inst = build_instance(_spec(args, "housing"))
    if args.query_agent is not None:
        counter = ProbeCounter()
        house = rsd.rsd_local(inst, args.query_agent, counter)
        _emit({"agent": args.query_agent, "house": house, "probes": counter.count})
        return 0
    if args.all and not single:
        alloc = rsd.rsd_global(inst)
        for a in range(inst.n):
            _emit({"agent": a, "house": alloc[a]})
        return 0
    raise _Usage("rsd needs --query-agent I" + ("" if single else " or --all"))


def _cmd_run(args, single: bool) -> int:
    handler = {
        "matching": _run_matching,
        "scheduling": _run_scheduling,
        "auction": _run_auction,
        "rsd": _run_rsd,
    }[args.family]
    return handler(args, single)


def _cmd_verify(args) -> int:
    rows = harness.verify_family(
        args.family, args.n, args.seeds, k=args.k, d=args.d, rounds=args.rounds
    )
    text = harness.render_csv(
        harness.VERIFY_COLUMNS,
        rows,
        comments=[f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"],
    )
    _write_text(args.out, text)
    if args.out is not None:
        for name, instances, violations in rows:
            print(f"{name}: {violations} violations over {instances} instances")
    return 1 if any(v for _, _, v in rows) else 0


def _cmd_bench(args) -> int:
    config = harness.ExperimentConfig(
        family=args.family,
        ns=tuple(args.n),
        seeds=args.seeds,
        queries=args.queries,
        k=args.k,
        d=args.d,
        rounds=args.rounds,
    )
    records = harness.bench_family(config)
    _write_text(args.out, harness.bench_records_csv(records))
    summary = harness.summarize_bench(records)
    sys.stdout.write(harness.render_csv(harness.SUMMARY_COLUMNS, summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb in ("run", "query"):
            return _cmd_run(args, single=args.verb == "query")
        if args.verb == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except _Usage as exc:
        print(f"lcmd: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"lcmd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
