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
--bids/--sets/--config to an instance spec the same way (`_spec`); `gen`
builds the instance before it writes the spec.  One handler, `_cmd_run`,
serves `run` and `query` for every family from `instances.FAMILIES`: each
query kind there is a `--query-<entity>` flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import auctions, harness, scheduling
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
    sp.add_argument("--scheme", choices=("expected", "sampled", "rerun"))
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
    build_instance(spec)  # refuse a spec that `run --config` would refuse
    _write_text(args.out, spec_to_json(spec) + "\n")
    return 0


# run/query family -> instance family, formatted with the parsed flags
_FAMILY_OF = {
    "matching": "matching", "scheduling": "scheduling-{mode}", "auction": "{mode}", "rsd": "housing"
}

# (--mode, --scheme) -> the scheduling payment; a mode's first scheme is its default
_PAYMENTS = {
    ("std", "expected"): "payment_slms_expected",
    ("std", "sampled"): "payment_slms_sampled",
    ("res", "rerun"): "payment_rlms",
}


def _cmd_run(args, single: bool) -> int:
    """Answer `--pay-machine`, else the first of the family's single-entity
    queries that has its `--query-<entity>` flag, else `--audit`, else (`run`
    only) the whole global run: one line per entity with `--all`, or the
    auctions' one awards/payments object."""
    flags = vars(args)
    family = _FAMILY_OF[args.family].format(**flags)
    fam = FAMILIES[family]
    spec = _spec(args, family)
    inst = build_instance(spec)
    if flags.get("pay_machine") is not None:
        scheme = args.scheme or next(s for mode, s in _PAYMENTS if mode == args.mode)
        if (args.mode, scheme) not in _PAYMENTS:
            raise _Usage(f"--mode {args.mode} payments take no --scheme {scheme}")
        rec = getattr(scheduling, _PAYMENTS[args.mode, scheme])(inst, args.pay_machine)
        _emit({"machine": rec.machine, "payment": str(rec.amount), "scheme": rec.scheme})
        return 0
    rounds = flags.get("rounds")
    if rounds is None:  # matching's default round budget
        rounds = 2 * spec.k * spec.k
    asked = {
        name[len("query_"):]: e
        for name, e in flags.items()
        if name.startswith("query_") and e is not None
    }
    for kind in fam.queries:
        if kind.entity in asked:
            e = asked[kind.entity]
            counter = ProbeCounter()
            _emit({**kind.doc(e, kind.local(inst, rounds, e, counter)), "probes": counter.count})
            return 0
    if asked:
        raise _Usage(f"{family} has no --query-{min(asked)}")
    if flags.get("audit"):
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
    lines = "all" in flags  # the auctions print one object instead
    if single or (lines and not args.all):
        whole = " or --all" if lines and not single else ""
        raise _Usage(f"{args.verb} {args.family} needs --query-{fam.queries[0].entity}{whole}")
    run, answers = fam.run(inst, rounds)
    if lines:
        kind = fam.queries[0]
        for e, got in enumerate(answers[0]):
            _emit(kind.doc(e, got))
    else:
        _emit(
            {
                "awards": {b: list(jt) for b, jt in sorted(run.awards.items())},
                "payments": {b: str(p) for b, p in sorted(run.payments.items())},
            }
        )
    return 0


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
