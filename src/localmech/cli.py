"""`lcmd` command line.

Verbs:

    gen     write an instance description JSON
    run     answer one request for one family, or stream the whole run
    query   like `run` but requires a request
    verify  run a family's invariant battery; CSV report, exit 1 on violations
    bench   probe benchmark over an n grid; records CSV plus summary stats

Exit codes: 0 success, 1 invariant/audit violations, 2 usage or config error.
`run` and `query` answer one request (`--pay-machine`, `--audit` or one
`--query-<entity>` flag) with one JSON object; a bare `run` prints one JSON
line per entity of the global run; batch output is CSV.
`gen`, `run` and `query` map the instance flags --seed/--n/--m/--k|--d/
--bids/--sets/--config to an instance spec the same way (`_spec`); `gen`
builds the instance before it writes the spec.  One handler, `_cmd_run`,
serves `run` and `query` for every family from `instances.FAMILIES`: each
query kind there is a `--query-<entity>` flag of the `run`/`query` family
that serves it (`_add_query_flags`), and `harness.LCMD_FAMILIES` maps each
`run`/`query` family and `--mode` to its instance family.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import auctions, harness, matching, scheduling
from .instances import FAMILIES, InstanceSpec, build_instance, int_rows, spec_from_json, spec_to_json
from .probes import ProbeCounter

__all__ = ["build_parser", "main"]


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


# instance family -> the default of its size flag in `gen`, `run` and
# `query`, set per `run`/`query` family
_SIZES = {
    served: size
    for name, size in {"matching": 3, "scheduling": 2, "auction": 2, "rsd": 3}.items()
    for served in harness.LCMD_FAMILIES[name].values()
}


def _spec(args, family: str) -> InstanceSpec:
    """The instance spec of a verb's flags: the --config file when given,
    which no other instance flag may join, otherwise --seed (default 0),
    --n (default: the --bids count), --m (default n), the family's size
    flag, --bids (the spec's `values`: capacities for scheduling, buyer
    values for udubv and ksmb; any other family exits 2 on it) and --sets
    (explicit item sets).  Flags a verb lacks read as unset."""
    flags = vars(args)
    if flags.get("config"):
        given = [f for f in ("seed", "n", "m", "size", "bids", "sets") if flags.get(f) is not None]
        if given:
            named = (FAMILIES[family].size if f == "size" else f for f in given)
            raise ValueError(f"--config gives the whole instance, not --{' or --'.join(named)}")
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = spec_from_json(fh.read())
        if spec.family != family:
            raise ValueError(f"config family {spec.family!r} does not match requested {family!r}")
        return spec
    bids = flags.get("bids")
    if bids and FAMILIES[family].values is None:
        raise ValueError(f"{family} takes no --bids")
    n = args.n if args.n is not None else len(bids) if bids else None
    if n is None:
        raise ValueError("--n is required without --config")
    m = flags.get("m")
    edges = None
    if flags.get("sets"):
        with open(args.sets, "r", encoding="utf-8") as fh:
            edges = int_rows(json.load(fh), "--sets")
    return InstanceSpec(
        seed=args.seed if args.seed is not None else 0,
        family=family,
        n=n,
        m=m if m is not None else n,
        k=args.size if args.size is not None else _SIZES[family],
        values=tuple(bids) if bids else None,
        explicit_edges=edges,
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


# --mode -> {--scheme: scheduling payment}; a mode's first scheme is its default
_PAYMENTS = {
    "std": {
        "expected": scheduling.payment_slms_expected,
        "sampled": scheduling.payment_slms_sampled,
    },
    "res": {"rerun": scheduling.payment_rlms},
}


def _add_query_flags(parser: argparse.ArgumentParser, family: str) -> None:
    """One `--query-<entity>` flag per query kind that the instance families
    served by `family` (one per --mode) declare in `FAMILIES`."""
    served = harness.LCMD_FAMILIES[family].values()
    for entity in dict.fromkeys(q.entity for name in served for q in FAMILIES[name].queries):
        parser.add_argument(f"--query-{entity}", type=int)


def _add_family_parsers(verb_parser: argparse.ArgumentParser) -> None:
    fams = verb_parser.add_subparsers(dest="family", required=True, metavar="FAMILY")

    mp = fams.add_parser("matching", help="truncated proposal rounds over seeded lists")
    mp.add_argument("--seed", type=int)
    mp.add_argument("--n", type=int)
    mp.add_argument("--k", dest="size", type=int)
    mp.add_argument("--rounds", type=int)
    _add_query_flags(mp, "matching")
    mp.add_argument("--config")

    sp = fams.add_parser("scheduling", help="load balancing; std slots or res menus")
    sp.add_argument("--mode", choices=tuple(harness.LCMD_FAMILIES["scheduling"]), required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--d", dest="size", type=int)
    sp.add_argument("--bids", type=_int_list)
    _add_query_flags(sp, "scheduling")
    sp.add_argument("--pay-machine", type=int)
    sp.add_argument("--scheme", choices=[s for schemes in _PAYMENTS.values() for s in schemes])
    sp.add_argument("--config")

    ap = fams.add_parser("auction", help="greedy auctions with critical payments")
    ap.add_argument("--mode", choices=tuple(harness.LCMD_FAMILIES["auction"]), required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--m", type=int)
    ap.add_argument("--k", dest="size", type=int)
    ap.add_argument("--bids", type=_int_list)
    ap.add_argument("--sets", help="JSON file: list of item-id lists, one per buyer")
    _add_query_flags(ap, "auction")
    ap.add_argument("--audit", action="store_true", default=None)
    ap.add_argument("--config")

    hp = fams.add_parser("rsd", help="serial dictatorship over lottery ranks")
    hp.add_argument("--seed", type=int)
    hp.add_argument("--n", type=int)
    hp.add_argument("--m", type=int)
    hp.add_argument("--d", dest="size", type=int)
    _add_query_flags(hp, "rsd")
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
    gen.add_argument("--k", "--d", dest="size", type=int)
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


def _digits(x: int) -> int:
    """Decimal digits of x > 0, counted without converting x to a string."""
    e = int((x.bit_length() - 1) * math.log10(2))  # 10^e <= x < 10^(e+2)
    return e + 1 + (x >= 10 ** (e + 1))


def _payment_text(rec: scheduling.PaymentRecord) -> str:
    """The exact payment as "p/q", or a usage error naming the payment when
    p or q has more digits than Python prints an int with."""
    try:
        return str(rec.amount)
    except ValueError:  # past sys.get_int_max_str_digits()
        num, den = _digits(abs(rec.amount.numerator)), _digits(rec.amount.denominator)
        raise ValueError(
            f"machine {rec.machine}'s exact {rec.scheme} payment is a fraction of {num}/{den} "
            f"digits, past the {sys.get_int_max_str_digits()}-digit limit on printing an int"
        ) from None


def _cmd_run(args, single: bool) -> int:
    """Answer the one request among `--pay-machine`, `--audit` and the
    family's `--query-<entity>` flags.  With none, `query` exits 2 and `run`
    prints the whole global run: one line per entity of the family's first
    query kind.  Two requests, or a `--scheme` that is not a scheme of this
    `--mode`'s `--pay-machine`, exit 2 before the instance is built."""
    flags = vars(args)
    family = harness.LCMD_FAMILIES[args.family][flags.get("mode")]
    fam = FAMILIES[family]
    requests = ("query_", "pay_machine", "audit")
    asked = [name for name, v in flags.items() if v is not None and name.startswith(requests)]
    named = " and ".join("--" + name.replace("_", "-") for name in asked)
    if len(asked) > 1:
        raise ValueError(f"{args.verb} answers one request at a time, not {named}")
    scheme = flags.get("scheme")
    if scheme and asked != ["pay_machine"]:
        raise ValueError(f"--scheme goes with --pay-machine, not {named or 'a whole run'}")
    if scheme and scheme not in _PAYMENTS[args.mode]:
        raise ValueError(f"--mode {args.mode} --pay-machine takes no --scheme {scheme}")
    kind = fam.queries[0]
    if asked and asked[0].startswith("query_"):
        kind = next((q for q in fam.queries if asked[0] == f"query_{q.entity}"), None)
        if kind is None:
            raise ValueError(f"{family} has no {named}")
    elif single and not asked:
        raise ValueError(f"{args.verb} {args.family} needs --query-{kind.entity}")
    spec = _spec(args, family)
    inst = build_instance(spec)
    if asked == ["pay_machine"]:
        schemes = _PAYMENTS[args.mode]
        rec = schemes[scheme or next(iter(schemes))](inst, args.pay_machine)
        _emit({"machine": rec.machine, "payment": _payment_text(rec), "scheme": rec.scheme})
        return 0
    if asked == ["audit"]:
        violations = auctions.truthfulness_audit(inst)
        _emit({"violations": [asdict(v) for v in violations]})
        return 1 if violations else 0
    rounds = flags.get("rounds")
    if rounds is None:
        rounds = matching.default_rounds(spec.k)
    if asked:
        e = flags[asked[0]]
        counter = ProbeCounter()
        _emit({**kind.doc(e, kind.local(inst, rounds, e, counter)), "probes": counter.count})
        return 0
    _, answers = fam.run(inst, rounds)
    for e, got in enumerate(answers[0]):
        _emit(kind.doc(e, got))
    return 0


def _size(args) -> int:
    """The one of `bench`'s and `verify`'s --k and --d that the family's
    `FAMILIES` row names as its size."""
    return vars(args)[FAMILIES[harness.canonical_family(args.family)].size]


def _cmd_verify(args) -> int:
    rows = harness.verify_family(args.family, args.n, args.seeds, _size(args), args.rounds)
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
        size=_size(args),
        queries=args.queries,
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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"lcmd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
