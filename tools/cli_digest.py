"""One sha256 per `lcmd` output and demo stdout, for byte-identity checks.

Runs a fixed command list in-process through `localmech.cli.main` (bench
and verify of every family at small n, once at the default --k/--d and
once at --k 2 --d 3, so the bench digests pin the one flag each family
reads (verify prints only counts, which these sizes leave alone); auction
run, query and --audit; scheduling --pay-machine in both modes; a
standard-mode job query on a 2^20-slot pool and a restricted-mode one on a
10^12-slot pool; the whole printed run, one
line per entity, of each auction mode, of matching, truncated and not, of
both scheduling modes and of rsd), then each refused `--config` file of
`CONFIGS`, written to a temporary directory (its stdout and stderr are
hashed together, so the line pins the refusal's message), then the
overlaid auction queries
in-process (no `lcmd` command asks one outside `--audit`, which prints only
violations), then each demo as a subprocess.
`#` comment lines (timestamps, wall times) are stripped by
`harness.csv_body` before hashing, so two trees that print the same
answers print the same digests:

    python3 tools/cli_digest.py > before.txt   # in one checkout
    python3 tools/cli_digest.py > after.txt    # in the other
    diff before.txt after.txt

`tests/golden/cli_digest.txt` holds the output of the current tree, and
`tests/test_golden.py` checks it through `digest_lines`.  A change that
moves a line regenerates the file with

    python3 tools/cli_digest.py > tests/golden/cli_digest.txt

and says which lines moved and why.

Stdlib only; it reads the package from the `src/` beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from localmech import cli  # noqa: E402
from localmech.auctions import ksmb_local, udubv_local, uduv_local  # noqa: E402
from localmech.harness import csv_body  # noqa: E402
from localmech.instances import InstanceSpec, build_instance  # noqa: E402
from localmech.probes import ProbeCounter  # noqa: E402

FAMILIES = ("matching", "scheduling-std", "scheduling-res", "uduv", "udubv", "ksmb", "housing")
AUCTION = ["--seed", "3", "--n", "6", "--m", "6", "--k", "2"]

COMMANDS: list[list[str]] = []
for family in FAMILIES:
    for sizes in ([], ["--k", "2", "--d", "3"]):
        COMMANDS.append(
            ["bench", family, "--n", "32,64", "--seeds", "2", "--queries", "16", *sizes]
        )
        COMMANDS.append(["verify", family, "--n", "32", "--seeds", "2", *sizes])
for mode in ("uduv", "udubv", "ksmb"):
    base = ["auction", "--mode", mode, *AUCTION]
    COMMANDS.append(["run", *base])
    COMMANDS.append(["run", *base, "--audit"])
    for b in range(6):
        COMMANDS.append(["query", *base, "--query-buyer", str(b)])
for j in range(6):
    COMMANDS.append(["query", "auction", "--mode", "uduv", *AUCTION, "--query-item", str(j)])
for scheme in ("expected", "sampled"):
    for i in range(3):
        COMMANDS.append(
            ["query", "scheduling", "--mode", "std", "--bids", "2,1,3", "--m", "8",
             "--pay-machine", str(i), "--scheme", scheme]
        )
for i in range(3):
    COMMANDS.append(
        ["query", "scheduling", "--mode", "res", "--bids", "2,1,3", "--m", "8", "--pay-machine", str(i)]
    )
# a standard-mode query on the largest slot pool a spec allows (2^20 slots)
COMMANDS.append(
    ["query", "scheduling", "--mode", "std", "--bids", "524288,524288", "--m", "8", "--query-job", "3"]
)
# a restricted-mode query on a pool far past 2^20 slots, whose menu draws
# are bisected to machines without a per-slot table
COMMANDS.append(
    ["query", "scheduling", "--mode", "res", "--bids", "1000000000000,1", "--m", "4", "--query-job", "0"]
)
# the other families' printed global run: matching truncated (9 men disqualified)
# and run to quiescence (5 unmatched), both scheduling modes, rsd
for rounds in (["--rounds", "2"], []):
    COMMANDS.append(["run", "matching", "--seed", "2", "--n", "40", "--k", "3", *rounds])
for mode in ("std", "res"):
    COMMANDS.append(["run", "scheduling", "--mode", mode, "--seed", "2", "--n", "8", "--m", "40"])
COMMANDS.append(["run", "rsd", "--seed", "2", "--n", "40", "--d", "3"])

# file name -> (verb, spec) of a --config file the build refuses: agent 1's
# list names house 0 twice, so `lcmd` exits 2 with the oracle's message; then
# one file per row-taking family whose row 1 holds more ids than its size,
# so `lcmd` exits 2 with the spec's one width message
CONFIGS = {
    "repeated-house.json": (
        ["run", "rsd"],
        {"family": "housing", "seed": 0, "n": 2, "m": 2, "d": 2, "explicit_edges": [[1], [0, 0]]},
    ),
}
for family, verb, size in (
    ("matching", ["matching"], "k"),
    ("scheduling-res", ["scheduling", "--mode", "res"], "d"),
    ("uduv", ["auction", "--mode", "uduv"], "k"),
    ("udubv", ["auction", "--mode", "udubv"], "k"),
    ("ksmb", ["auction", "--mode", "ksmb"], "k"),
    ("housing", ["rsd"], "d"),
):
    CONFIGS[f"wide-{family}-row.json"] = (
        ["run", *verb],
        {"family": family, "seed": 0, "n": 2, "m": 2, size: 1, "explicit_edges": [[1], [0, 1]]},
    )

# each demo with the small arguments tests/test_demos.py runs it with
DEMOS = {
    "auctions_demo.py": ["--n", "8"],
    "load_majorization.py": ["--trials", "50"],
    "matching_truncation.py": ["--n", "60"],
    "rsd_lottery.py": ["--n", "100"],
    "scheduling_payments.py": ["--m", "60"],
}


def _digest(text: str) -> str:
    return hashlib.sha256(csv_body(text).encode()).hexdigest()


# mode -> local query of a ("buyer", b) or ("item", j) pair under an overlay
OVERLAID = {
    "uduv": uduv_local,
    "udubv": lambda inst, q, c, ov: udubv_local(inst, q[1], c, ov),
    "ksmb": lambda inst, q, c, ov: ksmb_local(inst, q[1], c, ov),
}
SEVERAL = range(0, 64, 7)  # the reporters of the several-reporter overlay


def _overlay(inst, reporters) -> dict:
    """A fixed report of each reporter b: uduv buyers shift their set by one
    item; udubv and ksmb buyers bid their own bid, 0, half or double it."""
    if inst.mode == "uduv":
        return {b: [(j + 1) % inst.m for j in inst.sets[b]] for b in reporters}
    v = inst.values
    return {b: (v[b], 0, v[b] // 2, 2 * v[b])[b % 4] for b in reporters}


def overlaid_lines() -> list[str]:
    """One digest per auction mode, overlay and query kind on a seeded
    n = m = 64 instance: every answer and its probe count, under the
    overlay where the queried entity (buyer b, or buyer j for item j) is the
    only reporter, and under the several-reporter overlay."""
    lines = []
    for mode, local in OVERLAID.items():
        inst = build_instance(InstanceSpec(seed=5, family=mode, n=64, m=64, k=3))
        kinds = ("buyer", "item") if mode == "uduv" else ("buyer",)
        for name in ("one-reporter", "several-reporters"):
            for kind in kinds:
                rows = []
                for e in range(64):
                    overlay = _overlay(inst, (e,) if name == "one-reporter" else SEVERAL)
                    counter = ProbeCounter()
                    got = local(inst, (kind, e), counter, overlay)
                    rows.append(f"{json.dumps(got, default=str, sort_keys=True)} {counter.count}\n")
                lines.append(f"{_digest(''.join(rows))}  overlaid {mode} {kind} queries, {name}")
    return lines


def digest_lines() -> Iterator[str]:
    """Each digest line, in the order `main` prints them."""
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        yield f"{_digest(out.getvalue())}  exit={code}  lcmd {' '.join(argv)}"
    with tempfile.TemporaryDirectory() as tmp:
        for name, (verb, doc) in CONFIGS.items():
            path = Path(tmp) / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main([*verb, "--config", str(path)])
            yield f"{_digest(out.getvalue())}  exit={code}  lcmd {' '.join(verb)} --config {name}"
    yield from overlaid_lines()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for demo, args in DEMOS.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / demo), *args],
            capture_output=True, text=True, env=env, timeout=600,
        )
        yield f"{_digest(proc.stdout)}  exit={proc.returncode}  demos/{demo} {' '.join(args)}"


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
