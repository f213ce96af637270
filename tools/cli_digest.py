"""One sha256 per `lcmd` output and demo stdout, for byte-identity checks.

Runs a fixed command list in-process through `localmech.cli.main` (bench
and verify of every family at small n; auction run, query and --audit;
scheduling --pay-machine in both modes), then each demo as a subprocess.
`#` comment lines (timestamps, wall times) are stripped by
`harness.csv_body` before hashing, so two trees that print the same
answers print the same digests:

    python3 tools/cli_digest.py > before.txt   # in one checkout
    python3 tools/cli_digest.py > after.txt    # in the other
    diff before.txt after.txt

Stdlib only; it reads the package from the `src/` beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from localmech import cli  # noqa: E402
from localmech.harness import csv_body  # noqa: E402

FAMILIES = ("matching", "scheduling-std", "scheduling-res", "uduv", "udubv", "ksmb", "housing")
AUCTION = ["--seed", "3", "--n", "6", "--m", "6", "--k", "2"]

COMMANDS: list[list[str]] = []
for family in FAMILIES:
    COMMANDS.append(["bench", family, "--n", "32,64", "--seeds", "2", "--queries", "16"])
    COMMANDS.append(["verify", family, "--n", "32", "--seeds", "2"])
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


def main() -> int:
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        print(f"{_digest(out.getvalue())}  exit={code}  lcmd {' '.join(argv)}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for demo, args in DEMOS.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / demo), *args],
            capture_output=True, text=True, env=env, timeout=600,
        )
        print(f"{_digest(proc.stdout)}  exit={proc.returncode}  demos/{demo} {' '.join(args)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
