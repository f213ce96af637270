"""Check that the benchmark's counts and answers repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs every workload twice with the same seed and compares the per-query
probe counts and the digest of every checked answer.  (lcmd-bench itself
checks in every run that LCMD_THREADS=1 and 2 give the same CSV bodies.)
Any difference, or any answer that disagrees with its reference, exits 1.
"""

from __future__ import annotations

import argparse
import sys

import workloads


def _fingerprint(tally) -> tuple:
    return tally.probes, tally.digest.hexdigest(), tally.attempted, tally.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)

    pairs = {
        name: (fn(args.seed, args.seconds), fn(args.seed, args.seconds))
        for name, fn in workloads.WORKLOADS.items()
    }
    ok = True
    for name, (a, b) in pairs.items():
        same = _fingerprint(a) == _fingerprint(b)
        clean = a.failed == 0 and b.failed == 0
        ok = ok and same and clean
        print(
            f"{name}: {len(a.probes)} queries, {a.attempted} answers; "
            f"repeat exactly: {same}; all answers match references: {clean}"
        )
        for problem in a.problems + b.problems:
            print(f"  MISMATCH {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
