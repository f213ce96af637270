"""Record the reference answers that are too slow to recompute in every run.

    python3 perfbench/record_refs.py

* auction-payments: the full `udubv_run` / `ksmb_run` outcome of each pooled
  n=4096 instance (about 5 minutes for udubv and 1.5 for ksmb per instance).
* lcmd-bench: SHA-256 of each `lcmd bench` records body and summary body,
  taken with LCMD_THREADS=1.

Both are written under perfbench/refs/.  Re-record only when the program's
answers are meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
import time

from library import REFS
from localmech import InstanceSpec, build_instance, ksmb_run, udubv_run
from workloads import AUCTION_K, AUCTION_N, AUCTION_POOL, auction_ref_path, lcmd_bench_bodies

RUNNERS = {"udubv": udubv_run, "ksmb": ksmb_run}


def record_auctions() -> None:
    for family, seed in AUCTION_POOL:
        path = auction_ref_path(family, seed)
        if path.exists():
            print(f"{path.name}: kept", flush=True)
            continue
        spec = InstanceSpec(seed=seed, family=family, n=AUCTION_N, m=AUCTION_N, k=AUCTION_K)
        t0 = time.perf_counter()
        out = RUNNERS[family](build_instance(spec))
        doc = {
            "family": family,
            "n": AUCTION_N,
            "k": AUCTION_K,
            "seed": seed,
            "answers": [[list(out.awards[b]), str(out.payments[b])] for b in range(AUCTION_N)],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"{path.name}: {time.perf_counter() - t0:.1f} s", flush=True)


def record_lcmd() -> None:
    os.environ["LCMD_THREADS"] = "1"
    bodies = lcmd_bench_bodies()
    doc = {slug: {"argv": argv, **hashes} for slug, (argv, hashes) in bodies.items()}
    path = REFS / "lcmd_bench.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: recorded", flush=True)


def main() -> int:
    REFS.mkdir(exist_ok=True)
    record_auctions()
    record_lcmd()
    return 0


if __name__ == "__main__":
    sys.exit(main())
