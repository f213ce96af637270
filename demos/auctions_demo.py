"""Greedy auctions with critical payments, in all three flavors.

Uniform-value (every item worth 1, winners pay 1/2), bid-ordered unit-demand
(winners pay the bid that would have taken their item), and whole-set bidding
with sets of up to k items.  A bisection probe confirms the payment really is
the win/lose threshold, and the deviation audit comes back empty.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from localmech.auctions import (
    ksmb_run,
    truthfulness_audit,
    udubv_local,
    udubv_run,
    uduv_run,
)
from localmech.instances import InstanceSpec, build_instance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--n", type=int, default=8)
    args = ap.parse_args()

    uv = build_instance(InstanceSpec(seed=args.seed, family="uduv", n=args.n, m=args.n, k=2))
    out = uduv_run(uv)
    served = [b for b in range(uv.n) if out.awards[b]]
    print(f"uniform-value: {len(served)}/{uv.n} buyers served, each pays 1/2")

    bv = build_instance(InstanceSpec(seed=args.seed, family="udubv", n=args.n, m=args.n, k=2))
    bout = udubv_run(bv)
    # a buyer's critical bid does not depend on her own bid, so her local
    # payment at a bid above every value is her threshold, winner or loser
    top = max(bv.values) + 1
    print("\nbid-ordered unit-demand (value, award, critical payment):")
    for b in range(bv.n):
        award = f"item {bout.awards[b][0]}" if bout.awards[b] else "-"
        pay = udubv_local(bv, b, overlay={b: top})["payment"]
        print(f"  buyer {b}: bids {str(bv.values[b]):>7} -> {award:<8} threshold {pay}")

    eps = Fraction(1, 1000)
    winner = next(b for b in range(bv.n) if bout.awards[b])
    p = bout.payments[winner]
    # the served query answers the re-bid as the run of the re-bid instance
    above = udubv_local(bv, winner, overlay={winner: p + eps})["award"]
    below = (
        not udubv_local(bv, winner, overlay={winner: p - eps})["award"]
        if p > 0
        else True
    )
    print(f"buyer {winner} re-bid at threshold +/- 1/1000: wins above={bool(above)}, "
          f"loses below={below}")

    km = build_instance(InstanceSpec(seed=args.seed, family="ksmb", n=args.n, m=args.n, k=3))
    kout = ksmb_run(km)
    print("\nwhole-set bidding (k=3):")
    for b in range(km.n):
        if kout.awards[b]:
            print(f"  buyer {b}: wins {kout.awards[b]} at {km.values[b]}, pays {kout.payments[b]}")

    bad = truthfulness_audit(bv) + truthfulness_audit(km)
    print(f"\ndeviation audit over both bid-driven mechanisms: {len(bad)} profitable lies")


if __name__ == "__main__":
    main()
