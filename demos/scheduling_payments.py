"""Capacity-reported load balancing: allocations, payments, and incentives.

Standard mode: machines claim slot counts, jobs pick the least-loaded of d
seeded slot draws; payments come in an exact expected form and a one-draw
unbiased form.  The utility sweep shows the reported capacity that maximizes
a machine's utility is its true one.

Restricted mode: each job carries a fixed menu of machines and the allocator
minimizes the floored post-placement load.  Raising a bid never lowers your
own height under this rule; the unfloored variant breaks that, which the
final fixture demonstrates.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from localmech.scheduling import (
    SchedulingInstance,
    greedy_unmodified,
    payment_slms_expected,
    payment_slms_sampled,
    rlms_online,
    slms_expected_utility,
    slms_online,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--m", type=int, default=600, help="number of unit jobs")
    args = ap.parse_args()

    caps = (2, 3, 5)
    inst = SchedulingInstance(caps, m=args.m, d=2, mode="standard", seed=args.seed)
    alloc = slms_online(inst)
    print(f"standard mode, capacities {caps}, {args.m} jobs, d=2 slot draws")
    for i, cap in enumerate(caps):
        share = Fraction(args.m * cap, sum(caps))
        exp = payment_slms_expected(inst, i).amount
        smp = payment_slms_sampled(inst, i).amount
        print(f"  machine {i}: height {alloc.heights[i]:>3} "
              f"(expected {float(share):6.1f})  pay ~ {float(exp):8.1f} exact, "
              f"{float(smp):8.1f} one-draw")

    print("\nutility sweep for a machine with true capacity 2 (caps (2,3), m=12):")
    for bid in range(6):
        u = slms_expected_utility((2, 3), 12, 0, bid, true_cap=2)
        marker = "  <- truth" if bid == 2 else ""
        print(f"  bid {bid}: utility {float(u):7.3f}{marker}")

    print("\nrestricted mode, floored rule is monotone in the bid:")
    # 22 single-machine jobs load the machines to heights (1, 3, 18), then
    # three jobs choose between two machines each
    menus = [(0,)] + [(1,)] * 3 + [(2,)] * 18 + [(0, 1), (1, 2), (0, 1)]
    small = SchedulingInstance((4, 8, 36), m=len(menus), d=2, mode="restricted", menus=menus)
    for bid in (8, 9):
        h = rlms_online(small, caps=(4, bid, 36)).heights
        print(f"  machine 1 bids {bid}: heights {h}")
    print("the unfloored variant is not:")
    for bid in (8, 9):
        h = greedy_unmodified(small, caps=(4, bid, 36)).heights
        print(f"  machine 1 bids {bid}: heights {h}")


if __name__ == "__main__":
    main()
