"""Serial dictatorship over houses, answered one agent at a time.

Agents draw seeded lottery numbers and take turns grabbing their favourite
still-available listed house.  The local query settles only the earlier
arrivals who (transitively) share a listed house, so most answers touch a
tiny fraction of the instance.
"""

from __future__ import annotations

import argparse

from localmech.probes import ProbeCounter
from localmech.randomness import derive_uniform
from localmech.rsd import HousingInstance, rsd_global, rsd_local


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    inst = HousingInstance.seeded(n=args.n, d=args.d, seed=args.seed)
    alloc = rsd_global(inst)
    housed = sum(1 for h in alloc.values() if h is not None)
    order = inst.order
    print(f"{args.n} agents, lists of {args.d}, seed {args.seed}: {housed} housed")
    first, last = order[0], order[-1]
    rank = 1 + derive_uniform(inst.tape, ("lottery", first), args.n**4)
    print(f"first arrival is agent {first} (rank {rank}), "
          f"takes top choice {inst.lists[first][0]}")

    print("\nlocal queries across the arrival order:")
    probes_total = 0
    for a in (order[0], order[len(order) // 2], order[-1]):
        counter = ProbeCounter()
        h = rsd_local(inst, a, counter)
        probes_total += counter.count
        print(f"  agent {a:>5} (arrival #{inst.place[a] + 1:>5}): house "
              f"{h if h is not None else '-':>5}  in {counter.count} probes")
    print(f"(the whole instance holds {inst.n + inst.m} records; "
          f"these three queries read {probes_total})")

    mismatches = sum(1 for a in range(inst.n) if rsd_local(inst, a) != alloc[a])
    print(f"local answers agree with the global run for all agents: "
          f"{mismatches == 0} ({mismatches} mismatches)")


if __name__ == "__main__":
    main()
