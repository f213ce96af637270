"""localmech: per-query (local) implementations of matching, scheduling,
auction and house-allocation mechanisms, instrumented to count oracle probes,
with exact reference solvers and a reproducible experiment harness.

Every mechanism has a global runner and a local query path that answers for
one entity while touching only the records its answer depends on; the two
agree exactly, and all randomness is derived from keyed hashes of a single
integer seed, so any entity's answer is reproducible in isolation.
"""

from __future__ import annotations

from .auctions import (
    AuctionInstance,
    Outcome,
    Violation,
    ksmb_local,
    ksmb_run,
    truthfulness_audit,
    udubv_local,
    udubv_run,
    uduv_local,
    uduv_run,
)
from .harness import (
    BenchRecord,
    ExperimentConfig,
    bench_family,
    bench_points,
    fit_polylog,
    fit_power_exponent,
    summarize_bench,
    verify_family,
)
from .instances import FAMILIES, InstanceSpec, build_instance, spec_from_json, spec_to_json
from .matching import (
    DISQUALIFIED,
    MATCHED,
    UNMATCHED,
    ManStatus,
    MatchingInstance,
    RoundStats,
    abridged_gs,
    blocking_pairs,
    global_gs,
    local_ags,
    local_ags_woman,
    matched_count,
    rounds_for_epsilon,
)
from .oracles import (
    majorizes,
    max_matching,
    max_weight_matching,
    optimal_makespan,
    optimal_packing,
    slot_load_vector,
    uniform_majorizes_nonuniform,
)
from .probes import LEFT, RIGHT, AdjacencyOracle, MemoView, ProbeCounter, neighborhood
from .randomness import RandomTape, derive_uniform, sample_without_replacement
from .rsd import HousingInstance, rsd_global, rsd_local
from .scheduling import (
    Allocation,
    PaymentRecord,
    SchedulingInstance,
    expected_height,
    greedy_unmodified,
    makespan_ratio,
    monotonicity_trace,
    payment_rlms,
    payment_rlms_for_bid,
    payment_slms_expected,
    payment_slms_sampled,
    rerun_height,
    rlms_local,
    rlms_online,
    rlms_utility,
    slms_expected_utility,
    slms_local,
    slms_online,
)

__version__ = "0.1.0"
