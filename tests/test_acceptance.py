"""End-to-end acceptance battery.

Each test evaluates one numbered shipping criterion at its stated tolerance,
prints a single PASS/FAIL line with the measured numbers, and appends the same
line to acceptance_report.txt in the run's temporary directory.  A passing
line must equal its copy in bench/criteria.txt, criterion 01's wall time
aside.  Criterion 11 writes its probe-growth CSVs to the temporary directory
too and checks their rows against the copies archived in bench/ (README says
how to regenerate both).  A failing criterion keeps its analysis in the
assertion message.
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from localmech import cli
from localmech.auctions import (
    ksmb_local,
    ksmb_run,
    truthfulness_audit,
    udubv_local,
    udubv_run,
    uduv_local,
    uduv_run,
)
from localmech.harness import (
    _cell,
    _digest,
    bench_points,
    bench_records_csv,
    csv_body,
    fit_polylog,
    fit_power_exponent,
    render_csv,
    SUMMARY_COLUMNS,
    summarize_bench,
    verify_family,
)
from localmech.instances import InstanceSpec, build_instance
from localmech.matching import (
    MATCHED,
    MatchingInstance,
    abridged_gs,
    global_gs,
    local_ags,
    local_ags_woman,
    matched_count,
    rounds_for_epsilon,
)
from localmech.oracles import (
    max_matching,
    max_weight_matching,
    optimal_packing,
    uniform_majorizes_nonuniform,
)
from localmech.probes import ProbeCounter
from localmech.randomness import RandomTape, derive_uniform
from localmech.rsd import HousingInstance, rsd_global, rsd_local
from localmech.scheduling import (
    SchedulingInstance,
    greedy_unmodified,
    makespan_ratio,
    rlms_local,
    rlms_online,
    rlms_utility,
    slms_expected_utility,
    slms_local,
    slms_online,
)

_BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
_REPORT: list[Path] = []  # this run's report file, set by `_fresh_report`


@pytest.fixture(scope="module", autouse=True)
def _fresh_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "acceptance_report.txt"
    path.write_text("")
    _REPORT[:] = [path]
    yield


def _unclocked(line: str) -> str:
    """A criterion line without criterion 01's wall time, the one figure that
    differs between runs."""
    return re.sub(r"\d+\.\ds of 120s budget", "N.Ns of 120s budget", line)


def _report(num: int, ok: bool, detail: str) -> str:
    """Print and log the criterion's line.  A passing line must equal the one
    recorded in bench/criteria.txt; a failing one fails its test's own
    assertion, which carries the analysis."""
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with _REPORT[0].open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    recorded = (_BENCH_DIR / "criteria.txt").read_text(encoding="utf-8").splitlines()[num - 1]
    if ok and _unclocked(line) != _unclocked(recorded):
        pytest.fail(f"criterion {num:02d} moved\nrecorded: {recorded}\nnow:      {line}")
    return line


def _rows(text: str) -> list[str]:
    """A CSV's lines without its '#' header (which holds a timestamp)."""
    return [line for line in text.splitlines() if not line.startswith("#")]


# ---------------------------------------------------------------------------
# 1. local answers reproduce the global run, every entity, every family
# ---------------------------------------------------------------------------


def test_criterion_01_local_queries_match_global_runs():
    t0 = time.time()
    mismatches = 0
    entities = 0
    for seed in range(10):
        inst = MatchingInstance.seeded(200, 3, seed)
        statuses, _ = abridged_gs(inst, 18)
        for man in range(inst.n):
            mismatches += local_ags(inst, 18, man) != statuses[man]
        man_of = {st.partner: mm for mm, st in statuses.items() if st.state == MATCHED}
        for w in range(inst.m):
            got = local_ags_woman(inst, 18, w)
            if w in man_of:
                mismatches += got.partner != man_of[w]
            else:
                mismatches += got.state == MATCHED
        entities += inst.n + inst.m

        for family, online, local in (
            ("scheduling-std", slms_online, slms_local),
            ("scheduling-res", rlms_online, rlms_local),
        ):
            sch = build_instance(InstanceSpec(seed=seed, family=family, n=256, m=256, k=2))
            alloc = online(sch, order=sch.rank_order())
            for j in range(sch.m):
                mismatches += local(sch, j) != alloc.assign[j]
            entities += sch.m

        au = build_instance(InstanceSpec(seed=seed, family="uduv", n=200, m=200, k=2))
        out = uduv_run(au)
        for b in range(au.n):
            got = uduv_local(au, ("buyer", b))
            mismatches += (got["award"], got["payment"]) != (out.awards[b], out.payments[b])
        winner_of = {jt[0]: b for b, jt in out.awards.items() if jt}
        for j in range(au.m):
            mismatches += uduv_local(au, ("item", j))["winner"] != winner_of.get(j)
        entities += au.n + au.m
        for family, runner, local in (
            ("udubv", udubv_run, udubv_local),
            ("ksmb", ksmb_run, ksmb_local),
        ):
            ai = build_instance(InstanceSpec(seed=seed, family=family, n=200, m=200, k=2))
            res = runner(ai)
            for b in range(ai.n):
                got = local(ai, b)
                mismatches += (got["award"], got["payment"]) != (res.awards[b], res.payments[b])
            entities += ai.n

        hou = HousingInstance.seeded(n=500, d=3, seed=seed)
        alloc_h = rsd_global(hou)
        for a in range(hou.n):
            mismatches += rsd_local(hou, a) != alloc_h[a]
        entities += hou.n
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 120
    line = _report(
        1,
        ok,
        f"{entities} entity queries over 7 families x 10 seeds, "
        f"{mismatches} mismatches, {elapsed:.1f}s of 120s budget",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. unmatched fraction after 2k^2 truncated rounds
# ---------------------------------------------------------------------------


def test_criterion_02_unmatched_fraction_bound():
    n = 10_000
    parts = []
    ok = True
    for k in (3, 4, 5):
        bound = 4 / k + 0.02
        good = 0
        worst = 0.0
        for seed in range(30):
            inst = MatchingInstance.seeded(n, k, seed)
            statuses, _ = abridged_gs(inst, 2 * k * k)
            frac = 1 - matched_count(statuses) / n
            worst = max(worst, frac)
            good += frac <= bound
        ok = ok and good >= 29
        parts.append(f"k={k}: {good}/30 seeds under {bound:.3f} (worst {worst:.4f})")
    line = _report(2, ok, f"n={n}, rounds=2k^2; " + "; ".join(parts))
    assert ok, line


# ---------------------------------------------------------------------------
# 3. per-round rejection bound R_i <= nk/i
# ---------------------------------------------------------------------------


def test_criterion_03_round_rejections_bounded():
    violations = 0
    rounds_seen = 0
    slack = 1.0
    for k in (2, 3, 5):
        for seed in range(10):
            inst = MatchingInstance.seeded(1000, k, seed)
            _, stats = abridged_gs(inst, 2 * k * k)
            for row in stats:
                rounds_seen += 1
                cap = 1000 * k / row.round_index
                if row.rejections > cap:
                    violations += 1
                elif cap > 0:
                    slack = min(slack, row.rejections / cap)
    ok = violations == 0
    line = _report(
        3,
        ok,
        f"{rounds_seen} rounds over k in (2,3,5) x 10 seeds at n=1000, "
        f"{violations} violations (loosest round at {slack:.2f} of the cap)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. truncation bounds: matching size floor and final-round spillover
# ---------------------------------------------------------------------------


def test_criterion_04_truncation_bounds():
    n, k = 1000, 3
    assert rounds_for_epsilon(k, 0.5) == 37 and rounds_for_epsilon(k, 0.25) == 69
    size_violations = spill_violations = 0
    worst_spill = Fraction(0)
    for seed in range(10):
        inst = MatchingInstance.seeded(n, k, seed)
        mstar = matched_count(global_gs(inst))
        _, stats = abridged_gs(inst, 69)
        for ell in sorted(set(range(1, 51)) | {37, 69}):
            row = stats[min(ell, len(stats)) - 1]
            if row.matched < mstar - n * k / ell:
                size_violations += 1
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            ell = rounds_for_epsilon(k, float(eps))
            spill = stats[ell - 1].rejected_with_remaining if ell <= len(stats) else 0
            worst_spill = max(worst_spill, Fraction(spill, mstar) / eps)
            if spill > eps * mstar:
                spill_violations += 1
    ok = size_violations == 0 and spill_violations == 0
    line = _report(
        4,
        ok,
        f"n={n}, k={k}, 10 seeds: size floor violated {size_violations}x over l=1..50+37,69; "
        f"spillover violated {spill_violations}x at l=37,69 "
        f"(worst C_l at {float(worst_spill):.3f} of its eps*M* cap)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 5. restricted-mode bid monotonicity, per step, all bid pairs
# ---------------------------------------------------------------------------


def _height_rows(alloc, n: int) -> list[tuple[int, ...]]:
    """The heights after each of the first t jobs (t = 0 … m) of a run in
    job index order, read off its assignment."""
    heights = [0] * n
    rows = [tuple(heights)]
    for machine in alloc.assign:
        heights[machine] += 1
        rows.append(tuple(heights))
    return rows


def test_criterion_05_restricted_bid_monotonicity():
    rnd = random.Random(505)
    own_violations = other_violations = 0
    pairs = 0
    for t in range(1000):
        n = rnd.randint(2, 8)
        caps = [rnd.randint(1, 6) for _ in range(n)]
        m = rnd.randint(4, 40)
        inst = SchedulingInstance(caps, m=m, d=2, mode="restricted", seed=t)
        for i in range(n):
            traces = {}
            for b in range(1, 7):
                cv = list(caps)
                cv[i] = b
                traces[b] = _height_rows(rlms_online(inst, caps=cv), n)
            for b in range(1, 7):
                for b2 in range(b + 1, 7):
                    pairs += 1
                    for low_row, high_row in zip(traces[b], traces[b2]):
                        for kk in range(n):
                            delta = high_row[kk] - low_row[kk]
                            if kk == i and delta < 0:
                                own_violations += 1
                            elif kk != i and delta > 0:
                                other_violations += 1
    ok = own_violations == 0 and other_violations == 0
    line = _report(
        5,
        ok,
        f"1000 restricted instances (n<=8, m<=40), {pairs} bid pairs b'<=6: "
        f"{own_violations} own-height drops, {other_violations} foreign-height rises",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. pinned counterexample height vectors
# ---------------------------------------------------------------------------

_GREEDY_MENUS = [(0, 3), (0, 3), (1, 3), (1, 3)] + [(2, 3)] * 6 + [(0, 1), (0, 2)]
# 22 single-machine jobs set heights (1, 3, 18) before the three that choose
_SMALL_MENUS = [(0,)] + [(1,)] * 3 + [(2,)] * 18 + [(0, 1), (1, 2), (0, 1)]


def test_criterion_06_counterexample_fixtures():
    inst = SchedulingInstance((4, 4, 8, 1), m=12, d=2, mode="restricted", menus=_GREEDY_MENUS)
    base = greedy_unmodified(inst)
    menus2 = list(_GREEDY_MENUS)
    menus2[10] = (1, 2)
    inst2 = SchedulingInstance((4, 4, 8, 1), m=12, d=2, mode="restricted", menus=menus2)
    raised = greedy_unmodified(inst2, caps=(4, 4, 9, 1))
    twelve_ok = base.heights == (3, 2, 7, 0) and raised.heights == (3, 3, 6, 0)

    small = SchedulingInstance((4, 8, 36), m=25, d=2, mode="restricted", menus=_SMALL_MENUS)
    lo = greedy_unmodified(small)
    hi = greedy_unmodified(small, caps=(4, 9, 36))
    three_ok = lo.heights == (2, 5, 18) and hi.heights == (2, 4, 19)

    ok = twelve_ok and three_ok
    line = _report(
        6,
        ok,
        f"12-job fixture {base.heights}->{raised.heights}; "
        f"25-job fixture {lo.heights}->{hi.heights}; both bit-exact: {ok}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 7. truthfulness audits
# ---------------------------------------------------------------------------


def test_criterion_07_truthfulness_audits():
    deviations = 0
    audited = 0

    rnd = random.Random(77)
    for t in range(30):
        n = rnd.randint(2, 5)
        caps = [rnd.randint(1, 6) for _ in range(n)]
        m = rnd.randint(2, 12)
        inst = SchedulingInstance(caps, m=m, d=2, mode="restricted", seed=100 + t)
        for i in range(n):
            truth = rlms_utility(inst, i, caps[i], caps[i])
            for bid in range(7):
                audited += 1
                if rlms_utility(inst, i, bid, caps[i]) > truth:
                    deviations += 1

    for seed in range(6):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=5, m=8, k=2))
        found = truthfulness_audit(inst)
        deviations += len(found)
        audited += inst.n
    for family in ("udubv", "ksmb"):
        for seed in range(6):
            inst = build_instance(InstanceSpec(seed=seed, family=family, n=5, m=6, k=2))
            found = truthfulness_audit(inst)
            deviations += len(found)
            audited += inst.n

    sweep = {b: slms_expected_utility((2, 3), 12, 0, b, true_cap=2) for b in range(9)}
    sweep_ok = sweep[2] == Fraction(39, 5) and all(v <= sweep[2] for v in sweep.values())

    ok = deviations == 0 and sweep_ok
    line = _report(
        7,
        ok,
        f"{audited} audited agents across four mechanisms, {deviations} profitable "
        f"deviations; closed-form sweep peaks at truth ({sweep_ok})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. approximation ratios against the exact oracles
# ---------------------------------------------------------------------------


def test_criterion_08_approximation_ratios():
    violations = 0
    worst: dict[str, float] = {}

    for seed in range(15):
        inst = build_instance(InstanceSpec(seed=seed, family="uduv", n=30, m=30, k=3))
        got = sum(1 for jt in uduv_run(inst).awards.values() if jt)
        best = max_matching(inst.oracle.rows, inst.m)
        violations += 2 * got < best
        worst["uduv"] = min(worst.get("uduv", 9.9), float(got / best) if best else 9.9)

        wi = build_instance(InstanceSpec(seed=seed, family="udubv", n=10, m=10, k=2))
        wout = udubv_run(wi)
        wgot = sum(wi.values[b] for b in range(wi.n) if wout.awards[b])
        weights = [
            [wi.values[b] if j in wi.oracle.rows[b] else 0 for j in range(wi.m)]
            for b in range(wi.n)
        ]
        wbest = max_weight_matching(weights)
        violations += 2 * wgot < wbest
        worst["udubv"] = min(worst.get("udubv", 9.9), float(wgot / wbest) if wbest else 9.9)

        for k in (2, 3):
            ki = build_instance(InstanceSpec(seed=seed, family="ksmb", n=14, m=14, k=k))
            kout = ksmb_run(ki)
            kgot = sum(ki.values[b] for b in range(ki.n) if kout.awards[b])
            kbest = optimal_packing(ki.oracle.rows, ki.values)
            violations += k * kgot < kbest
            worst[f"ksmb k={k}"] = min(
                worst.get(f"ksmb k={k}", 9.9), float(kgot / kbest) if kbest else 9.9
            )

    big = build_instance(InstanceSpec(seed=0, family="uduv", n=2000, m=2000, k=3))
    big_frac = sum(1 for jt in uduv_run(big).awards.values() if jt) / big.n
    bigw = build_instance(InstanceSpec(seed=0, family="ksmb", n=1000, m=1000, k=3))
    bigw_out = ksmb_run(bigw)
    bigw_frac = sum(1 for b in range(bigw.n) if bigw_out.awards[b]) / bigw.n

    ok = violations == 0
    ratios = ", ".join(f"{name} {r:.2f}" for name, r in sorted(worst.items()))
    line = _report(
        8,
        ok,
        f"{violations} ratio violations over 15 oracle-checked seeds (worst ratios: {ratios}); "
        f"sampled n=2000 uduv serves {big_frac:.2f}, n=1000 ksmb serves {bigw_frac:.2f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. makespan quality
# ---------------------------------------------------------------------------


def test_criterion_09_makespan_quality():
    parts = []
    ok = True
    for n in (2**10, 2**12, 2**14):
        bound = 1 + 2 * math.log(math.log(n)) / math.log(2) + 4
        good = 0
        peak = 0
        for seed in range(30):
            inst = SchedulingInstance((1,) * n, m=n, d=2, mode="standard", seed=seed)
            h = max(slms_online(inst).heights)
            peak = max(peak, h)
            good += h <= bound
        ok = ok and good >= 29
        parts.append(f"n=m={n}: {good}/30 under {bound:.2f} (peak {peak})")

    ratios = []
    for n in (2**8, 2**10, 2**12):
        per_seed = []
        for seed in range(3):
            tape = RandomTape(seed)
            hi = max(1, n.bit_length() - 1)
            caps = [1 + derive_uniform(tape, ("cap", i), hi) for i in range(n)]
            inst = SchedulingInstance(caps, m=sum(caps), d=2, mode="restricted", seed=seed)
            per_seed.append(float(makespan_ratio(inst)))
        ratios.append((n, sum(per_seed) / len(per_seed)))
    c_fit = sum(r / math.log(math.log(n)) for n, r in ratios) / len(ratios)
    info = ", ".join(f"n={n}: {r:.2f}" for n, r in ratios)

    line = _report(
        9,
        ok,
        "; ".join(parts) + f"; nonuniform ratio vs optimal (informational): {info}, "
        f"fitted c for c*lnln n = {c_fit:.2f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 10. paired majorization coupling
# ---------------------------------------------------------------------------


def test_criterion_10_majorization_coupling():
    results = []
    ok = True
    first_witness = None
    for caps in ((2, 3), (1, 1, 4), (4, 8, 36)):
        good, witness = uniform_majorizes_nonuniform(caps, m=2 * sum(caps), trials=10_000)
        results.append(f"{caps}: {'clean' if good else 'violated'}")
        ok = ok and good
        if witness and first_witness is None:
            first_witness = witness
    line = _report(
        10,
        ok,
        "10^4 paired trials per profile, m=2C - " + "; ".join(results)
        + (f"; first witness: {first_witness}" if first_witness else ""),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 11. probe growth across the n-grid
# ---------------------------------------------------------------------------


def test_criterion_11_probe_growth(tmp_path):
    full = [(2**e, 20, 100) for e in (8, 10, 12, 14)]
    runs = {
        "scheduling-d2": ("scheduling", 2, True),
        "rsd-d2": ("rsd", 2, True),
        "auction-uduv-k2": ("auction", 2, True),
        "matching-k3-l18": ("matching", 3, True),
        "matching-k1-l2": ("matching", 1, False),
    }
    parts = []
    ok = True
    summary = []
    for slug, (family, size, required) in runs.items():
        records = bench_points(family, full, size)
        (tmp_path / f"criterion11_{slug}.csv").write_text(bench_records_csv(records))
        # one summary per run: matching k=1 and k=3 share family and n
        summary.extend((slug, *row[1:]) for row in summarize_bench(records))
        by_n: dict[int, list[int]] = {}
        for r in records:
            by_n.setdefault(r.n, []).append(r.probes)
        ns = sorted(by_n)
        maxima = [max(by_n[n]) for n in ns]
        power = fit_power_exponent(ns, maxima)
        _, p = fit_polylog(ns, maxima)
        good = power < 0.15 and p <= 4
        if required:
            ok = ok and good
        parts.append(
            f"{slug}: maxima {maxima}, power {power:.3f}, polylog p {p:.2f} "
            f"[{'ok' if good else 'over'}{'' if required else ', informational'}]"
        )
    (tmp_path / "criterion11_summary.csv").write_text(
        render_csv(("run", *SUMMARY_COLUMNS[1:]), summary)
    )
    # every probe count and digest must match the archived rows
    stale = [
        path.name
        for path in sorted(tmp_path.glob("criterion11_*.csv"))
        if _rows(path.read_text()) != _rows((_BENCH_DIR / path.name).read_text())
    ]
    parts.append(f"rows differing from bench/: {', '.join(stale) or 'none'}")
    line = _report(11, ok and not stale, "; ".join(parts))
    assert ok and not stale, f"{line} (regenerated files in {tmp_path})"


# ---------------------------------------------------------------------------
# 12. rerun determinism
# ---------------------------------------------------------------------------


def test_criterion_12_rerun_determinism(tmp_path):
    v1 = verify_family("matching", ns=[60], seeds=2, size=2)
    v2 = verify_family("matching", ns=[60], seeds=2, size=2)
    verify_same = v1 == v2

    argv = ["bench", "rsd", "--n", "64,128", "--seeds", "3", "--queries", "10", "--d", "2"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(f1)]) == 0
    assert cli.main(argv + ["--out", str(f2)]) == 0
    text1, text2 = f1.read_text(), f2.read_text()
    bench_same = csv_body(text1) == csv_body(text2)
    commented = text1.splitlines()[0].startswith("#") and text2.splitlines()[0].startswith("#")

    # the same cells, each answered in reversed and in shuffled query order
    # on one instance object
    records = bench_points("rsd", [(64, 3, 10), (128, 3, 10)], size=2)
    cells: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for r in records:
        cells.setdefault((r.n, r.seed), []).append((r.query, r.probes, r.digest))
    rng = random.Random(12)
    order_same = True
    for (n, seed), want in cells.items():
        fam, inst, budget = _cell("housing", n, seed, 2, None)
        kind = fam.queries[0]
        queries = [q for q, _, _ in want]
        for order in (queries[::-1], rng.sample(queries, len(queries))):
            got = []
            for q in order:
                counter = ProbeCounter()
                canon = kind.canon(kind.local(inst, budget, q, counter))
                got.append((q, counter.count, _digest(canon)))
            order_same = order_same and sorted(got) == want

    ok = verify_same and bench_same and order_same and commented
    line = _report(
        12,
        ok,
        f"verify rows identical across reruns: {verify_same}; bench bodies identical "
        f"across reruns: {bench_same}; (query, probes, digest) rows identical in "
        f"reversed and shuffled query order: {order_same}; timing isolated to '#' "
        f"header: {commented}",
    )
    assert ok, line
