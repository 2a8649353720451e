"""Perf-regression benchmark for the online AQP serving layer.

Times incremental append (dirty-sub-tree re-thresholding) against a
from-scratch rebuild on both maintenance tiers, batched query
throughput against a store holding millions of keys, and the cost of
one reconstruction-cache miss as the synopsis grows, writing
``BENCH_serving.json`` at the repo root — the baseline future PRs diff
their numbers against.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --quick --check

Every append pair asserts digest equality between the incremental and
scratch stores before any timing is reported — a benchmark run is also
a differential correctness check.  ``--quick`` runs the small grid and
exits non-zero unless the greedy tier's incremental append beats the
scratch rebuild by at least 10x (the serving layer's contract), the DP
tier shows a clear win, warm batched queries clear an absolute
throughput floor, and a cache miss on the largest synopsis of the miss
grid costs at most 2x a miss on the smallest (a miss reads
``log2(segment)`` slices of the synopsis's index array, not all ``B``
coefficients).  ``--check`` compares each speedup/qps/miss-cost *ratio*
against the committed baseline — ratios transfer across hosts, absolute
seconds do not.  The full run demonstrates the 10x contract at
``N = 2^20``.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.serving import Query, ShardedSynopsisStore, reconstruct_segment
from repro.wavelet.synopsis import WaveletSynopsis

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serving.json"

#: Hard floor on the greedy tier's incremental-vs-scratch speedup, both
#: grids (the full grid runs it at N = 2^20; measured ~300x, so 10x
#: failing means incremental maintenance broke).
GREEDY_SPEEDUP_FLOOR = 10.0

#: Hard floor on the DP tier's speedup in --quick (tiny N leaves less
#: room; the full grid's N = 2^14 runs ~25x).
QUICK_DP_SPEEDUP_FLOOR = 2.0

#: Hard floor on warm batched point-query throughput (measured ~3e4/s
#: on one core; below this the reconstruction cache stopped working).
WARM_QPS_FLOOR = 1000.0

#: --check fails when a speedup or qps drops below baseline/this factor.
CHECK_REGRESSION_FACTOR = 2.0

#: Append-speedup grid: (label, tier, n, block, appends, append_size,
#: tier_kwargs).  ``block`` is base_leaves (greedy) / subtree_leaves
#: (dp).  Quick rows are the CI smoke; full rows are the contract.
APPEND_GRID = [
    ("greedy-quick", "greedy", 1 << 16, 256, 3, 256, {"budget": 1024}),
    ("dp-quick", "dp", 1 << 12, 128, 2, 128, {"epsilon": 5.0}),
    ("greedy-full", "greedy", 1 << 20, 1024, 3, 1024, {"budget": 4096}),
    ("dp-full", "dp", 1 << 14, 256, 3, 256, {"epsilon": 5.0}),
]

#: Query-throughput grid: (label, series count, keys per series).
QUERY_GRID = [
    ("queries-quick", 2, 1 << 14),
    ("queries-full", 2, 1 << 20),
]

#: Cache-miss grid (both modes): ``reconstruct_segment`` on synthetic
#: synopses of N = 2^20 leaves with B uniformly placed coefficients,
#: timed over the same MISS_SEGMENTS 1024-leaf segments per B.
MISS_N = 1 << 20
MISS_SEGMENT_LEAVES = 1024
MISS_BUDGETS = (256, 4096, 65536)
MISS_SEGMENTS = 64
MISS_REPS = 7

#: Hard ceiling on the largest-B miss cost over the smallest-B one: a
#: miss must not walk all B coefficients (a per-coefficient walk runs
#: >100x at B = 65536 against B = 256).
MISS_FLAT_FACTOR = 2.0


def _make_store(tier, n, block, kwargs, data, seed):
    store = ShardedSynopsisStore(shards=4)
    if tier == "greedy":
        store.create("bench", data, tier="greedy", base_leaves=block, **kwargs)
    else:
        store.create("bench", data, tier="dp", subtree_leaves=block, **kwargs)
    return store


def bench_append(label, tier, n, block, appends, append_size, kwargs, seed):
    """Incremental vs scratch append; asserts digest equality per step."""
    rng = np.random.default_rng(seed)
    initial = rng.normal(100.0, 25.0, n - appends * append_size)
    blocks = [rng.normal(100.0, 25.0, append_size) for _ in range(appends)]

    incremental = _make_store(tier, n, block, kwargs, initial, seed)
    scratch = _make_store(tier, n, block, kwargs, initial, seed)

    inc_seconds = 0.0
    scr_seconds = 0.0
    for fresh in blocks:
        t0 = time.perf_counter()
        inc_version = incremental.append("bench", fresh)
        inc_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        scr_version = scratch.append("bench", fresh, full_rebuild=True)
        scr_seconds += time.perf_counter() - t0
        if inc_version.digest != scr_version.digest:
            raise AssertionError(
                f"{label}: incremental and scratch synopses diverged at "
                f"version {inc_version.version}"
            )
    last = incremental.snapshot("bench")
    return {
        "label": label,
        "tier": tier,
        "n": n,
        "appends": appends,
        "append_size": append_size,
        "incremental_seconds": inc_seconds,
        "scratch_seconds": scr_seconds,
        "speedup": scr_seconds / max(inc_seconds, 1e-12),
        "reused_subtrees": last.stats.reused_subtrees,
        "total_subtrees": last.stats.total_subtrees,
        "digests_equal": True,
    }


def bench_queries(label, n_series, n, seed, batch_size=256, batches=40):
    """Batched point/range throughput against a populated store."""
    rng = np.random.default_rng(seed)
    store = ShardedSynopsisStore(shards=4, cache_entries=512, segment_leaves=1024)
    names = [f"series{i}" for i in range(n_series)]
    for name in names:
        store.create(
            name,
            rng.normal(100.0, 25.0, n),
            tier="greedy",
            budget=max(64, n // 256),
            base_leaves=min(1024, n // 4),
        )

    def run_batches():
        answered = 0
        t0 = time.perf_counter()
        for b in range(batches):
            queries = []
            for q in range(batch_size):
                name = names[(b + q) % n_series]
                index = int(rng.integers(0, n))
                if q % 8 == 7:
                    lo = index - index % 64
                    queries.append(
                        Query("range_sum", name, lo=lo, hi=min(lo + 63, n - 1))
                    )
                else:
                    queries.append(Query("point", name, index=index))
            answered += len(store.batch(queries))
        return answered / (time.perf_counter() - t0)

    cold_qps = run_batches()
    warm_qps = run_batches()
    counters = store.counters()
    return {
        "label": label,
        "series": n_series,
        "keys": n_series * n,
        "batch_size": batch_size,
        "batches": batches,
        "cold_qps": cold_qps,
        "warm_qps": warm_qps,
        "cache_hits": counters["cache_hits"],
        "cache_misses": counters["cache_misses"],
        "cache_evictions": counters["cache_evictions"],
    }


def bench_misses(seed):
    """Seconds per cache miss for each B, min over interleaved reps."""
    rng = np.random.default_rng(seed)
    synopses = {}
    for budget in MISS_BUDGETS:
        nodes = rng.choice(MISS_N, size=budget, replace=False).tolist()
        values = rng.normal(0.0, 50.0, budget).tolist()
        synopses[budget] = WaveletSynopsis(MISS_N, dict(zip(nodes, values)))
    segments = MISS_N // MISS_SEGMENT_LEAVES
    starts = (
        rng.choice(segments, size=MISS_SEGMENTS, replace=False) * MISS_SEGMENT_LEAVES
    ).tolist()
    best = dict.fromkeys(MISS_BUDGETS, float("inf"))
    for _ in range(MISS_REPS):
        # One pass over every B per rep, so host drift hits all rows alike.
        for budget, synopsis in synopses.items():
            t0 = time.perf_counter()
            for start in starts:
                reconstruct_segment(synopsis, start, MISS_SEGMENT_LEAVES)
            per_miss = (time.perf_counter() - t0) / len(starts)
            best[budget] = min(best[budget], per_miss)
    smallest = best[MISS_BUDGETS[0]]
    return [
        {
            "label": f"miss-B{budget}",
            "n": MISS_N,
            "segment_leaves": MISS_SEGMENT_LEAVES,
            "budget": budget,
            "segments": MISS_SEGMENTS,
            "reps": MISS_REPS,
            "seconds_per_miss": best[budget],
            "vs_smallest_budget": best[budget] / smallest,
        }
        for budget in MISS_BUDGETS
    ]


def print_append_rows(rows):
    header = (
        f"{'label':>14}{'N':>10}{'incr s':>10}{'scratch s':>11}"
        f"{'speedup':>10}{'reused':>12}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['label']:>14}{r['n']:>10}{r['incremental_seconds']:>10.4f}"
            f"{r['scratch_seconds']:>11.4f}{r['speedup']:>9.1f}x"
            f"{r['reused_subtrees']:>6}/{r['total_subtrees']}"
        )


def print_query_rows(rows):
    for r in rows:
        print(
            f"{r['label']}: {r['keys']} keys, cold {r['cold_qps']:.0f} q/s, "
            f"warm {r['warm_qps']:.0f} q/s "
            f"(hits {r['cache_hits']}, misses {r['cache_misses']})"
        )


def print_miss_rows(rows):
    for r in rows:
        print(
            f"{r['label']}: N={r['n']}, {r['segment_leaves']}-leaf segments, "
            f"{r['seconds_per_miss'] * 1e6:.1f} us/miss "
            f"({r['vs_smallest_budget']:.2f}x the B={MISS_BUDGETS[0]} miss)"
        )


def hard_gates(append_rows, query_rows, miss_rows):
    """Floors that hold regardless of baseline; returns failure strings."""
    failures = []
    for r in miss_rows:
        if r["vs_smallest_budget"] > MISS_FLAT_FACTOR:
            failures.append(
                f"{r['label']}: a miss costs {r['vs_smallest_budget']:.1f}x the "
                f"B={MISS_BUDGETS[0]} miss, above the {MISS_FLAT_FACTOR:.0f}x ceiling"
            )
    for r in append_rows:
        floor = (
            GREEDY_SPEEDUP_FLOOR if r["tier"] == "greedy" else QUICK_DP_SPEEDUP_FLOOR
        )
        if r["label"] == "dp-full":
            floor = GREEDY_SPEEDUP_FLOOR
        if r["speedup"] < floor:
            failures.append(
                f"{r['label']}: incremental append speedup {r['speedup']:.1f}x "
                f"is below the {floor:.0f}x floor"
            )
    for r in query_rows:
        if r["warm_qps"] < WARM_QPS_FLOOR:
            failures.append(
                f"{r['label']}: warm throughput {r['warm_qps']:.0f} q/s is "
                f"below the {WARM_QPS_FLOOR:.0f} q/s floor"
            )
        if r["cache_hits"] == 0:
            failures.append(f"{r['label']}: reconstruction cache never hit")
    return failures


def check_against_baseline(append_rows, query_rows, miss_rows, baseline_path):
    if not baseline_path.exists():
        print(f"FAIL: baseline {baseline_path} not found", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    if "misses" not in baseline["results"]:
        print(f"FAIL: baseline {baseline_path} has no miss rows", file=sys.stderr)
        return 1
    by_label = {r["label"]: r for r in baseline["results"]["append"]}
    by_label.update({r["label"]: r for r in baseline["results"]["queries"]})
    by_label.update({r["label"]: r for r in baseline["results"]["misses"]})
    failures = []
    for r in miss_rows:
        base = by_label.get(r["label"])
        if base is None:
            continue
        ceiling = base["vs_smallest_budget"] * CHECK_REGRESSION_FACTOR
        if r["vs_smallest_budget"] > ceiling:
            failures.append(
                f"{r['label']}: miss cost {r['vs_smallest_budget']:.2f}x the smallest "
                f"B is more than {CHECK_REGRESSION_FACTOR}x the baseline "
                f"{base['vs_smallest_budget']:.2f}x"
            )
    for r in append_rows:
        base = by_label.get(r["label"])
        if base is None:
            continue
        floor = base["speedup"] / CHECK_REGRESSION_FACTOR
        if r["speedup"] < floor:
            failures.append(
                f"{r['label']}: speedup {r['speedup']:.1f}x is more than "
                f"{CHECK_REGRESSION_FACTOR}x below the baseline {base['speedup']:.1f}x"
            )
    for r in query_rows:
        base = by_label.get(r["label"])
        if base is None:
            continue
        floor = base["warm_qps"] / CHECK_REGRESSION_FACTOR
        if r["warm_qps"] < floor:
            failures.append(
                f"{r['label']}: warm {r['warm_qps']:.0f} q/s is more than "
                f"{CHECK_REGRESSION_FACTOR}x below the baseline "
                f"{base['warm_qps']:.0f} q/s"
            )
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"check OK: serving speedups, throughput and miss costs within "
        f"{CHECK_REGRESSION_FACTOR}x of {baseline_path.name}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: small grid with hard floors (10x greedy "
        "incremental speedup, warm qps floor, digest equality, miss cost "
        f"flat in B within {MISS_FLAT_FACTOR:.0f}x)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression mode: compare ratios against the committed "
        f"baseline; fails on a >{CHECK_REGRESSION_FACTOR}x regression",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output JSON path (default: {DEFAULT_OUT}; "
        "ignored in --quick/--check unless set)",
    )
    args = parser.parse_args(argv)

    wanted = (
        {"greedy-quick", "dp-quick", "queries-quick"}
        if args.quick
        else {label for label, *_ in APPEND_GRID} | {label for label, *_ in QUERY_GRID}
    )
    append_rows = [
        bench_append(label, tier, n, block, appends, size, kwargs, args.seed)
        for label, tier, n, block, appends, size, kwargs in APPEND_GRID
        if label in wanted
    ]
    query_rows = [
        bench_queries(label, n_series, n, args.seed)
        for label, n_series, n in QUERY_GRID
        if label in wanted
    ]
    miss_rows = bench_misses(args.seed)
    print_append_rows(append_rows)
    print_query_rows(query_rows)
    print_miss_rows(miss_rows)

    failures = hard_gates(append_rows, query_rows, miss_rows)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1

    if args.check:
        return check_against_baseline(
            append_rows, query_rows, miss_rows, args.out or DEFAULT_OUT
        )
    if args.quick:
        print(
            "quick smoke OK: incremental append beats scratch rebuild, "
            "batched queries clear the throughput floor and miss cost is "
            "flat in B"
        )
        return 0

    out = args.out or DEFAULT_OUT
    payload = {
        "benchmark": "serving",
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "wall clock, single run per append/query cell (speedups "
        "are ratios); misses are min over interleaved reps",
        "results": {"append": append_rows, "queries": query_rows, "misses": miss_rows},
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
