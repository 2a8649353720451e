"""Perf-regression benchmark for the shuffle's byte sizing and spill overhead.

Times the columnar byte sizer (``records_size``) against the per-record
``record_size`` sum over shuffle-shaped batches, and an end-to-end
DGreedyAbs build under forced spilling against the in-memory shuffle,
writing ``BENCH_shuffle.json`` at the repo root — the baseline future
PRs diff their numbers against.

Usage::

    PYTHONPATH=src python benchmarks/bench_shuffle.py           # full run
    PYTHONPATH=src python benchmarks/bench_shuffle.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_shuffle.py --check   # CI guard

``--quick`` sizes one batch per shape and exits non-zero unless the
columnar sizer is at least ``QUICK_SIZING_SPEEDUP_FLOOR`` times faster
than the per-record sum on the ``mixed`` shape.
``--check`` runs the full grid and compares each (shape, batch size)
*speedup ratio* of the sizer (and the end-to-end spill overhead) against
the committed baseline — ratios on the same machine transfer across
hosts, absolute seconds do not.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench.shuffle_bench import (
    SHUFFLE_BATCH_SIZES,
    bench_external_overhead,
    bench_sizing,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_shuffle.json"

#: --quick fails if the columnar sizer is not at least this many times
#: faster than the per-record ``record_size`` sum on the mixed shape at
#: QUICK_SIZING_RECORDS records (a DGreedyAbs map task's output size).
QUICK_SIZING_SPEEDUP_FLOOR = 2.0
QUICK_SIZING_RECORDS = 1 << 13

#: --check fails when a sizer speedup drops below baseline/this
#: factor, or the end-to-end spill overhead grows past baseline*this factor.
CHECK_REGRESSION_FACTOR = 2.0


def print_sizing_rows(rows) -> None:
    header = (
        f"{'shape':>8}{'records':>9}{'columnar s':>12}{'scalar s':>12}{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['shape']:>8}{r['records']:>9}{r['columnar_seconds']:>12.6f}"
            f"{r['scalar_seconds']:>12.6f}{r['speedup']:>8.2f}x"
        )


def speedup_regressions(rows, baseline_rows) -> list[str]:
    """Rows whose speedup fell more than CHECK_REGRESSION_FACTOR below baseline."""
    baseline_by_key = {(r["shape"], r["records"]): r for r in baseline_rows}
    failures = []
    for r in rows:
        base = baseline_by_key.get((r["shape"], r["records"]))
        if base is None:
            continue
        floor = base["speedup"] / CHECK_REGRESSION_FACTOR
        if r["speedup"] < floor:
            failures.append(
                f"{r['shape']}/{r['records']} records: sizing speedup "
                f"{r['speedup']:.2f}x is more than {CHECK_REGRESSION_FACTOR}x below "
                f"the baseline {base['speedup']:.2f}x"
            )
    return failures


def check_against_baseline(sizing, overhead, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(f"FAIL: baseline {baseline_path} not found", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    if "sizing" not in baseline["results"]:
        print(f"FAIL: baseline {baseline_path} has no sizing rows", file=sys.stderr)
        return 1
    failures = speedup_regressions(sizing, baseline["results"]["sizing"])
    baseline_overhead = baseline["results"]["external_overhead"]["overhead"]
    ceiling = baseline_overhead * CHECK_REGRESSION_FACTOR
    if overhead["overhead"] > ceiling:
        failures.append(
            f"external-shuffle overhead {overhead['overhead']:.2f}x exceeds "
            f"{CHECK_REGRESSION_FACTOR}x the baseline {baseline_overhead:.2f}x"
        )
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"check OK: sizing and spill overhead within "
        f"{CHECK_REGRESSION_FACTOR}x of {baseline_path.name}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: one batch size, no JSON write; fails if the "
        f"columnar sizer misses its {QUICK_SIZING_SPEEDUP_FLOOR}x floor",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression mode: full grid, compared against the committed "
        f"baseline; fails on a >{CHECK_REGRESSION_FACTOR}x regression",
    )
    parser.add_argument("--reps", type=int, default=3, help="repetitions (min is kept)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output JSON path (default: {DEFAULT_OUT}; "
        "ignored in --quick/--check unless set)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizing = bench_sizing(sizes=[QUICK_SIZING_RECORDS], reps=3, seed=args.seed)
        print_sizing_rows(sizing)
        failures = [
            f"mixed shape: records_size speedup {r['speedup']:.2f}x over the "
            f"record_size sum is below the {QUICK_SIZING_SPEEDUP_FLOOR}x floor"
            for r in sizing
            if r["shape"] == "mixed" and r["speedup"] < QUICK_SIZING_SPEEDUP_FLOOR
        ]
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"quick smoke OK: columnar sizing clears its "
            f"{QUICK_SIZING_SPEEDUP_FLOOR}x floor"
        )
        return 0

    sizing = bench_sizing(reps=args.reps, seed=args.seed)
    print_sizing_rows(sizing)
    overhead = bench_external_overhead(reps=args.reps, seed=args.seed)
    print(
        f"\nexternal overhead (N={overhead['n']}, {overhead['spills']} spills): "
        f"{overhead['external_seconds']:.4f}s vs {overhead['memory_seconds']:.4f}s "
        f"({overhead['overhead']:.2f}x)"
    )

    if args.check:
        return check_against_baseline(sizing, overhead, args.out or DEFAULT_OUT)

    out = args.out or DEFAULT_OUT
    payload = {
        "benchmark": "shuffle",
        "seed": args.seed,
        "reps": args.reps,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "interleaved min over reps",
        "batch_sizes": SHUFFLE_BATCH_SIZES,
        "results": {"sizing": sizing, "external_overhead": overhead},
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
