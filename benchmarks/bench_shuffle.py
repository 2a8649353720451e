"""Perf-regression benchmark for the external shuffle + columnar serde.

Times the columnar record-batch codec against per-record pickle over
shuffle-shaped batches, the columnar byte sizer (``records_size``)
against the per-record ``record_size`` sum, and an end-to-end DGreedyAbs
build under forced spilling against the in-memory shuffle, writing
``BENCH_shuffle.json`` at the repo root — the baseline future PRs diff
their numbers against.

Usage::

    PYTHONPATH=src python benchmarks/bench_shuffle.py           # full run
    PYTHONPATH=src python benchmarks/bench_shuffle.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_shuffle.py --check   # CI guard

``--quick`` runs one small batch size and exits non-zero unless the
codec beats per-record pickle on the homogeneous ``numeric`` shape and,
on the adversarial ``mixed`` shape, stays within a slowdown tolerance
while producing a smaller encoding (the codec's contract on its worst
case: trade bounded CPU for spill bytes), and unless the columnar sizer
is at least ``QUICK_SIZING_SPEEDUP_FLOOR`` times faster than the
per-record sum on the ``mixed`` shape.
``--check`` runs the full grid and compares each (shape, batch size)
*speedup ratio* of the codec and of the sizer (and the end-to-end spill
overhead) against the committed baseline — ratios on the same machine
transfer across hosts, absolute seconds do not.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench.shuffle_bench import (
    SHUFFLE_BATCH_SIZES,
    bench_codec_batches,
    bench_external_overhead,
    bench_sizing,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_shuffle.json"

#: --quick fails if the codec is slower than per-record pickle on the
#: adversarial mixed shape by more than this factor (generous: the
#: mixed shape pays ~1.3x CPU for a ~1.7x smaller spill file, and CI
#: timing is noisy).
QUICK_SLOWDOWN_TOLERANCE = 2.0

#: --quick fails if the codec does not beat per-record pickle by at
#: least this factor on the homogeneous numeric shape (its best case
#: runs ~2.4x; below this something columnar broke).
QUICK_NUMERIC_SPEEDUP_FLOOR = 1.2

#: --quick fails if the columnar sizer is not at least this many times
#: faster than the per-record ``record_size`` sum on the mixed shape at
#: QUICK_SIZING_RECORDS records (a DGreedyAbs map task's output size).
QUICK_SIZING_SPEEDUP_FLOOR = 2.0
QUICK_SIZING_RECORDS = 1 << 13

#: --check fails when a codec or sizer speedup drops below baseline/this
#: factor, or the end-to-end spill overhead grows past baseline*this factor.
CHECK_REGRESSION_FACTOR = 2.0


def print_rows(rows) -> None:
    header = (
        f"{'shape':>8}{'records':>9}{'columnar s':>12}{'pickle s':>12}"
        f"{'speedup':>9}{'bytes ratio':>13}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['shape']:>8}{r['records']:>9}{r['columnar_seconds']:>12.6f}"
            f"{r['pickle_seconds']:>12.6f}{r['speedup']:>8.2f}x"
            f"{r['bytes_ratio']:>12.2f}x"
        )


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


def speedup_regressions(section: str, rows, baseline_rows) -> list[str]:
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
                f"{r['shape']}/{r['records']} records: {section} speedup "
                f"{r['speedup']:.2f}x is more than {CHECK_REGRESSION_FACTOR}x below "
                f"the baseline {base['speedup']:.2f}x"
            )
    return failures


def check_against_baseline(rows, sizing, overhead, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(f"FAIL: baseline {baseline_path} not found", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    if "sizing" not in baseline["results"]:
        print(f"FAIL: baseline {baseline_path} has no sizing rows", file=sys.stderr)
        return 1
    failures = speedup_regressions("codec", rows, baseline["results"]["codec"])
    failures += speedup_regressions("sizing", sizing, baseline["results"]["sizing"])
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
        f"check OK: codec, sizing and spill overhead within "
        f"{CHECK_REGRESSION_FACTOR}x of {baseline_path.name}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: one batch size, no JSON write; fails if the codec "
        "is clearly slower than per-record pickle or the columnar sizer "
        f"misses its {QUICK_SIZING_SPEEDUP_FLOOR}x floor",
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
        rows = bench_codec_batches(sizes=[1 << 12], reps=2, seed=args.seed)
        print_rows(rows)
        failures = []
        for r in rows:
            if r["shape"] == "numeric" and r["speedup"] < QUICK_NUMERIC_SPEEDUP_FLOOR:
                failures.append(
                    f"numeric shape: speedup {r['speedup']:.2f}x is below the "
                    f"{QUICK_NUMERIC_SPEEDUP_FLOOR}x floor"
                )
            if r["shape"] == "mixed":
                if r["speedup"] < 1.0 / QUICK_SLOWDOWN_TOLERANCE:
                    failures.append(
                        f"mixed shape: {1.0 / r['speedup']:.2f}x slower than "
                        f"per-record pickle (tolerance {QUICK_SLOWDOWN_TOLERANCE}x)"
                    )
                if r["bytes_ratio"] <= 1.0:
                    failures.append(
                        f"mixed shape: encoding is not smaller than pickle "
                        f"(bytes ratio {r['bytes_ratio']:.2f}x)"
                    )
        sizing = bench_sizing(sizes=[QUICK_SIZING_RECORDS], reps=3, seed=args.seed)
        print()
        print_sizing_rows(sizing)
        for r in sizing:
            if r["shape"] == "mixed" and r["speedup"] < QUICK_SIZING_SPEEDUP_FLOOR:
                failures.append(
                    f"mixed shape: records_size speedup {r['speedup']:.2f}x over "
                    f"the record_size sum is below the "
                    f"{QUICK_SIZING_SPEEDUP_FLOOR}x floor"
                )
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        if failures:
            return 1
        print(
            "quick smoke OK: codec beats pickle on numeric records and trades "
            "bounded CPU for smaller spills on mixed records; columnar sizing "
            f"clears its {QUICK_SIZING_SPEEDUP_FLOOR}x floor"
        )
        return 0

    rows = bench_codec_batches(reps=args.reps, seed=args.seed)
    print_rows(rows)
    sizing = bench_sizing(reps=args.reps, seed=args.seed)
    print()
    print_sizing_rows(sizing)
    overhead = bench_external_overhead(reps=args.reps, seed=args.seed)
    print(
        f"\nexternal overhead (N={overhead['n']}, {overhead['spills']} spills): "
        f"{overhead['external_seconds']:.4f}s vs {overhead['memory_seconds']:.4f}s "
        f"({overhead['overhead']:.2f}x)"
    )

    if args.check:
        return check_against_baseline(rows, sizing, overhead, args.out or DEFAULT_OUT)

    out = args.out or DEFAULT_OUT
    payload = {
        "benchmark": "shuffle",
        "seed": args.seed,
        "reps": args.reps,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "interleaved min over reps",
        "batch_sizes": SHUFFLE_BATCH_SIZES,
        "results": {"codec": rows, "sizing": sizing, "external_overhead": overhead},
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
