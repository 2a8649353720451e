"""Perf-regression benchmark for the DP combine kernels and approximate tier.

Times the per-node ``combine_rows`` dispatcher against the retained
scalar reference across row widths, the windowed kernel against the
scalar kernel directly on both sides of ``SCALAR_FALLBACK_CELLS`` (the
threshold rows), the upper levels of real 256-leaf data sub-trees
through the level kernel against one ``combine_rows`` per node (the
level rows), single levels of 1 to 16 nodes the same two ways (the
level-size rows, which place ``_MIN_LEVEL_NODES``), batched
``leaf_rows`` against the per-leaf loop, and a data sub-tree's bottom
level built by ``data_pair_rows`` against leaf rows plus one
``combine_rows`` per pair; and sweeps the approximate DP tier's
coarsening knob ``rho`` over two end-to-end builds — centralized
MinHaarSpace and distributed DIndirectHaar — checking the tier's
guarantees while it measures.  Results go to ``BENCH_dp_kernel.json`` at
the repo root — the baseline future PRs diff their numbers against.

Usage::

    PYTHONPATH=src python benchmarks/bench_dp_kernel.py                   # full run
    PYTHONPATH=src python benchmarks/bench_dp_kernel.py --quick           # CI smoke
    PYTHONPATH=src python benchmarks/bench_dp_kernel.py --check           # CI guard
    PYTHONPATH=src python benchmarks/bench_dp_kernel.py --check --quick   # CI rho gate

``--quick`` shrinks every sweep (two widths, one sub-tree per level
setting, small builds, one rep of each build; the kernel rows keep the
interleaved minimum over ``--reps``) and fails if the dispatcher is
clearly slower than the scalar reference, the data-pair level is under
``QUICK_DATA_PAIR_MIN_SPEEDUP``, or the level kernel is slower than the
per-node loop at rows ~120 wide.  ``--check`` gates: the baseline's
``schema_version`` must match exactly (old-format baselines fail loudly
instead of comparing apples to oranges), each width's, threshold row's,
level row's, level-size row's and the data-pair row's *speedup ratio*
must stay within a factor of the committed baseline — speedups
(vectorized vs reference on the same machine) transfer across hosts
where absolute seconds do not —
and the rho sweep must show the acceptance-bar end-to-end speedup at
rho=0.1 with every guarantee row (error bound, size/budget) holding.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench.dp_kernel import (
    DP_KERNEL_WIDTHS,
    DP_LEVEL_SETTINGS,
    DP_LEVEL_SIZES,
    DP_RHO_GRID,
    DP_THRESHOLD_WIDTHS,
    bench_combine_widths,
    bench_data_pairs,
    bench_kernel_threshold,
    bench_leaf_batch,
    bench_level_kernel,
    bench_level_sizes,
    bench_rho_build,
    bench_rho_distributed,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_dp_kernel.json"

#: Bumped whenever the payload layout changes; --check refuses to compare
#: against a baseline written under any other version.
SCHEMA_VERSION = 4

#: --quick fails only if the dispatcher is slower than the scalar
#: reference by more than this factor (generous: CI timing noise).
QUICK_SLOWDOWN_TOLERANCE = 1.5

#: --quick fails when the data-pair level is less than this many times
#: faster than leaf rows plus one combine_rows per pair.
QUICK_DATA_PAIR_MIN_SPEEDUP = 3.0

#: --quick fails when the level kernel runs slower than one combine_rows
#: per node on this level row (the e2e build-dp setting, rows ~120 wide).
QUICK_LEVEL_GATE = ("walk", 0.1)

#: --check fails when a width's, threshold row's, level row's, level-size
#: row's or the data-pair row's speedup drops below baseline/this factor.
CHECK_REGRESSION_FACTOR = 2.0

#: --check fails when the rho=0.1 end-to-end build speedup (exact DP vs
#: approximate tier, same machine) drops below this bar.
RHO_MIN_SPEEDUP = 2.0

#: The rho the end-to-end speedup bar is measured at.
RHO_GATE = 0.1


def print_rows(rows) -> None:
    header = f"{'width':>7}{'vec s':>12}{'ref s':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['width']:>7}{r['vectorized_seconds']:>12.6f}"
            f"{r['reference_seconds']:>12.6f}{r['speedup']:>8.2f}x"
        )


def print_threshold_rows(rows) -> None:
    header = f"{'width':>7}{'cells':>7}{'windowed s':>12}{'scalar s':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['width']:>7}{r['cells']:>7}{r['windowed_seconds']:>12.6f}"
            f"{r['scalar_seconds']:>12.6f}{r['speedup']:>8.2f}x"
        )


def print_level_rows(rows) -> None:
    header = (
        f"{'data':>8}{'eps':>6}{'delta':>6}{'width':>7}"
        f"{'level s':>10}{'loop s':>10}{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['data']:>8}{r['epsilon']:>6g}{r['delta']:>6g}{r['width']:>7.0f}"
            f"{r['level_seconds']:>10.4f}{r['loop_seconds']:>10.4f}{r['speedup']:>8.2f}x"
        )


def print_level_size_rows(rows) -> None:
    header = (
        f"{'data':>8}{'eps':>6}{'delta':>6}{'nodes':>6}{'width':>7}"
        f"{'batch s':>10}{'loop s':>10}{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['data']:>8}{r['epsilon']:>6g}{r['delta']:>6g}{r['nodes']:>6}"
            f"{r['width']:>7.0f}{r['batch_seconds']:>10.6f}{r['loop_seconds']:>10.6f}"
            f"{r['speedup']:>8.2f}x"
        )


def level_label(row: dict) -> str:
    return f"{row['data']} eps={row['epsilon']:g} delta={row['delta']:g}"


def level_size_label(row: dict) -> str:
    return f"{level_label(row)} nodes={row['nodes']}"


def print_rho_sweep(name: str, sweep: dict) -> None:
    print(f"\n{name} (n={sweep['n']}, exact {sweep['exact_seconds']:.3f}s):")
    header = f"{'rho':>6}{'seconds':>10}{'speedup':>9}{'size':>6}{'max_err':>9}{'bound':>9}{'ok':>4}"
    print(header)
    print("-" * len(header))
    for r in sweep["rows"]:
        ok = r["within_bound"] and r.get("size_ok", r.get("budget_ok", False))
        print(
            f"{r['rho']:>6.2f}{r['seconds']:>10.4f}{r['speedup']:>8.2f}x"
            f"{r['size']:>6}{r['max_error']:>9.4f}{r['error_bound']:>9.4f}"
            f"{'ok' if ok else 'NO':>4}"
        )


def check_rho_sweeps(results: dict) -> list[str]:
    """Gate the approximate tier on the current run's own numbers."""
    failures = []
    for name, size_key in (("rho_build", "size_ok"), ("rho_distributed", "budget_ok")):
        sweep = results.get(name)
        if sweep is None:
            failures.append(f"{name}: sweep missing from this run")
            continue
        gate_seen = False
        for r in sweep["rows"]:
            label = f"{name} rho={r['rho']}"
            if not r["within_bound"]:
                failures.append(
                    f"{label}: max_error {r['max_error']:.6f} exceeds the proven "
                    f"bound {r['error_bound']:.6f}"
                )
            if not r[size_key]:
                failures.append(f"{label}: {size_key} violated (size {r['size']})")
            if r["rho"] == RHO_GATE:
                gate_seen = True
                if r["speedup"] < RHO_MIN_SPEEDUP:
                    failures.append(
                        f"{label}: end-to-end speedup {r['speedup']:.2f}x is below "
                        f"the {RHO_MIN_SPEEDUP}x bar"
                    )
        if not gate_seen:
            failures.append(f"{name}: no rho={RHO_GATE} row to gate on")
    return failures


def check_ratios(name: str, rows, baseline_rows, key) -> list[str]:
    """Rows whose speedup fell more than CHECK_REGRESSION_FACTOR below baseline."""
    if baseline_rows is None:
        return [f"baseline has no {name} rows"]
    baseline_by_key = {key(r): r for r in baseline_rows}
    failures = []
    for r in rows:
        base = baseline_by_key.get(key(r))
        if base is None:
            continue
        if r["speedup"] < base["speedup"] / CHECK_REGRESSION_FACTOR:
            failures.append(
                f"{name} {key(r)}: speedup {r['speedup']:.2f}x is more than "
                f"{CHECK_REGRESSION_FACTOR}x below the baseline {base['speedup']:.2f}x"
            )
    return failures


def check_against_baseline(
    rows,
    threshold: list,
    levels: list,
    level_sizes: list,
    data_pairs: dict,
    baseline_path: Path,
) -> list[str]:
    if not baseline_path.exists():
        return [f"baseline {baseline_path} not found"]
    baseline = json.loads(baseline_path.read_text())
    found = baseline.get("schema_version")
    if found != SCHEMA_VERSION:
        return [
            f"baseline {baseline_path.name} has schema_version {found!r}, this "
            f"benchmark writes {SCHEMA_VERSION}; regenerate the baseline "
            "(old formats are not comparable)"
        ]
    results = baseline["results"]
    failures = check_ratios("width", rows, results.get("combine"), lambda r: r["width"])
    failures += check_ratios(
        "threshold width", threshold, results.get("threshold"), lambda r: r["width"]
    )
    failures += check_ratios("level", levels, results.get("levels"), level_label)
    failures += check_ratios(
        "level size", level_sizes, results.get("level_sizes"), level_size_label
    )
    base = results.get("data_pairs")
    if base is None:
        failures.append(f"baseline {baseline_path.name} has no data_pairs row")
    elif data_pairs["speedup"] < base["speedup"] / CHECK_REGRESSION_FACTOR:
        failures.append(
            f"data pairs: speedup {data_pairs['speedup']:.2f}x is more than "
            f"{CHECK_REGRESSION_FACTOR}x below the baseline {base['speedup']:.2f}x"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: two widths, small builds, no JSON write; fails if "
        "the dispatcher is clearly slower than the scalar reference, the "
        f"data-pair level is under {QUICK_DATA_PAIR_MIN_SPEEDUP}x, or the level "
        "kernel is slower than the per-node loop at rows ~120 wide",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression mode: schema-gated comparison against the committed "
        f"baseline (>{CHECK_REGRESSION_FACTOR}x speedup regressions fail) "
        f"plus the rho-sweep guarantees and the {RHO_MIN_SPEEDUP}x bar at "
        f"rho={RHO_GATE}",
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
        rows = bench_combine_widths(widths=[16, 128], reps=args.reps, seed=args.seed)
        levels = bench_level_kernel(subtrees=1, reps=args.reps, seed=args.seed)
        level_sizes = bench_level_sizes(subtrees=1, reps=args.reps, seed=args.seed)
        rho_build = bench_rho_build(n=512, reps=1, seed=args.seed)
        rho_distributed = bench_rho_distributed(
            n=512, subtree_leaves=128, reps=1, seed=args.seed
        )
    else:
        rows = bench_combine_widths(reps=args.reps, seed=args.seed)
        levels = bench_level_kernel(reps=args.reps, seed=args.seed)
        level_sizes = bench_level_sizes(reps=args.reps, seed=args.seed)
        rho_build = bench_rho_build(n=2048, reps=2, seed=args.seed)
        rho_distributed = bench_rho_distributed(
            n=1024, subtree_leaves=256, reps=1, seed=args.seed
        )
    threshold = bench_kernel_threshold(reps=args.reps, seed=args.seed)
    print_rows(rows)
    print("\nwindowed vs scalar kernel, called directly:")
    print_threshold_rows(threshold)
    print("\nupper levels of 256-leaf sub-trees, level kernel vs per-node combine_rows:")
    print_level_rows(levels)
    print("\none level of 1-16 nodes, level kernel vs per-node combine_rows:")
    print_level_size_rows(level_sizes)
    leaf = bench_leaf_batch(reps=args.reps, seed=args.seed)
    print(
        f"\nleaf_rows batch ({leaf['leaves']} leaves): "
        f"{leaf['vectorized_seconds']:.6f}s vs {leaf['reference_seconds']:.6f}s "
        f"({leaf['speedup']:.2f}x)"
    )
    data_pairs = bench_data_pairs(reps=args.reps, seed=args.seed)
    print(
        f"data_pair_rows ({data_pairs['leaves']} leaves): "
        f"{data_pairs['vectorized_seconds']:.6f}s vs leaf_rows + combine_rows "
        f"{data_pairs['reference_seconds']:.6f}s ({data_pairs['speedup']:.2f}x)"
    )
    print_rho_sweep("MinHaarSpace rho sweep", rho_build)
    print_rho_sweep("DIndirectHaar rho sweep", rho_distributed)
    results = {
        "combine": rows,
        "threshold": threshold,
        "levels": levels,
        "level_sizes": level_sizes,
        "leaf_batch": leaf,
        "data_pairs": data_pairs,
        "rho_build": rho_build,
        "rho_distributed": rho_distributed,
    }

    if args.quick:
        slow = [r for r in rows if r["speedup"] < 1.0 / QUICK_SLOWDOWN_TOLERANCE]
        for r in slow:
            print(
                f"FAIL: width {r['width']} is {1.0 / r['speedup']:.2f}x slower "
                "than the scalar reference",
                file=sys.stderr,
            )
        pairs_slow = data_pairs["speedup"] < QUICK_DATA_PAIR_MIN_SPEEDUP
        if pairs_slow:
            print(
                f"FAIL: data pairs run only {data_pairs['speedup']:.2f}x faster than "
                f"leaf rows plus combine_rows (floor {QUICK_DATA_PAIR_MIN_SPEEDUP}x)",
                file=sys.stderr,
            )
        gated = [r for r in levels if (r["data"], r["delta"]) == QUICK_LEVEL_GATE]
        level_slow = [r for r in gated if r["speedup"] < 1.0]
        for r in level_slow:
            print(
                f"FAIL: level kernel at {level_label(r)} runs at {r['speedup']:.2f}x "
                "the per-node combine_rows loop",
                file=sys.stderr,
            )
        if slow or pairs_slow or level_slow or not gated:
            return 1
        print(
            "quick smoke OK: dispatcher is not slower than the scalar reference, "
            f"data pairs at least {QUICK_DATA_PAIR_MIN_SPEEDUP}x faster, level "
            "kernel not slower than the per-node loop at rows ~120 wide"
        )

    if args.check:
        failures = check_rho_sweeps(results)
        # Width-ratio comparison only makes sense against the committed
        # full-grid baseline; the quick grid still gates the rho sweep.
        if not args.quick:
            failures += check_against_baseline(
                rows,
                threshold,
                levels,
                level_sizes,
                data_pairs,
                args.out or DEFAULT_OUT,
            )
        if failures:
            for line in failures:
                print(f"FAIL: {line}", file=sys.stderr)
            return 1
        print(
            f"check OK: rho guarantees hold, rho={RHO_GATE} speedup above "
            f"{RHO_MIN_SPEEDUP}x"
            + (
                ""
                if args.quick
                else ", no width, threshold, level, level-size or data-pair row "
                "regressed vs baseline"
            )
        )
        return 0

    if args.quick:
        if args.out is None:
            return 0

    out = args.out or DEFAULT_OUT
    payload = {
        "benchmark": "dp_kernel",
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "reps": args.reps,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "interleaved min over reps; per-call seconds",
        "widths": DP_KERNEL_WIDTHS,
        "threshold_widths": DP_THRESHOLD_WIDTHS,
        "level_settings": DP_LEVEL_SETTINGS,
        "level_sizes": DP_LEVEL_SIZES,
        "rho_grid": DP_RHO_GRID,
        "results": results,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
