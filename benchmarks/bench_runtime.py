"""Worker-pool benchmark: distributed builds on the local and process runtimes.

Times two builds on both runtimes and writes ``BENCH_runtime.json`` at
the repo root, the baseline later changes diff their numbers against:

* ``dgreedy-abs``: DGreedyAbs at the e2e benchmark's build-greedy
  settings (N = 2^12 uniform in [0, 1000), B = N/8, R = 32 base
  sub-trees, e_b = 0.1), on a 2-worker pool;
* ``dindirect-bounds``: DIndirectHaar's three bound jobs (CON, then the
  upper and the lower bound) at N = 2^14 with 1,024-leaf splits and
  B = N/8, run as one build.

Each row keeps the minimum over interleaved reps of wall time and of
CPU time.  CPU time is the driver's plus its reaped children's, so the
pool workers count: the process runtime joins them before a build
returns.  The bench also counts the pools each process build starts, by
wrapping ``repro.mapreduce.process.ProcessPoolExecutor``.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py                   # full run
    PYTHONPATH=src python benchmarks/bench_runtime.py --check --quick   # CI gate

``--check`` fails unless every process build started exactly one pool,
left no live child process and equalled the local build, and unless
each process/local ratio (wall and CPU) is at most
``CHECK_REGRESSION_FACTOR`` times the committed baseline's: ratios
measured on one machine transfer across hosts, absolute seconds do not.
``--quick`` runs fewer reps.  Neither mode writes the JSON unless
``--out`` is given.
"""

import argparse
import json
import multiprocessing
import platform
import resource
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

import repro.mapreduce.process as process_module
from repro.core import d_greedy_abs
from repro.core.dindirect import _error_bounds
from repro.mapreduce import LocalRuntime, ProcessPoolRuntime, SimulatedCluster

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_runtime.json"

#: Pool workers: the e2e benchmark's build-greedy uses 2.
WORKERS = 2

#: --check fails when a process/local ratio grows past baseline * this.
CHECK_REGRESSION_FACTOR = 2.0


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _dgreedy(runtime: LocalRuntime, data: np.ndarray) -> Any:
    n = len(data)
    cluster = SimulatedCluster(runtime=runtime)
    synopsis = d_greedy_abs(
        data, n // 8, cluster, base_leaves=n // 32, bucket_width=0.1
    )
    return synopsis.coefficients


def _bounds(runtime: LocalRuntime, data: np.ndarray) -> Any:
    """The bound jobs ``d_indirect_haar`` runs before its search, as one build."""
    cluster = SimulatedCluster(runtime=runtime)
    with runtime.session():
        conventional, low, high = _error_bounds(data, len(data) // 8, cluster, 1024)
    return conventional.coefficients, low, high


#: (row name, N, build).
BUILDS: list[tuple[str, int, Callable[[LocalRuntime, np.ndarray], Any]]] = [
    ("dgreedy-abs", 1 << 12, _dgreedy),
    ("dindirect-bounds", 1 << 14, _bounds),
]


def _count_pools() -> list[int]:
    """Make the process runtime count the pools it starts; return the count."""
    started = [0]

    class CountingExecutor(process_module.ProcessPoolExecutor):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            started[0] += 1

    process_module.ProcessPoolExecutor = CountingExecutor
    return started


def measure(reps: int, seed: int) -> tuple[list[dict[str, Any]], list[str]]:
    """Interleaved reps of every build on both runtimes: ``(rows, failures)``."""
    started = _count_pools()
    runtimes = {"local": LocalRuntime(), "process": ProcessPoolRuntime(WORKERS)}
    rows: list[dict[str, Any]] = []
    failures: list[str] = []
    for name, n, build in BUILDS:
        data = np.random.default_rng(seed).uniform(0.0, 1000.0, n)
        expected = build(runtimes["local"], data)  # warm-up
        build(runtimes["process"], data)
        best = {key: (float("inf"), float("inf")) for key in runtimes}
        pools: list[int] = []
        for _ in range(reps):
            for key, runtime in runtimes.items():
                pools_before = started[0]
                wall, cpu = time.perf_counter(), _cpu_seconds()
                output = build(runtime, data)
                wall, cpu = time.perf_counter() - wall, _cpu_seconds() - cpu
                best[key] = (min(best[key][0], wall), min(best[key][1], cpu))
                if key != "process":
                    continue
                pools.append(started[0] - pools_before)
                if output != expected:
                    failures.append(f"{name}: the process build differs from local")
                if multiprocessing.active_children():
                    failures.append(f"{name}: a worker outlived the process build")
        if set(pools) != {1}:
            failures.append(f"{name}: process builds started {pools} pools, not 1 each")
        (local_wall, local_cpu), (process_wall, process_cpu) = best.values()
        rows.append(
            {
                "build": name,
                "n": n,
                "local_wall_s": local_wall,
                "local_cpu_s": local_cpu,
                "process_wall_s": process_wall,
                "process_cpu_s": process_cpu,
                "wall_ratio": process_wall / local_wall,
                "cpu_ratio": process_cpu / local_cpu,
                "pools_per_build": max(pools),
            }
        )
    return rows, failures


def check_against_baseline(
    rows: list[dict[str, Any]], baseline_path: Path
) -> list[str]:
    if not baseline_path.exists():
        return [f"baseline {baseline_path} not found"]
    baseline = {r["build"]: r for r in json.loads(baseline_path.read_text())["rows"]}
    failures = []
    for row in rows:
        base = baseline.get(row["build"])
        if base is None:
            failures.append(f"baseline {baseline_path.name} has no {row['build']} row")
            continue
        for ratio in ("wall_ratio", "cpu_ratio"):
            ceiling = base[ratio] * CHECK_REGRESSION_FACTOR
            if row[ratio] > ceiling:
                failures.append(
                    f"{row['build']}: process/local {ratio} {row[ratio]:.2f} is over "
                    f"{CHECK_REGRESSION_FACTOR}x the baseline {base[ratio]:.2f}"
                )
    return failures


def print_rows(rows: list[dict[str, Any]]) -> None:
    header = (
        f"{'build':<18}{'N':>7}{'local wall':>12}{'local cpu':>11}"
        f"{'proc wall':>11}{'proc cpu':>10}{'wall x':>8}{'cpu x':>7}{'pools':>7}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['build']:<18}{r['n']:>7}{r['local_wall_s']:>12.4f}"
            f"{r['local_cpu_s']:>11.4f}{r['process_wall_s']:>11.4f}"
            f"{r['process_cpu_s']:>10.4f}{r['wall_ratio']:>8.2f}"
            f"{r['cpu_ratio']:>7.2f}{r['pools_per_build']:>7}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer reps (CI smoke)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: one pool and no live child per process build, equal outputs, "
        f"process/local ratios within {CHECK_REGRESSION_FACTOR}x of the baseline",
    )
    parser.add_argument("--reps", type=int, default=None, help="interleaved reps")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output JSON path (default: {DEFAULT_OUT}; "
        "ignored in --quick/--check unless set)",
    )
    args = parser.parse_args(argv)
    reps = args.reps or (3 if args.quick else 9)

    rows, failures = measure(reps, args.seed)
    print_rows(rows)

    if args.check:
        failures += check_against_baseline(rows, DEFAULT_OUT)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        print(
            "check OK: one pool and no live child per process build, equal outputs, "
            f"ratios within {CHECK_REGRESSION_FACTOR}x of the baseline"
        )
    if (args.quick or args.check) and args.out is None:
        return 0
    out = args.out or DEFAULT_OUT
    payload = {
        "benchmark": "runtime",
        "seed": args.seed,
        "reps": reps,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "interleaved min over reps; wall and CPU seconds per build, "
        "CPU including reaped children",
        "rows": rows,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
