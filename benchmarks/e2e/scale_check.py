"""Compare per-layer shares of time at the benchmark's sizes and at paper scale.

Usage (from the repository root)::

    python3 benchmarks/e2e/scale_check.py [--seed 11] [--workload W]... > shares.md

The benchmark runs its workloads at reduced sizes so that every run,
with its set-ups, fits the time budget of BENCHMARK.json.  A reduced
size is only useful if it spends its time in the same layers as the
sizes the paper-scale settings call for (``PAPER_SIZES``).  For each
workload this script runs ``OPS`` operations under the tracer of
``layers.py``, once at each size, after one set-up, and prints a
Markdown table: each wrapped function's self time as a share of the
traced wall time, the pool workers' busy time (summed over workers) on
the same base, and the cache hit ratio.  ``build-dp`` already runs at
paper scale (N = 4096) and is not compared.

Shares are of traced time: the wrappers add about a microsecond per
call, which inflates functions called very often
(``mapreduce.record_size``) at both sizes alike.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

from layers import ROOT_SPAN, LayerTracer
from run import import_workloads

#: Paper-scale class attributes per workload: DGreedyAbs as in the
#: paper's fig. 5c (N = 2^15, R = 32) and the serving store of 2 series of
#: 2^19 - 2^16 values with 1024-value appends.
_STORE = {
    "INITIAL": (1 << 19) - (1 << 16),
    "CAPACITY": 1 << 19,
    "BUDGET": 2048,
    "BASE_LEAVES": 1024,
    "SEGMENT_LEAVES": 1024,
    "CACHE_ENTRIES": 256,
    "ZIPF_S": 1.2,
}
PAPER_SIZES: dict[str, dict[str, Any]] = {
    "build-greedy": {"N": 1 << 15},
    "serve-hot": _STORE,
    "serve-cold": _STORE,
    # 128 appends fill the paper-scale buffers, so OPS stays below that.
    "serve-append": {**_STORE, "APPEND": 1024},
}

#: Traced operations per workload and size.
OPS = {"build-greedy": 3, "serve-hot": 3000, "serve-cold": 1000, "serve-append": 100}

#: Rows below this share at both sizes are left out.
MIN_SHARE = 0.005


def traced_shares(workload: Any, ops: int) -> tuple[dict[str, float], float, float | None]:
    """Set up, trace ``ops`` operations; return (shares, ms per op, hit ratio)."""
    workload.setup()
    before = workload.counters()
    with LayerTracer() as tracer:
        tracer.open_root()
        for index in range(ops):
            tracer.op = index
            workload.op(index)
        root_s = tracer.close_root()
    after = workload.counters()
    layer = {key: after[key] - before.get(key, 0.0) for key in after}
    shares = {
        ("unattributed" if name == ROOT_SPAN else name): row["self_s"] / root_s
        for name, row in tracer.self_time_table().items()
    }
    for name in ("map_task", "reduce_task"):
        shares[f"mapreduce.{name} (worker busy)"] = layer.get(f"mapreduce.{name}_s", 0.0) / root_s
    hits = layer.get("serving.cache_hits", 0.0)
    lookups = hits + layer.get("serving.cache_misses", 0.0)
    return shares, root_s * 1e3 / ops, hits / lookups if lookups else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=sorted(PAPER_SIZES))
    args = parser.parse_args(argv)
    workloads = import_workloads()
    for name in args.workload or list(PAPER_SIZES):
        bench_class = workloads[name]
        paper_class = type(bench_class.__name__, (bench_class,), PAPER_SIZES[name])
        began = time.perf_counter()
        bench, bench_ms, bench_hits = traced_shares(bench_class(args.seed), OPS[name])
        paper, paper_ms, paper_hits = traced_shares(paper_class(args.seed), OPS[name])
        print(f"### {name}\n")
        print(
            f"{OPS[name]} traced operations per size, seed {args.seed}: "
            f"{bench_ms:.4g} ms per operation at the benchmark's size, "
            f"{paper_ms:.4g} ms at paper scale "
            f"({time.perf_counter() - began:.0f} s with set-ups)."
        )
        if bench_hits is not None and paper_hits is not None:
            print(f"Cache hit ratio: {bench_hits:.1%} against {paper_hits:.1%}.")
        print()
        print("| share of traced time | benchmark | paper scale | difference (points) |")
        print("|---|---|---|---|")
        for row in sorted(set(bench) | set(paper), key=lambda key: -paper.get(key, 0.0)):
            ours, theirs = bench.get(row, 0.0), paper.get(row, 0.0)
            if max(ours, theirs) < MIN_SHARE:
                continue
            print(f"| `{row}` | {ours:.1%} | {theirs:.1%} | {100 * (ours - theirs):+.1f} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
