"""Shuffle benchmark: columnar byte sizing and end-to-end spill overhead.

Two measurements back the shuffle's perf story:

* **End-to-end spill overhead** — a DGreedyAbs build under the external
  shuffle with a buffer small enough to force multi-run merges, divided
  by the same build on the in-memory shuffle.  This is the price of
  bounding what the map stage buffers; the guard keeps it from silently
  exploding.
* **Byte sizing** — :func:`repro.mapreduce.serde.records_size`, the
  columnar sizer the runtime charges every task output with, against
  the per-record ``record_size`` sum it replaces, over two batch shapes
  that bracket real shuffle traffic: ``numeric`` (homogeneous
  ``(int, float)`` records, the shape CON/SendCoef and the DP jobs
  shuffle) and ``mixed`` (interleaved ``hist``/``final`` tuple records,
  the per-bucket shape DGreedyAbs's job 1 emitted before it shipped one
  columnar record per run).  Both must return the same total; the
  speedup ratio, not absolute seconds, is what the regression guard
  pins — ratios on the same machine transfer across hosts.

Results land in ``BENCH_shuffle.json`` at the repo root (written by
``benchmarks/bench_shuffle.py``) — the baseline future PRs diff against.
Timing discipline matches :mod:`repro.bench.dp_kernel`: contenders are
interleaved within each repetition and the minimum over repetitions kept.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.dgreedy import d_greedy_abs
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.serde import record_size, records_size
from repro.mapreduce.shuffle import ShuffleConfig

__all__ = [
    "SHUFFLE_BATCH_SIZES",
    "bench_external_overhead",
    "bench_sizing",
    "numeric_shaped_records",
    "shuffle_shaped_records",
]

#: Default batch-size grid, in records.  The small end is a single spill
#: of one partition buffer; the large end is a full run file at scale.
SHUFFLE_BATCH_SIZES = [1 << 10, 1 << 13, 1 << 16]


def shuffle_shaped_records(count: int, seed: int = 7) -> list[tuple[Any, Any]]:
    """A reproducible batch of the mixed-signature ``hist``/``final`` shape.

    Interleaves 4-tuple ``hist`` keys (with ``(count, cut_error)``
    values) and 3-tuple ``final`` keys (float values) in a ~15:1 ratio:
    the shape DGreedyAbs's job 1 emitted before it shipped one columnar
    record per run (one record per bucket plus one final record per
    candidate and sub-tree).
    """
    rng = np.random.default_rng(seed)
    records: list[tuple[Any, Any]] = []
    for index in range(count):
        candidate = int(rng.integers(0, 16))
        subtree = int(rng.integers(0, 64))
        if index % 16 == 15:
            records.append((("final", candidate, subtree), float(rng.uniform(0, 500))))
        else:
            records.append(
                (
                    ("hist", candidate, subtree, float(rng.uniform(0, 500))),
                    (int(rng.integers(1, 30)), float(rng.uniform(0, 500))),
                )
            )
    return records


def numeric_shaped_records(count: int, seed: int = 7) -> list[tuple[Any, Any]]:
    """A homogeneous ``(int key, float value)`` batch.

    The shape CON/SendCoef and the DP jobs shuffle (coefficient index to
    value); each column has one exact type, the sizer's best case.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 500, size=count)
    return [(int(index), float(value)) for index, value in enumerate(values)]


_SHAPES = {
    "numeric": numeric_shaped_records,
    "mixed": shuffle_shaped_records,
}


def bench_sizing(
    sizes: Sequence[int] | None = None, reps: int = 3, seed: int = 7
) -> list[dict[str, Any]]:
    """Benchmark columnar ``records_size`` vs the per-record ``record_size`` sum.

    Returns one dict per ``(shape, size)`` pair.  Fails if the two totals
    ever differ: a fast sizer that charges different bytes would move
    every Eq. 6 check.
    """
    if sizes is None:
        sizes = SHUFFLE_BATCH_SIZES
    rows = []
    for shape, make_records in _SHAPES.items():
        for size in sizes:
            records = make_records(size, seed)
            columnar_seconds = scalar_seconds = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                columnar = records_size(records)
                columnar_seconds = min(columnar_seconds, time.perf_counter() - start)
                start = time.perf_counter()
                scalar = sum(record_size(key, value) for key, value in records)
                scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
            assert columnar == scalar, (shape, size, columnar, scalar)
            rows.append(
                {
                    "shape": shape,
                    "records": size,
                    "columnar_seconds": columnar_seconds,
                    "scalar_seconds": scalar_seconds,
                    "speedup": scalar_seconds / columnar_seconds,
                    "modeled_bytes": columnar,
                }
            )
    return rows


def bench_external_overhead(
    n: int = 1 << 15, reps: int = 3, seed: int = 7
) -> dict[str, Any]:
    """End-to-end DGreedyAbs wall-clock: external (forced spills) vs memory.

    The buffer is 1/16 of the input's on-disk size, the acceptance
    configuration's cap, so every reducer merges multiple runs.
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 500, size=n).astype(np.float64)
    budget = max(16, n // 256)
    base_leaves = max(64, n // 64)
    external = ShuffleConfig(mode="external", buffer_bytes=(n * 8) // 16)

    def build(shuffle: ShuffleConfig | None) -> tuple[float, SimulatedCluster]:
        cluster = SimulatedCluster(runtime=LocalRuntime(shuffle=shuffle))
        start = time.perf_counter()
        d_greedy_abs(data, budget, cluster, base_leaves=base_leaves)
        return time.perf_counter() - start, cluster

    memory_seconds = external_seconds = float("inf")
    spills = 0
    for _ in range(reps):
        seconds, _ = build(None)
        memory_seconds = min(memory_seconds, seconds)
        seconds, cluster = build(external)
        external_seconds = min(external_seconds, seconds)
        spills = sum(job.shuffle_stats.get("spills", 0) for job in cluster.log.jobs)
    return {
        "n": n,
        "budget": budget,
        "base_leaves": base_leaves,
        "buffer_bytes": (n * 8) // 16,
        "spills": spills,
        "memory_seconds": memory_seconds,
        "external_seconds": external_seconds,
        "overhead": external_seconds / memory_seconds,
    }
