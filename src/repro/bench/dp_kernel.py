"""DP combine-kernel micro-benchmark: windowed and level kernels vs their references.

Times :func:`repro.algos.minhaarspace.combine_rows` (the production
per-node dispatcher) against
:func:`repro.algos.minhaarspace.combine_rows_scalar` (the retained
per-``v`` reference) across row widths; the windowed kernel against the
scalar kernel directly at candidate-cell counts on both sides of
:data:`~repro.algos.minhaarspace.SCALAR_FALLBACK_CELLS`
(:func:`bench_kernel_threshold`); the upper levels of real data
sub-trees through the level kernel against one ``combine_rows`` per node
(:func:`bench_level_kernel`), and single levels of 1 to 16 nodes the same
two ways (:func:`bench_level_sizes`); the batched
:func:`repro.algos.minhaarspace.leaf_rows` against a per-leaf loop; one
sub-tree's bottom combine level built by
:func:`repro.algos.minhaarspace.data_pair_rows` against leaf rows and one
``combine_rows`` per pair (:func:`bench_data_pairs`); and two end-to-end
approximate-tier sweeps (:func:`bench_rho_build` /
:func:`bench_rho_distributed`) that measure whole-build speedups per
coarsening knob ``rho`` *and* check the tier's proven guarantees on the
way.  Results land in ``BENCH_dp_kernel.json`` at the repo root (written
by ``benchmarks/bench_dp_kernel.py``) — the perf-regression baseline
future PRs diff against.

Row width here is ``|domain|`` of each child row, i.e. ``~2·epsilon/delta``
entries; ``effective_delta`` keeps production widths within this grid
(finer quantizations are clamped).  The contenders are interleaved
within each repetition and the minimum over repetitions is kept, the
same noise discipline as :mod:`repro.bench.kernel`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from repro.algos.minhaarspace import (
    MRow,
    _batch_level,
    _combine_kernel_scalar,
    _combine_kernel_windowed,
    _combined_domain,
    _run_levels,
    combine_rows,
    combine_rows_scalar,
    data_pair_rows,
    leaf_row,
    leaf_rows,
    min_haar_space,
)

__all__ = [
    "DP_KERNEL_WIDTHS",
    "DP_LEVEL_SETTINGS",
    "DP_LEVEL_SIZES",
    "DP_RHO_GRID",
    "DP_THRESHOLD_WIDTHS",
    "bench_combine_widths",
    "bench_data_pairs",
    "bench_kernel_threshold",
    "bench_leaf_batch",
    "bench_level_kernel",
    "bench_level_sizes",
    "bench_rho_build",
    "bench_rho_distributed",
    "combine_inputs",
    "rho_build_inputs",
]

#: Default row-width grid of the dispatcher rows: 16 and up is the
#: windowed kernel's domain, and 2048/4096 track the large-width cliff
#: the blocked forward walk flattens (the sag past width 128 that
#: motivated the approximate tier).
DP_KERNEL_WIDTHS = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]

#: Child-row widths of the scalar/windowed threshold rows: 16 to 400
#: candidate cells, on both sides of ``SCALAR_FALLBACK_CELLS``.
DP_THRESHOLD_WIDTHS = [4, 6, 8, 9, 10, 12, 16, 20]

#: ``(data, epsilon, delta)`` of the level-kernel rows: a rounded walk
#: with rows ~14 and ~120 wide, and uniform data with rows ~800 wide.
DP_LEVEL_SETTINGS = [("walk", 6.0, 1.0), ("walk", 6.0, 0.1), ("uniform", 400.0, 1.0)]

#: Node counts of the level-size rows, on both sides of ``_MIN_LEVEL_NODES``.
DP_LEVEL_SIZES = [1, 2, 4, 8, 16]

#: Coarsening knobs of the end-to-end approximate-tier sweeps.
DP_RHO_GRID = [0.05, 0.1, 0.25]


def combine_inputs(width: int, seed: int = 7) -> tuple[MRow, MRow, float]:
    """Reproducible (left, right, epsilon) child rows of ``~width`` entries."""
    rng = np.random.default_rng(seed + width)
    epsilon = width / 2.0

    def child_row() -> MRow:
        center = float(rng.uniform(-3.0, 3.0))
        start = math.ceil(center - epsilon)
        stop = math.floor(center + epsilon)
        size = stop - start + 1
        return MRow(
            start=start,
            counts=rng.integers(0, 8, size).astype(np.int32),
            errors=rng.uniform(0.0, epsilon, size),
            choices=np.zeros(size, dtype=np.int64),
        )

    return child_row(), child_row(), epsilon


def bench_combine_widths(
    widths: Sequence[int] | None = None, reps: int = 3, seed: int = 7, delta: float = 1.0
) -> list[dict]:
    """Benchmark the combine kernels; returns one row dict per width."""
    if widths is None:
        widths = DP_KERNEL_WIDTHS
    rows = []
    for width in widths:
        left, right, epsilon = combine_inputs(width, seed)
        # Enough calls that per-call timer noise averages out on small rows.
        calls = max(3, 4096 // width)
        windowed_seconds = scalar_seconds = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                combine_rows(left, right, epsilon, delta)
            windowed_seconds = min(windowed_seconds, (time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for _ in range(calls):
                combine_rows_scalar(left, right, epsilon, delta)
            scalar_seconds = min(scalar_seconds, (time.perf_counter() - start) / calls)
        rows.append(
            {
                "width": width,
                "calls": calls,
                "vectorized_seconds": windowed_seconds,
                "reference_seconds": scalar_seconds,
                "speedup": scalar_seconds / windowed_seconds,
            }
        )
    return rows


def bench_kernel_threshold(
    widths: Sequence[int] | None = None, reps: int = 3, seed: int = 7, delta: float = 1.0
) -> list[dict]:
    """The windowed kernel against the scalar kernel, called directly.

    One row per child-row width, with its candidate-cell count
    ``|v domain| × |left row|``: the quantity ``combine_rows`` compares
    with ``SCALAR_FALLBACK_CELLS``.  Timing the kernels rather than the
    dispatcher keeps both contenders what they say on either side of
    the threshold.
    """
    if widths is None:
        widths = DP_THRESHOLD_WIDTHS
    rows = []
    for width in widths:
        left, right, epsilon = combine_inputs(width, seed)
        v_start, v_stop = _combined_domain(left, right)
        cells = (v_stop - v_start + 1) * len(left)
        calls = max(3, 16384 // cells)
        windowed_seconds = scalar_seconds = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                _combine_kernel_windowed(left, right, v_start, v_stop, epsilon, delta)
            windowed_seconds = min(windowed_seconds, (time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for _ in range(calls):
                _combine_kernel_scalar(left, right, v_start, v_stop, epsilon, delta)
            scalar_seconds = min(scalar_seconds, (time.perf_counter() - start) / calls)
        rows.append(
            {
                "width": width,
                "cells": cells,
                "calls": calls,
                "windowed_seconds": windowed_seconds,
                "scalar_seconds": scalar_seconds,
                "speedup": scalar_seconds / windowed_seconds,
            }
        )
    return rows


def _level_values(kind: str, leaves: int, rng: np.random.Generator) -> np.ndarray:
    """One data sub-tree's values: a rounded walk or uniform in [0, 1000)."""
    if kind == "walk":
        return np.round(100.0 + np.cumsum(rng.normal(0.0, 2.0, leaves)))
    return rng.uniform(0.0, 1000.0, leaves)


def _per_node_levels(pairs: list[MRow], epsilon: float, delta: float) -> None:
    """A sub-tree's levels above its pairs, one ``combine_rows`` per node."""
    level = pairs
    while len(level) > 1:
        level = [
            combine_rows(level[i], level[i + 1], epsilon, delta)
            for i in range(0, len(level), 2)
        ]


def bench_level_kernel(
    settings: Sequence[tuple[str, float, float]] | None = None,
    subtrees: int = 4,
    leaves: int = 256,
    reps: int = 3,
    seed: int = 7,
) -> list[dict]:
    """The upper levels of real data sub-trees: level kernel vs per-node loop.

    Per setting, ``subtrees`` sub-trees of ``leaves`` values get their
    pair level from :func:`data_pair_rows` once; then every level above
    it runs through ``_run_levels`` (the level kernel, with its per-node
    remainder) and through one :func:`combine_rows` per node, interleaved,
    minimum over ``reps``.  ``width`` is the mean width of the pair rows.
    """
    if settings is None:
        settings = DP_LEVEL_SETTINGS
    rows = []
    for kind, epsilon, delta in settings:
        rng = np.random.default_rng(seed)
        levels = [
            data_pair_rows(_level_values(kind, leaves, rng), epsilon, delta)
            for _ in range(subtrees)
        ]
        level_seconds = loop_seconds = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for pairs in levels:
                _run_levels(pairs, epsilon, delta, [None] * (leaves // 2) + list(pairs))
            level_seconds = min(level_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            for pairs in levels:
                _per_node_levels(pairs, epsilon, delta)
            loop_seconds = min(loop_seconds, time.perf_counter() - start)
        rows.append(
            {
                "data": kind,
                "epsilon": epsilon,
                "delta": delta,
                "subtrees": subtrees,
                "leaves": leaves,
                "width": float(np.mean([len(row) for pairs in levels for row in pairs])),
                "level_seconds": level_seconds,
                "loop_seconds": loop_seconds,
                "speedup": loop_seconds / level_seconds,
            }
        )
    return rows


def bench_level_sizes(
    settings: Sequence[tuple[str, float, float]] | None = None,
    sizes: Sequence[int] | None = None,
    subtrees: int = 4,
    leaves: int = 256,
    reps: int = 3,
    seed: int = 7,
) -> list[dict]:
    """One level of a given node count: the level kernel vs the per-node loop.

    Per setting, ``subtrees`` sub-trees of ``leaves`` values are solved
    once; then, per entry of ``sizes``, each sub-tree's level of that
    many nodes is combined from its real child rows through
    ``_batch_level`` (the level kernel at any size) and through one
    :func:`combine_rows` per node, interleaved, minimum over ``reps``.
    These rows place ``_MIN_LEVEL_NODES``, below which
    :func:`combine_level` runs the per-node loop.  ``width`` is the mean
    width of the child rows.
    """
    if settings is None:
        settings = DP_LEVEL_SETTINGS
    if sizes is None:
        sizes = DP_LEVEL_SIZES
    rows = []
    for kind, epsilon, delta in settings:
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(subtrees):
            pairs = data_pair_rows(_level_values(kind, leaves, rng), epsilon, delta)
            trees.append(
                _run_levels(pairs, epsilon, delta, [None] * (leaves // 2) + list(pairs))
            )
        for size in sizes:
            # The level of `size` nodes joins the children at [2·size, 4·size).
            inputs = [
                (tree[2 * size : 4 * size : 2], tree[2 * size + 1 : 4 * size : 2])
                for tree in trees
            ]
            batch_seconds = loop_seconds = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                for lefts, rights in inputs:
                    _batch_level(lefts, rights, epsilon, delta)
                batch_seconds = min(batch_seconds, time.perf_counter() - start)
                start = time.perf_counter()
                for lefts, rights in inputs:
                    for left, right in zip(lefts, rights):
                        combine_rows(left, right, epsilon, delta)
                loop_seconds = min(loop_seconds, time.perf_counter() - start)
            rows.append(
                {
                    "data": kind,
                    "epsilon": epsilon,
                    "delta": delta,
                    "nodes": size,
                    "subtrees": subtrees,
                    "width": float(
                        np.mean([len(row) for pair in inputs for side in pair for row in side])
                    ),
                    "batch_seconds": batch_seconds,
                    "loop_seconds": loop_seconds,
                    "speedup": loop_seconds / batch_seconds,
                }
            )
    return rows


def bench_leaf_batch(
    leaves: int = 4096, reps: int = 3, seed: int = 7, delta: float = 1.0
) -> dict:
    """Benchmark batched :func:`leaf_rows` against the per-leaf loop."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100.0, 100.0, leaves)
    epsilon = 25.0
    batched_seconds = loop_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        leaf_rows(values, epsilon, delta)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        [leaf_row(float(value), epsilon, delta) for value in values]
        loop_seconds = min(loop_seconds, time.perf_counter() - start)
    return {
        "leaves": leaves,
        "vectorized_seconds": batched_seconds,
        "reference_seconds": loop_seconds,
        "speedup": loop_seconds / batched_seconds,
    }


def bench_data_pairs(
    leaves: int = 256,
    reps: int = 3,
    seed: int = 7,
    epsilon: float = 6.0,
    delta: float = 0.1,
) -> dict:
    """Benchmark one data sub-tree's bottom combine level.

    :func:`data_pair_rows` against what it replaced — :func:`leaf_rows`
    plus one :func:`combine_rows` per pair — on the e2e benchmark's
    build-dp input: a rounded random walk at ``epsilon = 6``, ``delta =
    0.1`` (rows ~120 wide), one 256-leaf sub-tree.  Interleaved, minimum
    over ``reps``.
    """
    rng = np.random.default_rng(seed)
    values = np.round(100.0 + np.cumsum(rng.normal(0.0, 2.0, leaves)))
    kernel_seconds = reference_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        data_pair_rows(values, epsilon, delta)
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        rows = leaf_rows(values, epsilon, delta)
        [combine_rows(rows[i], rows[i + 1], epsilon, delta) for i in range(0, leaves, 2)]
        reference_seconds = min(reference_seconds, time.perf_counter() - start)
    return {
        "leaves": leaves,
        "epsilon": epsilon,
        "delta": delta,
        "vectorized_seconds": kernel_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / kernel_seconds,
    }


def rho_build_inputs(n: int, seed: int = 7) -> tuple[np.ndarray, float, float]:
    """Reproducible end-to-end build input: a random walk plus the
    ``(epsilon, delta)`` regime where quantization dominates DP cost
    (fine grid relative to the error band, so exact M-rows are wide)."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(0.0, 1.0, n))
    return data, 3.0, 0.01


def bench_rho_build(
    n: int = 2048,
    rhos: Sequence[float] | None = None,
    reps: int = 2,
    seed: int = 7,
) -> dict:
    """End-to-end MinHaarSpace build: exact DP vs the approximate tier.

    One row per ``rho``, each carrying the measured speedup over the
    exact build *and* the guarantee checks of
    :func:`repro.algos.minhaarspace.approx_params` — ``max_error <=
    (1 + rho) * epsilon`` and ``size <=`` the exact solver's size — so a
    baseline refresh that violated the proof would fail before it ever
    landed.
    """
    if rhos is None:
        rhos = DP_RHO_GRID
    data, epsilon, delta = rho_build_inputs(n, seed)
    exact = min_haar_space(data, epsilon, delta)
    exact_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        min_haar_space(data, epsilon, delta)
        exact_seconds = min(exact_seconds, time.perf_counter() - start)
    rows = []
    for rho in rhos:
        approx = min_haar_space(data, epsilon, delta, rho=rho)
        seconds = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            min_haar_space(data, epsilon, delta, rho=rho)
            seconds = min(seconds, time.perf_counter() - start)
        error_bound = (1.0 + rho) * epsilon
        rows.append(
            {
                "rho": rho,
                "seconds": seconds,
                "speedup": exact_seconds / seconds,
                "size": approx.size,
                "max_error": approx.max_error,
                "error_bound": error_bound,
                "within_bound": bool(approx.max_error <= error_bound + 1e-9),
                "size_ok": bool(approx.size <= exact.size),
            }
        )
    return {
        "n": n,
        "epsilon": epsilon,
        "delta": delta,
        "exact_seconds": exact_seconds,
        "exact_size": exact.size,
        "exact_error": exact.max_error,
        "rows": rows,
    }


def bench_rho_distributed(
    n: int = 1024,
    budget: int | None = None,
    subtree_leaves: int = 256,
    rhos: Sequence[float] | None = None,
    reps: int = 1,
    seed: int = 7,
) -> dict:
    """End-to-end DIndirectHaar build: exact probes vs coarsened probes.

    The primal guarantee checked per ``rho`` row is ``max_error <=
    (1 + rho) * (E_exact + resolution)`` with the same
    :func:`repro.algos.indirect_haar.search_resolution` the driver uses,
    plus ``size <= budget`` — i.e. coarsening may never buy speed by
    overspending the budget.
    """
    from repro.algos.conventional import conventional_synopsis
    from repro.algos.indirect_haar import search_resolution
    from repro.core.dindirect import d_indirect_haar

    if rhos is None:
        rhos = DP_RHO_GRID
    data, _, delta = rho_build_inputs(n, seed)
    if budget is None:
        budget = max(n // 16, 1)
    error_high = conventional_synopsis(data, budget).max_abs_error(data)

    exact = d_indirect_haar(data, budget, delta, subtree_leaves=subtree_leaves)
    exact_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        d_indirect_haar(data, budget, delta, subtree_leaves=subtree_leaves)
        exact_seconds = min(exact_seconds, time.perf_counter() - start)
    exact_error = float(exact.meta["max_abs_error"])
    rows = []
    for rho in rhos:
        approx = d_indirect_haar(
            data, budget, delta, subtree_leaves=subtree_leaves, rho=rho
        )
        seconds = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            d_indirect_haar(data, budget, delta, subtree_leaves=subtree_leaves, rho=rho)
            seconds = min(seconds, time.perf_counter() - start)
        resolution = search_resolution(error_high, delta, n, rho)
        error_bound = (1.0 + rho) * (exact_error + resolution)
        max_error = float(approx.meta["max_abs_error"])
        rows.append(
            {
                "rho": rho,
                "seconds": seconds,
                "speedup": exact_seconds / seconds,
                "size": approx.size,
                "dp_runs": approx.meta["dp_runs"],
                "max_error": max_error,
                "error_bound": error_bound,
                "within_bound": bool(max_error <= error_bound + 1e-9),
                "budget_ok": bool(approx.size <= budget),
            }
        )
    return {
        "n": n,
        "budget": budget,
        "delta": delta,
        "subtree_leaves": subtree_leaves,
        "exact_seconds": exact_seconds,
        "exact_size": exact.size,
        "exact_error": exact_error,
        "exact_dp_runs": exact.meta["dp_runs"],
        "rows": rows,
    }
