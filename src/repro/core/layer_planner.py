"""Adaptive layer planning for the distributed DP (ROADMAP item 3).

The layered DP runs one MapReduce stage per band of the error tree, so a
*fixed* band height ``h`` fixes the round count and the per-round
communication blind to the cluster.  This module chooses a per-layer
height schedule (:class:`~repro.core.partitioning.LayerPlan`) by
minimizing *predicted* makespan under the same cost model the simulated
cluster prices with (:class:`~repro.mapreduce.cluster.ClusterConfig`):
slots, task/job startup overheads, and shuffle bandwidth — plus the
Eq. 6 per-layer byte budgets, which are a closed form of the plan
(``|Layer_i|`` records of at most ``MRow(W_max)`` bytes).

Two structural levers follow Bateni et al. (*Massively Parallel Dynamic
Programming on Trees*): **taller bands** merge rounds (each band is one
synchronous MPC round, and job/task startup is paid per round), and the
**driver-resident top band** collapses the last ``O(1)``-size levels
onto the coordinator instead of paying a whole round for one tiny task.
Afrati et al.'s cost model frames the counterweight: band height is
bounded by per-task memory (``max_height``), and too-tall bottom bands
quantize badly onto the slot pool (the ``ceil(tasks / slots)`` wave
term).  The planner searches the full composition space by dynamic
programming over remaining tree levels — ``O(log N * max_height)``
states, exact under the model.

The plan is a *performance* choice only: the layered DP computes exact
M-rows whatever the banding, so any plan yields bit-identical synopses
at ``rho = 0`` (property-tested).  The search is deterministic — the
model uses fixed calibration constants (:class:`WorkModel`), never live
timings — so every runtime and every probe of a binary search resolves
the same plan, keeping traces canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algos.minhaarspace import MRow, max_row_entries
from repro.core.dp_framework import LAYER_RECORD_OVERHEAD
from repro.core.partitioning import LayerPlan
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import ClusterConfig
from repro.wavelet.transform import is_power_of_two

__all__ = [
    "WorkModel",
    "plan_layers_auto",
    "predict_plan_seconds",
]


@dataclass(frozen=True)
class WorkModel:
    """Fixed per-operation cost constants of the map-side DP.

    Calibrated once against the windowed kernel on the reference
    container (order-of-magnitude accuracy is enough: the planner only
    ranks plans, and the levers it trades — startup overheads, wave
    quantization, shuffle volume — are taken from the live
    :class:`~repro.mapreduce.cluster.ClusterConfig`).  Deliberately
    *not* measured at plan time: live calibration would make the chosen
    plan — and with it the canonical trace — nondeterministic.
    """

    #: Building one leaf row (vectorized ``leaf_rows``, amortized).
    seconds_per_leaf: float = 8e-6
    #: Fixed overhead of one ``combine_rows`` call.
    combine_call_seconds: float = 9e-5
    #: Marginal cost per grid entry of a combined row.
    combine_entry_seconds: float = 1.5e-6
    #: Visiting one node during the top-down traceback.
    traceback_node_seconds: float = 2e-6


def _band_seconds(
    subtrees: int,
    items: int,
    entries: int,
    is_bottom: bool,
    config: ClusterConfig,
    work: WorkModel,
    passes: int,
) -> float:
    """Predicted cost of one distributed band: bottom-up job + traceback."""
    per_task = (items - 1) * (
        work.combine_call_seconds + entries * work.combine_entry_seconds
    )
    if is_bottom:
        per_task += items * work.seconds_per_leaf
    waves = math.ceil(subtrees / config.map_slots)
    bottom_up = (
        config.job_startup_seconds
        + waves * (config.task_startup_seconds + per_task)
        + subtrees
        * (LAYER_RECORD_OVERHEAD + MRow.sized(entries))
        / config.shuffle_bytes_per_second
    )
    traceback = config.job_startup_seconds + waves * (
        config.task_startup_seconds + items * work.traceback_node_seconds
    )
    return bottom_up + (passes - 1) * traceback


def _driver_band_seconds(
    items: int, entries: int, work: WorkModel, passes: int
) -> float:
    """Predicted cost of a driver-resident top band (no job, no shuffle)."""
    combine = (items - 1) * (
        work.combine_call_seconds + entries * work.combine_entry_seconds
    )
    return combine + (passes - 1) * items * work.traceback_node_seconds


def predict_plan_seconds(
    plan: LayerPlan,
    epsilon: float,
    delta: float,
    config: ClusterConfig,
    rho: float = 0.0,
    work: WorkModel | None = None,
    passes: int = 2,
) -> float:
    """Predicted end-to-end seconds of ``plan`` under the cluster model.

    The objective :func:`plan_layers_auto` minimizes, exposed so tests
    and benchmarks can verify the planner's optimality over the model
    (``passes=2`` prices a constructing run: one bottom-up plus one
    traceback pass per band).
    """
    work = work or WorkModel()
    entries = max_row_entries(epsilon, delta, plan.n, rho)
    total = 0.0
    for layer in plan.layers():
        items = layer.subtrees[0].leaf_count
        if plan.is_distributed(layer.index):
            total += _band_seconds(
                len(layer.subtrees),
                items,
                entries,
                layer.is_bottom,
                config,
                work,
                passes,
            )
        else:
            total += _driver_band_seconds(items, entries, work, passes)
    return total


def plan_layers_auto(
    n: int,
    epsilon: float,
    delta: float,
    config: ClusterConfig | None = None,
    rho: float = 0.0,
    work: WorkModel | None = None,
    max_height: int = 16,
    driver_items_cap: int = 4096,
    passes: int = 2,
) -> LayerPlan:
    """Choose the minimum-predicted-makespan layer plan for an ``N``-tree.

    Dynamic program over remaining tree levels: every composition of
    band heights up to ``max_height`` (the per-task memory guard: a band
    task holds ``2^h`` rows of ``W_max`` entries) is considered, plus a
    driver-resident top band of up to ``driver_items_cap`` items.  Ties
    break deterministically toward fewer rounds (taller bands, driver
    top preferred), so the same inputs always yield the same plan.

    The returned plan is used for *every* pass of a run — probes and the
    constructing run alike — so a binary-search driver resolves it once;
    ``passes=2`` (the default) prices the constructing shape.
    """
    if n < 2:
        raise InvalidInputError("layer planning needs at least a 2-point tree")
    config = config or ClusterConfig()
    work = work or WorkModel()
    if max_height < 1:
        raise InvalidInputError("max_height must be at least 1")
    if not is_power_of_two(n):
        raise InvalidInputError(f"N={n} is not a power of two")
    log_n = n.bit_length() - 1
    entries = max_row_entries(epsilon, delta, n, rho)

    # best[r] = (cost, heights-above-this-point bottom-up, driver_top) for
    # tiling the top ``r`` levels, given at least one band sits below
    # whenever r < log_n.
    best: dict[int, tuple[float, tuple[int, ...], bool]] = {0: (0.0, (), False)}
    for r in range(1, log_n + 1):
        choice: tuple[float, tuple[int, ...], bool] | None = None
        # Driver-resident top band: collapses all remaining levels onto
        # the coordinator.  Needs a distributed band below (r < log_n).
        if r < log_n and (1 << r) <= driver_items_cap:
            cost = _driver_band_seconds(1 << r, entries, work, passes)
            choice = (cost, (r,), True)
        for h in range(min(r, max_height), 0, -1):
            tail_cost, tail_heights, tail_driver = best[r - h]
            is_bottom = r == log_n
            cost = tail_cost + _band_seconds(
                1 << (r - h), 1 << h, entries, is_bottom, config, work, passes
            )
            if choice is None or cost < choice[0]:
                choice = (cost, (h,) + tail_heights, tail_driver)
        assert choice is not None  # h = 1 is always feasible
        best[r] = choice
    _, heights, driver_top = best[log_n]
    return LayerPlan(n=n, heights=heights, driver_top=driver_top)
