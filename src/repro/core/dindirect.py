"""DIndirectHaar: the distributed Algorithm 2.

Drives the binary search of IndirectHaar with DMHaarSpace probes, plus the
two extra bound jobs the paper describes (Section 4):

* **lower bound** — the ``(B+1)``-largest coefficient magnitude: every
  mapper emits its local top ``B+1`` magnitudes and its sub-tree average
  (so the reducer can also rank the root sub-tree's coefficients);
* **upper bound** — the max-abs error of the conventional ``B``-term
  synopsis: the synopsis (built by the parallel CON algorithm) is
  broadcast, and each mapper bottom-up evaluates its own data slice by
  combining the synopsis's path coefficients above its sub-tree with the
  retained coefficients inside it.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Mapping
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.indirect_haar import (
    conventional_is_exact,
    indirect_haar_search,
    search_resolution,
)
from repro.core.conventional_dist import con_synopsis
from repro.algos.minhaarspace import DualSolution, check_dp_params
from repro.core.dp_framework import dm_haar_space, resolve_layer_plan
from repro.core.partitioning import LayerPlan
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import InputSplit, aligned_splits
from repro.mapreduce.job import MapReduceJob
from repro.wavelet.synopsis import WaveletSynopsis, reconstruct_segment
from repro.wavelet.transform import haar_transform, is_power_of_two

__all__ = ["d_indirect_haar"]


class _LowerBoundJob(MapReduceJob):
    """Distributed ``(B+1)``-largest coefficient magnitude."""

    name = "dindirect-lower-bound"
    stage_label = "dindirect.lower_bound"
    num_reducers = 1

    def __init__(self, n: int, budget: int, split_size: int) -> None:
        self.n = n
        self.budget = budget
        self.split_size = split_size

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        local = haar_transform(split.values)
        magnitudes = np.abs(local[1:])
        top = np.sort(magnitudes)[::-1][: self.budget + 1]
        for value in top:
            yield "mag", float(value)
        yield "avg", (split.split_id, float(local[0]))

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        magnitudes: list[float] = []
        averages: dict[int, float] = {}
        for key, payload in records:
            if key == "mag":
                magnitudes.append(payload)
            else:
                split_id, average = payload
                averages[split_id] = average
        root_coeffs = haar_transform([averages[i] for i in range(len(averages))])
        magnitudes.extend(abs(float(v)) for v in root_coeffs)
        top = heapq.nlargest(self.budget + 1, magnitudes)
        yield "bound", (top[-1] if len(top) > self.budget else 0.0)


class _EvaluateSynopsisJob(MapReduceJob):
    """Distributed max-abs evaluation of a broadcast synopsis."""

    name = "dindirect-upper-bound"
    stage_label = "dindirect.upper_bound"
    num_reducers = 1

    def __init__(self, n: int, retained: Mapping[int, float], split_size: int) -> None:
        self.n = n
        self.synopsis = WaveletSynopsis(n, retained)
        self.split_size = split_size

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        size = len(split)
        approximation = reconstruct_segment(self.synopsis, split.split_id * size, size)
        yield "err", float(np.max(np.abs(approximation - split.values)))

    def reduce(self, key: Any, values: list[Any]) -> Iterator[tuple[Any, Any]]:
        yield key, max(values)


def d_indirect_haar(
    data: ArrayLike,
    budget: int,
    delta: float,
    cluster: SimulatedCluster | None = None,
    subtree_leaves: int = 1024,
    max_iterations: int = 48,
    rho: float = 0.0,
    layer_plan: LayerPlan | str | None = None,
) -> WaveletSynopsis:
    """DIndirectHaar: Problem 1 at cluster scale (Algorithm 2 + Section 4).

    Same search as :func:`repro.algos.indirect_haar.indirect_haar` with
    every probe answered by DMHaarSpace.  The synopsis matches the
    centralized IndirectHaar coefficient-for-coefficient because both the
    bounds and the DP are computed exactly.

    ``rho > 0`` runs every DMHaarSpace probe (and the final constructing
    run) at the coarsened approximate tier, shrinking the shipped M-rows
    — and with them the Eq. 6 communication per layer — while keeping
    ``size <= budget`` and the :func:`~repro.algos.indirect_haar.indirect_haar`
    error guarantee.

    ``layer_plan`` selects the DP band schedule for every probe: a
    :class:`~repro.core.partitioning.LayerPlan`, the plan grammar
    (``"h=K"``, ``"H1,H2,..."``, optional ``"@driver"``), or ``"auto"``
    to let :func:`~repro.core.layer_planner.plan_layers_auto` pick the
    predicted-makespan minimizer.  The plan is resolved *once*, at the
    representative probe epsilon ``error_high``, and reused across the
    whole binary search — probes at different epsilons must execute the
    same jobs for their traces (and the search's round count) to be
    comparable.
    """
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    check_dp_params(delta, rho)
    n = int(values.shape[0])
    cluster = cluster or SimulatedCluster()
    split_size = min(subtree_leaves, n)

    # Bound job 1: the conventional synopsis (parallel CON) ...
    conventional = con_synopsis(values, budget, cluster, split_size=split_size)
    # ... evaluated distributively for the upper bound.
    if n > split_size:
        evaluation = cluster.run_job(
            _EvaluateSynopsisJob(n, conventional.coefficients, split_size),
            aligned_splits(values, split_size),
        )
        error_high = max(err for _, err in evaluation.output)
        lower = cluster.run_job(
            _LowerBoundJob(n, budget, split_size), aligned_splits(values, split_size)
        )
        error_low = dict(lower.output)["bound"]
    else:
        with cluster.driver():
            error_high = conventional.max_abs_error(values)
            from repro.algos.conventional import largest_coefficient

            error_low = largest_coefficient(haar_transform(values), budget + 1)

    if conventional_is_exact(error_low):
        conventional.meta.update(
            {"algorithm": "DIndirectHaar", "dp_runs": 0, "rho": rho}
        )
        return conventional

    # Resolve the band schedule once, at the representative epsilon
    # error_high (the widest rows any probe will ship), so every probe
    # and the constructing run execute the identical job sequence.
    plan = (
        resolve_layer_plan(layer_plan, n, error_high, delta, cluster, rho=rho)
        if n > 1
        else None
    )

    # Probes skip the top-down pass; only the winning bound is constructed.
    # Each probe's solution carries its epsilon (DualSolution.epsilon), so
    # re-running the winner needs no external solution-to-epsilon map.
    def solver(epsilon: float) -> DualSolution:
        return dm_haar_space(
            values,
            epsilon,
            delta,
            cluster,
            subtree_leaves=subtree_leaves,
            construct=False,
            rho=rho,
            layer_plan=plan,
        )

    best, runs = indirect_haar_search(
        solver,
        error_low,
        error_high,
        budget,
        search_resolution(error_high, delta, n, rho),
        max_iterations,
    )
    final = dm_haar_space(
        values,
        best.epsilon,
        delta,
        cluster,
        subtree_leaves=subtree_leaves,
        construct=True,
        rho=rho,
        layer_plan=plan,
    )
    synopsis = final.synopsis
    synopsis.meta.update(
        {
            "algorithm": "DIndirectHaar",
            "budget": budget,
            "delta": delta,
            "rho": rho,
            "max_abs_error": final.max_error,
            "dp_runs": runs,
            "cluster": cluster.log.as_dict(),
        }
    )
    return synopsis
