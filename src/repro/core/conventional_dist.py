"""Parallel construction of the conventional (L2) synopsis — Appendix A.

Four algorithms, all producing the *same* top-``B``-by-significance
synopsis and differing only in partitioning, computation, and
communication:

* **CON** (A.1): the paper's own algorithm; sub-tree aligned splits, each
  mapper computes its local transform and ships all local coefficients
  plus its sub-tree average; one reducer keeps the top-``B`` and builds
  the root sub-tree from the averages.  Communication ``O(N)``.
* **Send-V** (A.2): mappers forward raw data; the reducer computes the
  whole transform sequentially.  The degenerate baseline.
* **Send-Coef** (A.3, from Jestes et al. [21]): HDFS-block splits with no
  power-of-two alignment.  A mapper emits complete values for the
  coefficients fully contained in its block, and *per-datapoint partial
  contributions* for the ``O(log N - log S)`` straddling path
  coefficients — the extra communication the paper's CON avoids.
* **H-WTopk** (A.4, from [21]): a TPUT-style three-round top-``k`` that
  prunes with partial-sum thresholds; communication-efficient only when
  ``B`` is small relative to the mapper input (Figure 11), and
  memory-hungry when it is not (Figure 10).

Selection everywhere is by normalized significance
``|c| / sqrt(2**level)`` with ties broken on the lower index, so all four
return coefficient-identical synopses (verified in tests).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Iterator
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import InputSplit, aligned_splits, block_splits
from repro.mapreduce.job import MapReduceJob
from repro.core.partitioning import local_to_global
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import (
    coefficient_level,
    haar_transform,
    is_power_of_two,
)

__all__ = ["con_synopsis", "send_v_synopsis", "send_coef_synopsis", "h_wtopk_synopsis"]


def _significance(index: int, value: float) -> float:
    return abs(value) / math.sqrt(2.0 ** coefficient_level(index))


def _select_top_b(values: dict[int, float], budget: int) -> dict[int, float]:
    """Top-``budget`` coefficients by significance, lowest-index ties first."""
    ranked = heapq.nsmallest(
        budget,
        values.items(),
        key=lambda item: (-_significance(item[0], item[1]), item[0]),
    )
    return {index: value for index, value in ranked if value != 0.0}


def _prepare(
    data: ArrayLike, budget: int, split_size: int
) -> tuple[NDArray[np.float64], int]:
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    if split_size > values.shape[0]:
        split_size = int(values.shape[0])
    return values, split_size


# ---------------------------------------------------------------------------
# CON (Appendix A.1)
# ---------------------------------------------------------------------------


class _ConJob(MapReduceJob):
    name = "con"
    stage_label = "conventional.con"
    num_reducers = 1

    def __init__(self, n: int, budget: int, split_size: int) -> None:
        self.n = n
        self.budget = budget
        self.split_size = split_size

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        local = haar_transform(split.values)
        subtree_root = (self.n // self.split_size) + split.split_id
        for local_node in range(1, len(local)):
            yield "coef", (local_to_global(subtree_root, local_node), float(local[local_node]))
        yield "avg", (split.split_id, float(local[0]))

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        coefficients: dict[int, float] = {}
        averages: dict[int, float] = {}
        for key, payload in records:
            if key == "coef":
                index, value = payload
                coefficients[index] = value
            else:
                split_id, average = payload
                averages[split_id] = average
        root_coeffs = haar_transform([averages[i] for i in range(len(averages))])
        for index, value in enumerate(root_coeffs):
            coefficients[index] = float(value)
        yield "synopsis", _select_top_b(coefficients, self.budget)


def con_synopsis(
    data: ArrayLike, budget: int, cluster: SimulatedCluster | None = None, split_size: int = 1024
) -> WaveletSynopsis:
    """CON: conventional synopsis with locality-preserving partitioning."""
    values, split_size = _prepare(data, budget, split_size)
    cluster = cluster or SimulatedCluster()
    job = _ConJob(int(values.shape[0]), budget, split_size)
    result = cluster.run_job(job, aligned_splits(values, split_size))
    retained = dict(result.output)["synopsis"]
    return WaveletSynopsis(
        n=int(values.shape[0]),
        coefficients=retained,
        meta={"algorithm": "CON", "budget": budget},
    )


# ---------------------------------------------------------------------------
# Send-V (Appendix A.2)
# ---------------------------------------------------------------------------


class _SendVJob(MapReduceJob):
    name = "send-v"
    stage_label = "conventional.send_v"
    num_reducers = 1

    def __init__(self, n: int, budget: int) -> None:
        self.n = n
        self.budget = budget

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        for i, value in enumerate(split.values):
            yield split.offset + i, float(value)

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        data = np.empty(self.n, dtype=np.float64)
        for index, value in records:
            data[index] = value
        coefficients = haar_transform(data)
        values = {i: float(c) for i, c in enumerate(coefficients)}
        yield "synopsis", _select_top_b(values, self.budget)


def send_v_synopsis(
    data: ArrayLike, budget: int, cluster: SimulatedCluster | None = None, split_size: int = 1024
) -> WaveletSynopsis:
    """Send-V: ship raw values; the reducer transforms sequentially."""
    values, split_size = _prepare(data, budget, split_size)
    cluster = cluster or SimulatedCluster()
    job = _SendVJob(int(values.shape[0]), budget)
    result = cluster.run_job(job, block_splits(values, split_size))
    retained = dict(result.output)["synopsis"]
    return WaveletSynopsis(
        n=int(values.shape[0]),
        coefficients=retained,
        meta={"algorithm": "Send-V", "budget": budget},
    )


# ---------------------------------------------------------------------------
# Send-Coef (Appendix A.3)
# ---------------------------------------------------------------------------


def _block_contributions(split: InputSplit, n: int) -> Iterator[tuple[int, float]]:
    """Yield Send-Coef emissions for one HDFS block.

    Complete coefficients (support inside the block) are emitted once;
    straddling path coefficients are emitted as one partial contribution
    *per datapoint* (Algorithm 7), which is exactly the
    ``O(S (log N - log S))`` communication the paper charges against
    Send-Coef.  The contribution of ``d_i`` to ``c_j`` is
    ``delta_ij * d_i / support(j)`` (and ``d_i / N`` to ``c_0``).
    """
    a = split.offset
    b = a + len(split)
    block = np.asarray(split.values, dtype=np.float64)
    prefix = np.concatenate([[0.0], np.cumsum(block)])

    def range_sum(lo: int, hi: int) -> float:
        # Sum of data[lo:hi] clipped to the block.
        lo = max(lo, a)
        hi = min(hi, b)
        if hi <= lo:
            return 0.0
        return float(prefix[hi - a] - prefix[lo - a])

    log_n = n.bit_length() - 1
    for level in range(log_n):
        support = n >> level
        first_node = (1 << level) + a // support
        last_node = (1 << level) + (b - 1) // support
        for node in range(first_node, last_node + 1):
            node_lo = (node - (1 << level)) * support
            node_hi = node_lo + support
            mid = node_lo + support // 2
            if node_lo >= a and node_hi <= b:
                value = (range_sum(node_lo, mid) - range_sum(mid, node_hi)) / support
                yield node, value
            else:
                # Straddling node: per-datapoint partial contributions.
                for i in range(max(node_lo, a), min(node_hi, b)):
                    sign = 1.0 if i < mid else -1.0
                    yield node, sign * block[i - a] / support
    # c_0 always straddles (unless the block is the whole dataset).
    if a == 0 and b == n:
        yield 0, float(prefix[-1]) / n
    else:
        for i in range(a, b):
            yield 0, block[i - a] / n


class _SendCoefJob(MapReduceJob):
    name = "send-coef"
    stage_label = "conventional.send_coef"
    num_reducers = 1

    def __init__(self, n: int, budget: int) -> None:
        self.n = n
        self.budget = budget

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        yield from _block_contributions(split, self.n)

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        totals: dict[int, float] = {}
        for index, value in records:
            totals[index] = totals.get(index, 0.0) + value
        # Clean float dust so implicit zeros match the other algorithms.
        cleaned = {i: (0.0 if abs(v) < 1e-9 else v) for i, v in totals.items()}
        yield "synopsis", _select_top_b(cleaned, self.budget)


def send_coef_synopsis(
    data: ArrayLike, budget: int, cluster: SimulatedCluster | None = None, block_size: int = 1500
) -> WaveletSynopsis:
    """Send-Coef: per-datapoint path contributions over unaligned blocks."""
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    cluster = cluster or SimulatedCluster()
    job = _SendCoefJob(int(values.shape[0]), budget)
    result = cluster.run_job(job, block_splits(values, block_size))
    retained = dict(result.output)["synopsis"]
    return WaveletSynopsis(
        n=int(values.shape[0]),
        coefficients=retained,
        meta={"algorithm": "Send-Coef", "budget": budget},
    )


# ---------------------------------------------------------------------------
# H-WTopk (Appendix A.4)
# ---------------------------------------------------------------------------


def _local_partial_values(split: InputSplit, n: int) -> dict[int, float]:
    """A mapper's partial *normalized* coefficient values ``c_j(x)``."""
    totals: dict[int, float] = {}
    for node, value in _block_contributions(split, n):
        totals[node] = totals.get(node, 0.0) + value
    return {
        node: value / math.sqrt(2.0 ** coefficient_level(node))
        for node, value in totals.items()
    }


class _HWTopkRound(MapReduceJob):
    """One communication round of H-WTopk.

    ``mode`` selects what the mappers send: the top/bottom ``k`` local
    values (round 1), everything above the ``T1/m`` threshold (round 2),
    or the values of the surviving candidate set (round 3).
    """

    #: All three rounds share one role (the per-instance ``name`` carries
    #: the round mode).
    stage_label = "conventional.h_wtopk"
    num_reducers = 1

    def __init__(
        self,
        n: int,
        k: int,
        mode: str,
        threshold: float = 0.0,
        candidates: set[int] | None = None,
    ) -> None:
        self.n = n
        self.k = k
        self.mode = mode
        self.threshold = threshold
        self.candidates = candidates or set()
        self.name = f"h-wtopk-round-{mode}"

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        local = _local_partial_values(split, self.n)
        mapper_id = split.split_id
        if self.mode == "extremes":
            ordered = sorted(local.items(), key=lambda item: item[1])
            lowest = ordered[: self.k]
            highest = ordered[-self.k :]
            kth_high = highest[0][1] if highest else 0.0
            kth_low = lowest[-1][1] if lowest else 0.0
            yield "bounds", (mapper_id, kth_high, kth_low)
            for node, value in {**dict(lowest), **dict(highest)}.items():
                yield "value", (mapper_id, node, value)
        elif self.mode == "threshold":
            for node, value in local.items():
                if abs(value) > self.threshold:
                    yield "value", (mapper_id, node, value)
        else:  # mode == "candidates"
            # Sorted: iterating the set directly would emit records in
            # hash order, making the round's map output run-dependent.
            for node in sorted(self.candidates):
                yield "value", (mapper_id, node, local.get(node, 0.0))

    def reduce(self, key: Any, values: list[Any]) -> Iterator[tuple[Any, Any]]:
        yield key, list(values)


def _tau_bounds(
    seen: dict[int, dict[int, float]],
    mapper_count: int,
    high_default: Callable[[int], float],
    low_default: Callable[[int], float],
) -> dict[int, tuple[float, float]]:
    """Per-coefficient total-value bounds (tau+, tau-) from partial sums."""
    bounds: dict[int, tuple[float, float]] = {}
    for node, per_mapper in seen.items():
        tau_plus = 0.0
        tau_minus = 0.0
        for mapper_id in range(mapper_count):
            if mapper_id in per_mapper:
                tau_plus += per_mapper[mapper_id]
                tau_minus += per_mapper[mapper_id]
            else:
                tau_plus += high_default(mapper_id)
                tau_minus += low_default(mapper_id)
        bounds[node] = (tau_plus, tau_minus)
    return bounds


def _tau_magnitude(tau_plus: float, tau_minus: float) -> float:
    if (tau_plus >= 0) != (tau_minus >= 0):
        return 0.0
    return min(abs(tau_plus), abs(tau_minus))


def _kth_largest(values: Iterable[float], k: int) -> float:
    ordered = sorted(values, reverse=True)
    if not ordered:
        return 0.0
    return ordered[min(k, len(ordered)) - 1]


def h_wtopk_synopsis(
    data: ArrayLike, budget: int, cluster: SimulatedCluster | None = None, block_size: int = 1500
) -> WaveletSynopsis:
    """H-WTopk: three-round TPUT-style top-``B`` (Appendix A.4)."""
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    if budget <= 0:
        raise InvalidInputError("H-WTopk requires a positive budget")
    cluster = cluster or SimulatedCluster()
    n = int(values.shape[0])
    splits = block_splits(values, block_size)
    mapper_count = len(splits)

    with cluster.runtime.session():
        # Round 1: local extremes -> threshold T1.
        round1 = cluster.run_job(_HWTopkRound(n, budget, "extremes"), splits)
        kth_high: dict[int, float] = {}
        kth_low: dict[int, float] = {}
        seen: dict[int, dict[int, float]] = {}
        peak_records = 0
        for key, payloads in round1.output:
            peak_records += len(payloads)
            for payload in payloads:
                if key == "bounds":
                    mapper_id, high, low = payload
                    kth_high[mapper_id] = high
                    kth_low[mapper_id] = low
                else:
                    mapper_id, node, value = payload
                    seen.setdefault(node, {})[mapper_id] = value

        bounds = _tau_bounds(
            seen, mapper_count, kth_high.__getitem__, kth_low.__getitem__
        )
        t1 = _kth_largest(
            (_tau_magnitude(tp, tm) for tp, tm in bounds.values()), budget
        )

        # Round 2: everything above T1/m -> refined threshold T2 and pruning.
        round2 = cluster.run_job(
            _HWTopkRound(
                n, budget, "threshold", threshold=t1 / max(mapper_count, 1)
            ),
            splits,
        )
        for key, payloads in round2.output:
            peak_records += len(payloads)
            for mapper_id, node, value in payloads:
                seen.setdefault(node, {})[mapper_id] = value

        default = t1 / max(mapper_count, 1)
        bounds = _tau_bounds(seen, mapper_count, lambda m: default, lambda m: -default)
        t2 = _kth_largest(
            (_tau_magnitude(tp, tm) for tp, tm in bounds.values()), budget
        )
        candidates = {
            node
            for node, (tp, tm) in bounds.items()
            if max(abs(tp), abs(tm)) >= t2
        }

        # Round 3: exact values of the candidates.
        round3 = cluster.run_job(
            _HWTopkRound(n, budget, "candidates", candidates=candidates), splits
        )
        totals: dict[int, float] = {}
        for _, payloads in round3.output:
            peak_records += len(payloads)
            for _, node, value in payloads:
                totals[node] = totals.get(node, 0.0) + value

    top = heapq.nsmallest(
        budget, totals.items(), key=lambda item: (-abs(item[1]), item[0])
    )
    # De-normalize back to error-tree coefficient values.
    retained = {
        node: (0.0 if abs(norm) < 1e-9 else norm * math.sqrt(2.0 ** coefficient_level(node)))
        for node, norm in top
    }
    retained = {node: value for node, value in retained.items() if value != 0.0}
    return WaveletSynopsis(
        n=n,
        coefficients=retained,
        meta={
            "algorithm": "H-WTopk",
            "budget": budget,
            "candidate_count": len(candidates),
            "peak_records": peak_records,
        },
    )
