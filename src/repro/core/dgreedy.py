"""DGreedyAbs / DGreedyRel: the distributed greedy algorithms (Section 5).

The error tree is split into one *root sub-tree* (nodes ``c_0..c_{R-1}``,
processed at the driver) and ``R`` *base sub-trees* (Figure 4).  Because
removals in different base sub-trees interact only through the root
sub-tree, the algorithm:

1. runs GreedyAbs on the root sub-tree over *virtual leaves* (one per base
   sub-tree) and speculates ``min{R, B} + 1`` nested candidate retained
   sets ``C_root`` (``genRootSets``, Algorithm 4);
2. **job 1** — every level-1 worker (one per base sub-tree) replays
   GreedyAbs once per *distinct incoming error* its sub-tree sees across
   the candidates (at most ``log R + 2`` runs, Section 5.3), emitting
   *error-bucketed histograms* (``discardNode``/ErrHistGreedyAbs,
   Algorithm 3) instead of node lists — an int per bucket instead of the
   nodes themselves — once per level-2 worker that owns one of the
   run's candidates, not once per candidate;
3. level-2 workers merge the histograms per candidate and read off the
   best achievable error at rank ``B - |C_root|`` (``combineResults``,
   Algorithm 5); the driver picks the winning candidate;
4. **job 2** — each worker replays GreedyAbs once for the winning
   candidate only, now emitting the actual nodes whose removal error
   reaches the winning error, and the driver assembles the synopsis
   (Algorithm 6).

One refinement over the paper's Algorithm 5: a candidate's achievable
error is floored by ``max_j |e_in,j|`` — the incoming error a base
sub-tree cannot repair even when *all* its nodes are retained.  Each
worker therefore also emits its run's initial error, and
``combineResults`` takes the max of the rank error and that floor (the
rank alone can under-report when one sub-tree's nodes are all retained).

Setting ``metric="max_rel"`` swaps the GreedyRel engine in at both levels
(Section 5.4); the harness and tests exercise both.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.greedy_abs import GreedyAbsTree, GreedyRun
from repro.algos.greedy_rel import GreedyRelTree
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import FileDataset, InputSplit, aligned_splits
from repro.mapreduce.job import MapReduceJob
from repro.core.partitioning import local_to_global, root_base_partition
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND, check_sanity_bound
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform, is_power_of_two

__all__ = [
    "d_greedy_abs",
    "d_greedy_rel",
    "base_subtree_greedy",
    "root_subtree_greedy",
    "DEFAULT_BUCKET_WIDTH",
]

#: Default error-bucket width ``e_b`` of Algorithm 3.  Small enough that
#: bucketing never visibly degrades quality; the ablation bench sweeps it.
DEFAULT_BUCKET_WIDTH = 1e-6


class _GreedyEngine:
    """Strategy object: which greedy engine runs at the two worker levels."""

    metric = "max_abs"

    def root_run(self, root_coefficients: ArrayLike, virtual_leaves: ArrayLike) -> GreedyRun:
        raise NotImplementedError

    def base_run(
        self, local_coefficients: ArrayLike, leaf_values: ArrayLike, incoming_error: float
    ) -> GreedyRun:
        raise NotImplementedError


class _AbsEngine(_GreedyEngine):
    metric = "max_abs"

    def root_run(self, root_coefficients: ArrayLike, virtual_leaves: ArrayLike) -> GreedyRun:
        return GreedyAbsTree(root_coefficients, include_average=True).run_to_exhaustion()

    def base_run(
        self, local_coefficients: ArrayLike, leaf_values: ArrayLike, incoming_error: float
    ) -> GreedyRun:
        size = len(local_coefficients)  # type: ignore[arg-type]
        return GreedyAbsTree(
            local_coefficients,
            initial_errors=[incoming_error] * size,
            include_average=False,
        ).run_to_exhaustion()


class _RelEngine(_GreedyEngine):
    metric = "max_rel"

    def __init__(self, sanity_bound: float = DEFAULT_SANITY_BOUND) -> None:
        check_sanity_bound(sanity_bound)
        self.sanity_bound = sanity_bound

    def root_run(self, root_coefficients: ArrayLike, virtual_leaves: ArrayLike) -> GreedyRun:
        # Virtual-leaf denominators approximate each base sub-tree's data
        # by its average (exact when the sub-tree is near-constant).
        return GreedyRelTree(
            root_coefficients,
            virtual_leaves,
            sanity_bound=self.sanity_bound,
            include_average=True,
        ).run_to_exhaustion()

    def base_run(
        self, local_coefficients: ArrayLike, leaf_values: ArrayLike, incoming_error: float
    ) -> GreedyRun:
        size = len(local_coefficients)  # type: ignore[arg-type]
        return GreedyRelTree(
            local_coefficients,
            leaf_values,
            sanity_bound=self.sanity_bound,
            initial_errors=[incoming_error] * size,
            include_average=False,
        ).run_to_exhaustion()


@dataclass
class _Candidate:
    """One speculative ``C_root``: the last ``retained_count`` removals."""

    index: int  # == |C_root|
    retained: dict[int, float]  # global node -> coefficient value
    incoming: np.ndarray  # incoming signed error per base sub-tree


def _candidate_incoming_errors(
    root_run: GreedyRun, root_size: int, budget: int
) -> list[_Candidate]:
    """genRootSets (Algorithm 4) plus each candidate's incoming errors.

    Candidates are the nested suffixes of the root removal order.  The
    incoming error of virtual leaf ``j`` under a candidate equals the
    accumulated signed error of that leaf after the corresponding prefix
    of removals — replayed here exactly as the engine applied them.
    """
    removals = root_run.removals
    total = len(removals)
    max_retained = min(total, budget)

    # errors[t] = per-virtual-leaf signed error after t removals.
    errors = np.zeros(root_size, dtype=np.float64)
    states = [errors.copy()]
    for removal in removals:
        node, value = removal.node, removal.value
        if node == 0:
            errors -= value
        else:
            level = node.bit_length() - 1
            span = root_size >> level
            lo = (node - (1 << level)) * span
            mid, hi = lo + span // 2, lo + span
            errors[lo:mid] -= value
            errors[mid:hi] += value
        states.append(errors.copy())

    candidates = []
    for retained_count in range(max_retained + 1):
        cut = total - retained_count
        retained = {r.node: r.value for r in removals[cut:]}
        candidates.append(
            _Candidate(
                index=retained_count,
                retained=retained,
                incoming=states[cut],
            )
        )
    return candidates


#: One greedy run's ErrHistGreedyAbs histogram as columns: bucket errors
#: (float64, strictly ascending), node counts (int64) and cut errors
#: (float64) per bucket, then the run's final (all-removed) error.
_Histogram = tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _bucketized_histogram(run: GreedyRun, bucket_width: float) -> _Histogram:
    """Algorithm 3 over a whole run, extended with per-bucket cut errors.

    Nodes are appended to the running key-value while their bucketized
    removal error does not exceed the current maximum; a new key-value
    starts when a higher bucket appears.  Each bucket also records the
    *cut error*: the sub-tree's actual error in the state where this
    bucket and everything after it is retained (the actual error just
    before the bucket's first node was discarded).  Because max-error
    metrics are not monotone under removals, the cut error can be far
    below the bucket's running max, and carrying it is what lets
    ``combineResults`` consider retaining *fewer* than ``B - |C_root|``
    nodes — mirroring the centralized keep-removing-past-``B`` rule.

    Returns ``(bucket errors, node counts, cut errors, final error)``:
    the buckets in chronological (ascending bucket) order, and the
    actual error with every node of the sub-tree discarded.
    """
    after = np.array([removal.error_after for removal in run.removals], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.floor(after / bucket_width)
    if not np.isfinite(scaled).all():
        raise InvalidInputError(
            f"bucket width {bucket_width!r} makes error / width non-finite"
        )
    buckets = scaled * bucket_width
    running = np.maximum.accumulate(buckets)
    starts = np.flatnonzero(running > np.concatenate(([-math.inf], running))[:-1])
    counts = np.diff(np.append(starts, len(after)))
    cuts = np.concatenate(([run.initial_error], after))[starts]
    final_error = run.removals[-1].error_after if run.removals else run.initial_error
    return buckets[starts], counts, cuts, final_error


class _HistogramJob(MapReduceJob):
    """Job 1: speculative ErrHistGreedyAbs runs on every base sub-tree.

    Candidate ``k`` belongs to level-2 worker ``k * reducers // |C|``:
    contiguous ranges of the nested candidates.  A sub-tree's incoming
    error changes only when a candidate adds one of its ``log2 R + 1``
    root-path nodes, so it emits at most ``log2 R + 1 + reducers``
    records: one per (distinct incoming error, reducer), carrying the
    run's histogram columns once and the ids of the candidates it serves.
    """

    name = "dgreedy-histograms"
    stage_label = "dgreedy.histograms"

    def __init__(
        self,
        engine: _GreedyEngine,
        candidates: list[_Candidate],
        budget: int,
        bucket_width: float,
        num_reducers: int,
    ) -> None:
        self.engine = engine
        self.candidates = candidates
        self.budget = budget
        self.bucket_width = bucket_width
        self.num_reducers = num_reducers

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        subtree_index = split.split_id
        local = haar_transform(split.values)
        local_coefficients = local.copy()
        local_coefficients[0] = 0.0  # the average slot belongs to the root sub-tree

        # Group candidates by the (few) distinct incoming errors they
        # induce on this sub-tree: log R + 2 runs instead of |C| runs.
        by_incoming: dict[float, list[int]] = {}
        for candidate in self.candidates:
            by_incoming.setdefault(
                float(candidate.incoming[subtree_index]), []
            ).append(candidate.index)

        for incoming_error, candidate_ids in by_incoming.items():
            run = self.engine.base_run(local_coefficients, split.values, incoming_error)
            histogram = _bucketized_histogram(run, self.bucket_width)
            for reducer, group in groupby(candidate_ids, key=self._reducer_of):
                served = np.array(list(group), dtype=np.int64)
                yield (reducer, subtree_index, int(served[0])), (served, *histogram)

    def _reducer_of(self, candidate_id: int) -> int:
        """The level-2 worker that owns ``candidate_id``."""
        return candidate_id * self.num_reducers // len(self.candidates)

    def partition(self, key: Any, num_reducers: int) -> int:
        return int(key[0])

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        """combineResults (Algorithm 5), generalized to all cut thresholds.

        Each record's histogram is expanded to every candidate it serves;
        :func:`_best_cut_over_thresholds` then sweeps each candidate.
        """
        per_candidate: dict[int, dict[int, _Histogram]] = {}
        for (_, subtree, _), value in records:
            histogram = value[1:]
            for candidate_id in value[0].tolist():
                per_candidate.setdefault(candidate_id, {})[subtree] = histogram
        for candidate_id in sorted(per_candidate):
            base_budget = self.budget - candidate_id
            yield candidate_id, _best_cut_over_thresholds(
                per_candidate[candidate_id], base_budget
            )


def _best_cut_over_thresholds(
    subtrees: dict[int, _Histogram], base_budget: int
) -> tuple[float, float]:
    """Sweep every feasible threshold; return ``(best error, its threshold)``.

    At threshold ``T`` each sub-tree retains its buckets ``>= T`` and
    sits at the cut error of the lowest of them (its final error when it
    retains none); the candidate's error is the maximum over sub-trees.
    ``T`` is feasible while the total retained count is at most
    ``base_budget``.  The state "retain nothing" (threshold ``inf``) is
    the starting point, and a threshold replaces it only with a strictly
    lower error; ties go to the highest such threshold.  Only
    comparisons touch error values, so the result is exact.
    """
    if base_budget < 0:
        return math.inf, math.inf
    histograms = list(subtrees.values())
    best_error = max((final for *_, final in histograms), default=0.0)
    errors = np.concatenate([np.empty(0)] + [errors for errors, *_ in histograms])
    if not len(errors):
        return best_error, math.inf
    counts = np.concatenate([counts for _, counts, *_ in histograms])
    order = np.argsort(errors)[::-1]
    descending = errors[order]
    last = np.flatnonzero(np.append(descending[:-1] != descending[1:], True))
    retained = np.cumsum(counts[order])[last]
    feasible = int(np.searchsorted(retained, base_budget, side="right"))
    if not feasible:
        return best_error, math.inf
    thresholds = descending[last[:feasible]]
    error = np.full(feasible, -math.inf)
    for bucket_errors, _, cuts, final in histograms:
        sits = np.append(cuts, final)[np.searchsorted(bucket_errors, thresholds)]
        np.maximum(error, sits, out=error)
    position = int(np.argmin(error))
    if error[position] < best_error:
        return float(error[position]), float(thresholds[position])
    return best_error, math.inf


class _ConstructJob(MapReduceJob):
    """Job 2: replay the winning candidate and emit the retained nodes.

    The winning threshold from ``combineResults`` identifies the retained
    set exactly: the nodes whose bucketized running-max removal error
    reaches the threshold.  The replay is deterministic, so the counts
    match job 1's histogram and no further driver-side ranking is needed.
    """

    name = "dgreedy-construct"
    stage_label = "dgreedy.construct"
    num_reducers = 1

    def __init__(
        self,
        engine: _GreedyEngine,
        winner: _Candidate,
        threshold: float,
        bucket_width: float,
        n: int,
    ) -> None:
        self.engine = engine
        self.winner = winner
        self.threshold = threshold
        self.bucket_width = bucket_width
        self.n = n

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        if math.isinf(self.threshold):
            return  # the winning cut retains no base nodes at all
        subtree_index = split.split_id
        local = haar_transform(split.values)
        local_coefficients = local.copy()
        local_coefficients[0] = 0.0
        subtree_root = self.n // len(split) + subtree_index
        incoming_error = float(self.winner.incoming[subtree_index])
        run = self.engine.base_run(local_coefficients, split.values, incoming_error)
        running_max = -math.inf
        for removal in run.removals:
            bucket = math.floor(removal.error_after / self.bucket_width) * self.bucket_width
            running_max = max(running_max, bucket)
            if running_max >= self.threshold:
                global_node = local_to_global(subtree_root, removal.node)
                yield global_node, removal.value

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        yield from records


class _AverageJob(MapReduceJob):
    """Pre-job: sub-tree averages (the root sub-tree's virtual leaves).

    Module-level so it pickles for :class:`ProcessPoolRuntime`.
    """

    name = "dgreedy-averages"
    stage_label = "dgreedy.averages"
    num_reducers = 0

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        yield split.split_id, float(np.mean(split.values))


def _distributed_greedy(
    engine: _GreedyEngine,
    data: ArrayLike | FileDataset,
    budget: int,
    cluster: SimulatedCluster | None,
    base_leaves: int,
    bucket_width: float,
    level2_workers: int,
) -> WaveletSynopsis:
    # The driver only needs ``n`` and sub-tree aligned splits, so a
    # file-backed dataset slots in without materializing the input: every
    # split reads its own mmap slice inside the map task.
    if isinstance(data, FileDataset):
        n = len(data)
    else:
        values = np.asarray(data, dtype=np.float64)
        if values.ndim != 1 or not is_power_of_two(values.shape[0]):
            raise InvalidInputError("data length must be a power of two")
        n = int(values.shape[0])
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    if not math.isfinite(bucket_width) or bucket_width <= 0:
        raise InvalidInputError("bucket width must be finite and strictly positive")
    if not isinstance(level2_workers, int) or level2_workers < 1:
        raise InvalidInputError("level2_workers must be an integer >= 1")
    cluster = cluster or SimulatedCluster()
    if base_leaves >= n:
        base_leaves = n // 2
    if base_leaves < 2:
        raise InvalidInputError("data too small for a root/base partition")

    root_size, _ = root_base_partition(n, base_leaves)
    if isinstance(data, FileDataset):
        splits = data.aligned_splits(base_leaves)
    else:
        splits = aligned_splits(values, base_leaves)

    # Pre-job: sub-tree averages -> root sub-tree coefficients.
    averages_result = cluster.run_job(_AverageJob(), splits)
    averages = np.empty(root_size, dtype=np.float64)
    for split_id, average in averages_result.output:
        averages[split_id] = average

    # Driver: GreedyAbs on the root sub-tree + genRootSets (Algorithm 4).
    with cluster.driver():
        root_coefficients = haar_transform(averages)
        root_run = engine.root_run(root_coefficients, averages)
        candidates = _candidate_incoming_errors(root_run, root_size, budget)

    # Job 1: speculative histogram runs + combineResults.
    histogram_job = _HistogramJob(
        engine,
        candidates,
        budget,
        bucket_width,
        num_reducers=min(level2_workers, len(candidates)),
    )
    histogram_result = cluster.run_job(histogram_job, splits)
    with cluster.driver():
        best_candidate_id, (best_error, best_threshold) = min(
            histogram_result.output,
            key=lambda item: (item[1][0], item[0]),
        )
        winner = candidates[best_candidate_id]

    # Job 2: construct the synopsis for the winning candidate.
    construct_job = _ConstructJob(
        engine, winner, threshold=best_threshold, bucket_width=bucket_width, n=n
    )
    construct_result = cluster.run_job(construct_job, splits)
    with cluster.driver():
        coefficients = dict(winner.retained)
        for global_node, value in construct_result.output:
            coefficients[global_node] = value

    name = "DGreedyAbs" if engine.metric == "max_abs" else "DGreedyRel"
    return WaveletSynopsis(
        n=n,
        coefficients=coefficients,
        meta={
            "algorithm": name,
            "budget": budget,
            "metric": engine.metric,
            "claimed_error": best_error,
            "root_retained": len(winner.retained),
            "candidates": len(candidates),
            "bucket_width": bucket_width,
            "cluster": cluster.log.as_dict(),
        },
    )


def base_subtree_greedy(
    values: ArrayLike, budget: int
) -> tuple[dict[int, float], float, float]:
    """Partial-rebuild entry point: greedy-threshold one base sub-tree alone.

    Runs GreedyAbs over the sub-tree's *detail* coefficients (the average
    slot belongs to the root sub-tree — same split as Figure 4) with zero
    incoming error, and cuts at ``budget``.  Returns ``(retained local
    nodes, local max-abs detail error, sub-tree average)`` — the three pieces
    the serving layer's compositional greedy tier caches per sub-tree,
    recomputing only the sub-trees an append dirtied
    (:func:`repro.core.partitioning.dirty_base_range`).  Pure function of
    ``(values, budget)``, so an incremental rebuild that reuses cached
    results is bit-identical to a from-scratch one (docs/SERVING.md).
    """
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1 or not is_power_of_two(data.shape[0]):
        raise InvalidInputError("base sub-tree length must be a power of two")
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    local = haar_transform(data)
    average = float(local[0])
    local_coefficients = local.copy()
    local_coefficients[0] = 0.0
    run = GreedyAbsTree(local_coefficients, include_average=False).run_to_exhaustion()
    step, error = run.best_cut(budget)
    retained = {r.node: r.value for r in run.removals[step:]}
    return retained, float(error), average


def root_subtree_greedy(averages: ArrayLike, budget: int) -> tuple[dict[int, float], float]:
    """Partial-rebuild entry point: greedy-threshold the root sub-tree.

    ``averages`` are the base sub-trees' averages — the virtual leaves of
    Section 5.2.  Root-tree node ``j`` *is* global error-tree node ``j``
    for ``j < R``, so the retained mapping needs no index translation.
    Returns ``(retained nodes, max-abs error over the virtual leaves)``.
    """
    virtual = np.asarray(averages, dtype=np.float64)
    if virtual.ndim != 1 or not is_power_of_two(virtual.shape[0]):
        raise InvalidInputError("the virtual-leaf count must be a power of two")
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    root_coefficients = haar_transform(virtual)
    run = GreedyAbsTree(root_coefficients, include_average=True).run_to_exhaustion()
    step, error = run.best_cut(budget)
    retained = {r.node: r.value for r in run.removals[step:]}
    return retained, float(error)


def d_greedy_abs(
    data: ArrayLike | FileDataset,
    budget: int,
    cluster: SimulatedCluster | None = None,
    base_leaves: int = 1024,
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
    level2_workers: int = 4,
) -> WaveletSynopsis:
    """DGreedyAbs (Algorithm 6): distributed max-abs greedy thresholding.

    ``base_leaves`` is the paper's sub-tree size knob (Figure 5a),
    ``bucket_width`` the ``e_b`` of Algorithm 3, and ``level2_workers``
    the reducer count (the paper fixes four).
    """
    return _distributed_greedy(
        _AbsEngine(), data, budget, cluster, base_leaves, bucket_width, level2_workers
    )


def d_greedy_rel(
    data: ArrayLike | FileDataset,
    budget: int,
    sanity_bound: float = DEFAULT_SANITY_BOUND,
    cluster: SimulatedCluster | None = None,
    base_leaves: int = 1024,
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
    level2_workers: int = 4,
) -> WaveletSynopsis:
    """DGreedyRel (Section 5.4): distributed max-rel greedy thresholding."""
    return _distributed_greedy(
        _RelEngine(sanity_bound),
        data,
        budget,
        cluster,
        base_leaves,
        bucket_width,
        level2_workers,
    )
