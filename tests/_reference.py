"""Naive reference implementations used to validate the optimized code.

Everything here recomputes from definitions — O(N^2) or worse — and is
only run on tiny inputs.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# The scalar node-at-a-time greedy engines live in repro.algos.reference
# (they double as the perf-benchmark baseline); re-exported here so tests
# have a single place to import oracles from.
from repro.algos.reference import (  # noqa: F401
    ScalarGreedyAbsTree,
    ScalarGreedyRelTree,
    scalar_greedy_abs_order,
    scalar_greedy_rel_order,
)
from repro.wavelet.error_tree import data_path, leaf_sign, node_leaf_range, path_signs
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform, inverse_haar_transform


def naive_greedy_abs_order(coefficients, initial_errors=None, include_average=True):
    """Greedy discard order recomputing MA_k from Eq. 7 at every step."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    m = len(coeffs)
    errors = np.zeros(m) if initial_errors is None else np.asarray(initial_errors, float).copy()
    alive = set(range(m)) if include_average else set(range(1, m))
    removals = []
    while alive:
        best = None
        for k in sorted(alive):
            c = coeffs[k]
            lo, hi = node_leaf_range(k, m)
            ma = max(abs(errors[j] - leaf_sign(k, j, m) * c) for j in range(lo, hi))
            if best is None or (ma, k) < best[:2]:
                best = (ma, k)
        _, k = best
        c = coeffs[k]
        lo, hi = node_leaf_range(k, m)
        for j in range(lo, hi):
            errors[j] -= leaf_sign(k, j, m) * c
        alive.discard(k)
        removals.append((k, float(np.max(np.abs(errors)))))
    return removals


def naive_greedy_rel_order(
    coefficients, leaf_values, sanity_bound=DEFAULT_SANITY_BOUND, initial_errors=None
):
    """Greedy discard order recomputing MR_k from Eq. 10 at every step."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    m = len(coeffs)
    denominators = np.maximum(np.abs(np.asarray(leaf_values, float)), sanity_bound)
    errors = np.zeros(m) if initial_errors is None else np.asarray(initial_errors, float).copy()
    alive = set(range(m))
    removals = []
    while alive:
        best = None
        for k in sorted(alive):
            c = coeffs[k]
            lo, hi = node_leaf_range(k, m)
            mr = max(
                abs(errors[j] - leaf_sign(k, j, m) * c) / denominators[j]
                for j in range(lo, hi)
            )
            if best is None or (mr, k) < best[:2]:
                best = (mr, k)
        _, k = best
        c = coeffs[k]
        lo, hi = node_leaf_range(k, m)
        for j in range(lo, hi):
            errors[j] -= leaf_sign(k, j, m) * c
        alive.discard(k)
        removals.append((k, float(np.max(np.abs(errors) / denominators))))
    return removals


def brute_force_restricted_optimum(data, budget):
    """Exact best max-abs error over all <=budget subsets of coefficients.

    Restricted synopses (original coefficient values) only; exponential —
    use with N <= 16 and small budgets.
    """
    values = np.asarray(data, dtype=np.float64)
    coeffs = haar_transform(values)
    n = len(values)
    candidates = [i for i in range(n)]
    best_error = float(np.max(np.abs(values)))  # empty synopsis baseline
    best_set: tuple = ()
    for size in range(1, min(budget, n) + 1):
        for subset in combinations(candidates, size):
            synopsis = WaveletSynopsis(n, {i: float(coeffs[i]) for i in subset})
            error = synopsis.max_abs_error(values)
            if error < best_error:
                best_error = error
                best_set = subset
    return best_error, best_set


def brute_force_min_restricted_size(data, epsilon):
    """Smallest restricted synopsis achieving max_abs <= epsilon."""
    values = np.asarray(data, dtype=np.float64)
    coeffs = haar_transform(values)
    n = len(values)
    if float(np.max(np.abs(values))) <= epsilon:
        return 0
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            synopsis = WaveletSynopsis(n, {i: float(coeffs[i]) for i in subset})
            if synopsis.max_abs_error(values) <= epsilon:
                return size
    return n


def scalar_bucketized_histogram(run, bucket_width):
    """DGreedyAbs's Algorithm 3 bucketing, one removal at a time.

    Returns ``([(bucket_error, node_count, cut_error), ...], final_error)``.
    The oracle for the columnar ``repro.core.dgreedy._bucketized_histogram``.
    """
    histogram = []
    max_error = -math.inf
    count = 0
    cut_error = run.initial_error
    previous_actual = run.initial_error
    for removal in run.removals:
        bucket = math.floor(removal.error_after / bucket_width) * bucket_width
        if bucket <= max_error:
            count += 1
        else:
            if count:
                histogram.append((max_error, count, cut_error))
            max_error = bucket
            count = 1
            cut_error = previous_actual
        previous_actual = removal.error_after
    if count:
        histogram.append((max_error, count, cut_error))
    final_error = run.removals[-1].error_after if run.removals else run.initial_error
    return histogram, final_error


def scalar_best_cut_over_thresholds(
    subtrees: dict[int, dict], base_budget: int
) -> tuple[float, float]:
    """DGreedyAbs's threshold sweep, one bucket event at a time.

    ``subtrees`` maps sub-tree -> ``{"buckets": [(bucket_error, count,
    cut_error), ...], "final": final_error}``.  The oracle for the
    vectorized ``repro.core.dgreedy._best_cut_over_thresholds``.

    The sweep state starts at "retain nothing" (every sub-tree at its
    final, all-removed error) and lowers the threshold bucket by bucket;
    crossing a sub-tree's bucket retains that bucket's nodes and moves the
    sub-tree to the bucket's cut error.
    """
    if base_budget < 0:
        return math.inf, math.inf
    current_error: dict[int, float] = {
        subtree: entry["final"] for subtree, entry in subtrees.items()
    }
    events = sorted(
        (
            (bucket_error, subtree, count, cut_error)
            for subtree, entry in subtrees.items()
            for bucket_error, count, cut_error in entry["buckets"]
        ),
        key=lambda event: -event[0],
    )
    best_error = max(current_error.values(), default=0.0)
    best_threshold = math.inf
    retained = 0
    position = 0
    while position < len(events):
        threshold = events[position][0]
        # Apply every bucket at this threshold together.
        while position < len(events) and events[position][0] == threshold:
            _, subtree, count, cut_error = events[position]
            retained += count
            current_error[subtree] = cut_error
            position += 1
        if retained > base_budget:
            break
        error = max(current_error.values())
        if error < best_error:
            best_error = error
            best_threshold = threshold
    return best_error, best_threshold


def global_to_local(subtree_root, node):
    """Local index of global ``node`` in the sub-tree at ``subtree_root``.

    Inverse of :func:`repro.core.partitioning.local_to_global`; ``None``
    when the node is not in that sub-tree.
    """
    if node < subtree_root:
        return None
    shift = node.bit_length() - subtree_root.bit_length()
    if node >> shift != subtree_root:
        return None
    return (1 << shift) | (node - (subtree_root << shift))


class DictSynopsis:
    """The ``{node: value}`` synopsis reads the columnar arrays replaced.

    Differential oracle for :class:`~repro.wavelet.synopsis.WaveletSynopsis`:
    every read walks the whole coefficient dict (or sums in the original
    order) exactly as the dict-based implementation did, so the columnar
    answers must match it bit for bit.
    """

    def __init__(self, n, coefficients):
        self.n = n
        self.coefficients = {
            int(node): float(value)
            for node, value in coefficients.items()
            if float(value) != 0.0
        }

    def dense(self):
        dense = np.zeros(self.n, dtype=np.float64)
        for index, value in self.coefficients.items():
            dense[index] = value
        return dense

    def reconstruct(self):
        return inverse_haar_transform(self.dense())

    def point_query(self, leaf):
        total = 0.0
        for node, sign in path_signs(leaf, self.n):
            total += sign * self.coefficients.get(node, 0.0)
        return total

    def range_sum(self, lo, hi):
        n = self.n
        # Summed in set-iteration order, as the dict implementation did.
        nodes = set(data_path(lo, n)) | set(data_path(hi, n))
        total = 0.0
        for node in nodes:
            value = self.coefficients.get(node, 0.0)
            if value == 0.0:
                continue
            if node == 0:
                total += (hi - lo + 1) * value
                continue
            left_lo, left_hi = node_leaf_range(node, n)
            mid = (left_lo + left_hi) // 2
            left_count = max(0, min(hi, mid - 1) - max(lo, left_lo) + 1)
            right_count = max(0, min(hi, left_hi - 1) - max(lo, mid) + 1)
            total += (left_count - right_count) * value
        return total

    def segment(self, start, seg_len):
        n = self.n
        if seg_len == n:
            return self.reconstruct()
        subtree_root = n // seg_len + start // seg_len
        local = np.zeros(seg_len, dtype=np.float64)
        # The incoming value: ancestors bottom-up, then c_0.
        total = 0.0
        node = subtree_root
        while node > 1:
            parent = node // 2
            sign = 1.0 if node == 2 * parent else -1.0
            total += sign * self.coefficients.get(parent, 0.0)
            node = parent
        local[0] = total + self.coefficients.get(0, 0.0)
        for node, value in self.coefficients.items():
            local_node = global_to_local(subtree_root, node)
            if local_node is not None and local_node < seg_len:
                local[local_node] = value
        return inverse_haar_transform(local)

    def to_dict(self):
        return {
            "n": self.n,
            "coefficients": {str(k): v for k, v in sorted(self.coefficients.items())},
            "meta": {},
        }
