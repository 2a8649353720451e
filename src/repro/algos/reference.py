"""Scalar reference engines for GreedyAbs / GreedyRel.

These are the original node-at-a-time implementations (Python lists, one
``AddressableMinHeap.update`` per dirtied node).  They are kept verbatim
as the *oracle* for the vectorized engines in
:mod:`repro.algos.greedy_abs` / :mod:`repro.algos.greedy_rel`: the
vectorized engines must reproduce their removal sequences exactly,
removal for removal, including the deterministic tie-break on node id
(differential-tested in ``tests/test_greedy_vectorized.py``), and the
perf-regression harness (``benchmarks/bench_greedy_kernel.py``) measures
speedups against them.

Do not optimize this module — its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.greedy_abs import GreedyRun, Removal
from repro.algos.heap import AddressableMinHeap
from repro.exceptions import InvalidInputError
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND
from repro.wavelet.transform import is_power_of_two

__all__ = [
    "ScalarGreedyAbsTree",
    "ScalarGreedyRelTree",
    "scalar_greedy_abs_order",
    "scalar_greedy_rel_order",
]


class ScalarGreedyAbsTree:
    """Scalar greedy discard engine over one complete error (sub-)tree.

    See :class:`repro.algos.greedy_abs.GreedyAbsTree` for the parameter
    contract; both classes accept identical inputs and must emit
    identical removal sequences.
    """

    def __init__(
        self,
        coefficients: ArrayLike,
        initial_errors: ArrayLike | None = None,
        include_average: bool = True,
    ) -> None:
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or not is_power_of_two(coeffs.shape[0]):
            raise InvalidInputError("coefficient array length must be a power of two")
        self.m = int(coeffs.shape[0])
        self.coefficients = coeffs.tolist()
        self.include_average = include_average

        if initial_errors is None:
            errors = [0.0] * self.m
        else:
            errors = [float(e) for e in initial_errors]
            if len(errors) != self.m:
                raise InvalidInputError("initial_errors length must equal tree size")

        m = self.m
        self._single_leaf_error = errors[0] if m == 1 else 0.0
        self.max_left = [0.0] * m
        self.min_left = [0.0] * m
        self.max_right = [0.0] * m
        self.min_right = [0.0] * m
        for j in range(m // 2, m):
            self.max_left[j] = self.min_left[j] = errors[2 * j - m]
            self.max_right[j] = self.min_right[j] = errors[2 * j + 1 - m]
        for j in range(m // 2 - 1, 0, -1):
            self._recompute_quantities(j)

        self.heap = AddressableMinHeap()
        for j in range(1, m):
            self.heap.push(j, self._ma(j))
        if include_average:
            self.heap.push(0, self._ma_average())

    # -- potential error computations -------------------------------------

    def _ma(self, j: int) -> float:
        c = self.coefficients[j]
        return max(
            abs(self.max_left[j] - c),
            abs(self.min_left[j] - c),
            abs(self.max_right[j] + c),
            abs(self.min_right[j] + c),
        )

    def _ma_average(self) -> float:
        c = self.coefficients[0]
        if self.m == 1:
            err = self._single_leaf_error
            return abs(err - c)
        high = max(self.max_left[1], self.max_right[1])
        low = min(self.min_left[1], self.min_right[1])
        return max(abs(high - c), abs(low - c))

    def _recompute_quantities(self, j: int) -> None:
        left, right = 2 * j, 2 * j + 1
        self.max_left[j] = max(self.max_left[left], self.max_right[left])
        self.min_left[j] = min(self.min_left[left], self.min_right[left])
        self.max_right[j] = max(self.max_left[right], self.max_right[right])
        self.min_right[j] = min(self.min_left[right], self.min_right[right])

    def current_error(self) -> float:
        """Tree-wide maximum absolute error of the running synopsis."""
        if self.m == 1:
            return abs(self._single_leaf_error)
        return max(
            abs(self.max_left[1]),
            abs(self.min_left[1]),
            abs(self.max_right[1]),
            abs(self.min_right[1]),
        )

    # -- removal ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.heap)

    def remove_next(self) -> Removal:
        """Discard the node with minimum ``MA`` and update the tree."""
        k, _ = self.heap.pop()
        value = self.coefficients[k]
        if k == 0:
            self._remove_average(value)
        else:
            self._remove_detail(k, value)
        return Removal(node=k, value=value, error_after=self.current_error())

    def _remove_average(self, c: float) -> None:
        if self.m == 1:
            self._single_leaf_error -= c
            return
        for j in range(1, self.m):
            self.max_left[j] -= c
            self.min_left[j] -= c
            self.max_right[j] -= c
            self.min_right[j] -= c
            if j in self.heap:
                self.heap.update(j, self._ma(j))

    def _remove_detail(self, k: int, c: float) -> None:
        m = self.m
        heap = self.heap
        # The removed node's own leaves shift: left -c, right +c.
        self.max_left[k] -= c
        self.min_left[k] -= c
        self.max_right[k] += c
        self.min_right[k] += c

        # Descendants: whole sub-trees shift uniformly (left -c, right +c);
        # every alive descendant's MA must be refreshed (Section 5.1).
        if 2 * k < m:
            stack = [(2 * k, -c), (2 * k + 1, c)]
            while stack:
                j, delta = stack.pop()
                self.max_left[j] += delta
                self.min_left[j] += delta
                self.max_right[j] += delta
                self.min_right[j] += delta
                if j in heap:
                    heap.update(j, self._ma(j))
                child = 2 * j
                if child < m:
                    stack.append((child, delta))
                    stack.append((child + 1, delta))

        # Ancestors: recompute the four quantities bottom-up and refresh MA.
        j = k // 2
        while j >= 1:
            self._recompute_quantities(j)
            if j in heap:
                heap.update(j, self._ma(j))
            j //= 2
        if self.include_average and 0 in heap:
            heap.update(0, self._ma_average())

    def run_to_exhaustion(self) -> GreedyRun:
        """Discard every node; return the ordered removal sequence."""
        initial = self.current_error()
        removals = []
        while len(self.heap):
            removals.append(self.remove_next())
        return GreedyRun(removals=removals, initial_error=initial)


class ScalarGreedyRelTree:
    """Scalar greedy discard engine minimizing maximum relative error.

    See :class:`repro.algos.greedy_rel.GreedyRelTree` for the parameter
    contract; both classes accept identical inputs and must emit
    identical removal sequences.
    """

    def __init__(
        self,
        coefficients: ArrayLike,
        leaf_values: ArrayLike,
        sanity_bound: float = DEFAULT_SANITY_BOUND,
        initial_errors: ArrayLike | None = None,
        include_average: bool = True,
    ) -> None:
        coeffs = np.asarray(coefficients, dtype=np.float64)
        leaves = np.asarray(leaf_values, dtype=np.float64)
        if coeffs.ndim != 1 or not is_power_of_two(coeffs.shape[0]):
            raise InvalidInputError("coefficient array length must be a power of two")
        if leaves.shape != coeffs.shape:
            raise InvalidInputError("leaf_values must have the same length as coefficients")
        if not (math.isfinite(sanity_bound) and sanity_bound > 0):
            raise InvalidInputError("the sanity bound S must be finite and strictly positive")

        self.m = int(coeffs.shape[0])
        self.coefficients = coeffs.tolist()
        self.include_average = include_average
        self.denominators = np.maximum(np.abs(leaves), sanity_bound)
        if initial_errors is None:
            self.errors = np.zeros(self.m, dtype=np.float64)
        else:
            self.errors = np.asarray(initial_errors, dtype=np.float64).copy()
            if self.errors.shape[0] != self.m:
                raise InvalidInputError("initial_errors length must equal tree size")

        self.heap = AddressableMinHeap()
        for j in range(1, self.m):
            self.heap.push(j, self._mr(j))
        if include_average:
            self.heap.push(0, self._mr_average())

    def _leaf_range(self, j: int) -> tuple[int, int, int]:
        """Local (lo, mid, hi) leaf bounds of node ``j >= 1``."""
        level = j.bit_length() - 1
        span = self.m >> level
        lo = (j - (1 << level)) * span
        return lo, lo + span // 2, lo + span

    def _mr(self, j: int) -> float:
        c = self.coefficients[j]
        lo, mid, hi = self._leaf_range(j)
        left = np.abs(self.errors[lo:mid] - c) / self.denominators[lo:mid]
        right = np.abs(self.errors[mid:hi] + c) / self.denominators[mid:hi]
        return float(max(left.max(initial=0.0), right.max(initial=0.0)))

    def _mr_average(self) -> float:
        c = self.coefficients[0]
        return float(np.max(np.abs(self.errors - c) / self.denominators))

    def current_error(self) -> float:
        """Tree-wide maximum relative error of the running synopsis."""
        return float(np.max(np.abs(self.errors) / self.denominators))

    def __len__(self) -> int:
        return len(self.heap)

    def remove_next(self) -> Removal:
        """Discard the node with minimum ``MR`` and update the tree."""
        k, _ = self.heap.pop()
        value = self.coefficients[k]
        if k == 0:
            self.errors -= value
            refresh_range = (0, self.m)
        else:
            lo, mid, hi = self._leaf_range(k)
            self.errors[lo:mid] -= value
            self.errors[mid:hi] += value
            refresh_range = (lo, hi)
        self._refresh(k, refresh_range)
        return Removal(node=k, value=value, error_after=self.current_error())

    def _refresh(self, k: int, leaf_range: tuple[int, int]) -> None:
        """Recompute MR for every alive node overlapping ``leaf_range``."""
        heap = self.heap
        if k == 0:
            for j in range(1, self.m):
                if j in heap:
                    heap.update(j, self._mr(j))
            return
        # Descendants of k.
        stack = [2 * k, 2 * k + 1] if 2 * k < self.m else []
        while stack:
            j = stack.pop()
            if j in heap:
                heap.update(j, self._mr(j))
            child = 2 * j
            if child < self.m:
                stack.append(child)
                stack.append(child + 1)
        # Ancestors of k.
        j = k // 2
        while j >= 1:
            if j in heap:
                heap.update(j, self._mr(j))
            j //= 2
        if self.include_average and 0 in heap:
            heap.update(0, self._mr_average())

    def run_to_exhaustion(self) -> GreedyRun:
        """Discard every node; return the ordered removal sequence."""
        initial = self.current_error()
        removals = []
        while len(self.heap):
            removals.append(self.remove_next())
        return GreedyRun(removals=removals, initial_error=initial)


def scalar_greedy_abs_order(
    coefficients: ArrayLike,
    initial_errors: ArrayLike | None = None,
    include_average: bool = True,
) -> GreedyRun:
    """Run the scalar reference abs engine to exhaustion."""
    tree = ScalarGreedyAbsTree(coefficients, initial_errors, include_average)
    return tree.run_to_exhaustion()


def scalar_greedy_rel_order(
    coefficients: ArrayLike,
    leaf_values: ArrayLike,
    sanity_bound: float = DEFAULT_SANITY_BOUND,
    initial_errors: ArrayLike | None = None,
    include_average: bool = True,
) -> GreedyRun:
    """Run the scalar reference rel engine to exhaustion."""
    tree = ScalarGreedyRelTree(
        coefficients, leaf_values, sanity_bound, initial_errors, include_average
    )
    return tree.run_to_exhaustion()
