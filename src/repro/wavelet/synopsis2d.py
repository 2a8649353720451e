"""2-D wavelet synopses and their thresholding.

:class:`WaveletSynopsis2D` mirrors the 1-D synopsis over the standard
2-D decomposition.  Two thresholding schemes are provided:

* :func:`conventional_synopsis_2d` — top-``B`` by 2-D normalized
  significance (L2-optimal over the orthogonal standard basis);
* :func:`greedy_abs_2d` — the max-abs greedy adapted to two dimensions.
  The 1-D four-quantity trick does not port (a 2-D coefficient's support
  splits into four sign quadrants), so the engine maintains the dense
  signed-error matrix and recomputes each affected coefficient's maximum
  potential error with vectorized quadrant scans — exact, ``O(N^2)``
  memory, intended for the moderate grids of OLAP-style cubes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.heap import AddressableMinHeap
from repro.exceptions import InvalidInputError
from repro.wavelet.error_tree import node_leaf_range
from repro.wavelet.transform import is_power_of_two
from repro.wavelet.transform2d import (
    haar_transform_2d,
    inverse_haar_transform_2d,
    normalized_significance_2d,
    reconstruct_cell,
    reconstruct_rectangle_sum,
)

__all__ = ["WaveletSynopsis2D", "conventional_synopsis_2d", "greedy_abs_2d"]


@dataclass
class WaveletSynopsis2D:
    """Sparse set of retained standard-decomposition coefficients."""

    shape: tuple[int, int]
    coefficients: dict[tuple[int, int], float]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if not (is_power_of_two(rows) and is_power_of_two(cols)):
            raise InvalidInputError(f"shape {self.shape} must be powers of two")
        cleaned = {}
        for (a, b), value in self.coefficients.items():
            if not (0 <= a < rows and 0 <= b < cols):
                raise InvalidInputError(f"coefficient index {(a, b)} out of range")
            if float(value) != 0.0:
                cleaned[(int(a), int(b))] = float(value)
        self.coefficients = cleaned

    @property
    def size(self) -> int:
        """Number of retained non-zero coefficients."""
        return len(self.coefficients)

    def dense(self) -> np.ndarray:
        """Dense coefficient matrix ``W_hat``."""
        dense = np.zeros(self.shape, dtype=np.float64)
        for (a, b), value in self.coefficients.items():
            dense[a, b] = value
        return dense

    def reconstruct(self) -> np.ndarray:
        """Full approximate matrix."""
        return inverse_haar_transform_2d(self.dense())

    def cell_query(self, row: int, col: int) -> float:
        """Approximate value of one cell in ``O(log^2 N)``."""
        return reconstruct_cell(self.coefficients, row, col, self.shape)

    def rectangle_sum(self, row_range: tuple[int, int], col_range: tuple[int, int]) -> float:
        """Approximate sum over an inclusive rectangle in ``O(log^2 N)``."""
        return reconstruct_rectangle_sum(self.coefficients, row_range, col_range, self.shape)

    def max_abs_error(self, matrix: ArrayLike) -> float:
        """Maximum absolute reconstruction error against ``matrix``."""
        return float(np.max(np.abs(self.reconstruct() - np.asarray(matrix, dtype=np.float64))))

    def l2_error(self, matrix: ArrayLike) -> float:
        """Root-mean-squared reconstruction error against ``matrix``."""
        diff = self.reconstruct() - np.asarray(matrix, dtype=np.float64)
        return float(np.sqrt(np.mean(diff**2)))


def conventional_synopsis_2d(matrix: ArrayLike, budget: int) -> WaveletSynopsis2D:
    """Top-``budget`` coefficients by 2-D normalized significance."""
    values = np.asarray(matrix, dtype=np.float64)
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    coefficients = haar_transform_2d(values)
    significance = normalized_significance_2d(coefficients)
    flat_order = np.argsort(-significance, axis=None, kind="stable")
    retained: dict[tuple[int, int], float] = {}
    for flat in flat_order[:budget]:
        a, b = np.unravel_index(flat, values.shape)
        retained[(int(a), int(b))] = float(coefficients[a, b])
    return WaveletSynopsis2D(
        shape=values.shape,
        coefficients=retained,
        meta={"algorithm": "CONV-2D", "budget": budget},
    )


class _Greedy2DEngine:
    """Greedy discard over the 2-D standard decomposition."""

    def __init__(self, matrix: ArrayLike) -> None:
        self.values = np.asarray(matrix, dtype=np.float64)
        self.shape = self.values.shape
        self.coefficients = haar_transform_2d(self.values)
        self.errors = np.zeros(self.shape, dtype=np.float64)
        rows, cols = self.shape
        self.heap = AddressableMinHeap()
        self._ids: dict[tuple[int, int], int] = {}
        self._nodes: dict[int, tuple[int, int]] = {}
        next_id = 0
        for a in range(rows):
            for b in range(cols):
                self._ids[(a, b)] = next_id
                self._nodes[next_id] = (a, b)
                next_id += 1
        for node, item in self._ids.items():
            self.heap.push(item, self._ma(node))

    def _quadrants(
        self, node: tuple[int, int]
    ) -> Iterator[tuple[slice, slice, float]]:
        """Yield ``(row slice, col slice, sign)`` of the node's support."""
        a, b = node
        n_rows, n_cols = self.shape
        r_lo, r_hi = node_leaf_range(a, n_rows)
        c_lo, c_hi = node_leaf_range(b, n_cols)
        if a == 0:
            row_parts = [(slice(r_lo, r_hi), 1.0)]
        else:
            r_mid = (r_lo + r_hi) // 2
            row_parts = [(slice(r_lo, r_mid), 1.0), (slice(r_mid, r_hi), -1.0)]
        if b == 0:
            col_parts = [(slice(c_lo, c_hi), 1.0)]
        else:
            c_mid = (c_lo + c_hi) // 2
            col_parts = [(slice(c_lo, c_mid), 1.0), (slice(c_mid, c_hi), -1.0)]
        for row_slice, row_sign in row_parts:
            for col_slice, col_sign in col_parts:
                yield row_slice, col_slice, row_sign * col_sign

    def _ma(self, node: tuple[int, int]) -> float:
        value = float(self.coefficients[node])
        worst = 0.0
        for row_slice, col_slice, sign in self._quadrants(node):
            region = self.errors[row_slice, col_slice]
            worst = max(worst, float(np.max(np.abs(region - sign * value))))
        return worst

    def remove_next(self) -> tuple[tuple[int, int], float, float]:
        """Discard the min-MA coefficient; return (node, value, error after)."""
        item, _ = self.heap.pop()
        node = self._nodes[item]
        value = float(self.coefficients[node])
        for row_slice, col_slice, sign in self._quadrants(node):
            self.errors[row_slice, col_slice] -= sign * value
        # Refresh every alive coefficient whose support intersects.
        a, b = node
        n_rows, n_cols = self.shape
        r_lo, r_hi = node_leaf_range(a, n_rows)
        c_lo, c_hi = node_leaf_range(b, n_cols)
        dirtied = []
        for other, item_id in self._ids.items():
            if item_id not in self.heap:
                continue
            oa, ob = other
            o_r = node_leaf_range(oa, n_rows)
            o_c = node_leaf_range(ob, n_cols)
            if o_r[0] < r_hi and r_lo < o_r[1] and o_c[0] < c_hi and c_lo < o_c[1]:
                dirtied.append((item_id, self._ma(other)))
        self.heap.update_many(dirtied)
        return node, value, float(np.max(np.abs(self.errors)))

    def __len__(self) -> int:
        return len(self.heap)


def greedy_abs_2d(matrix: ArrayLike, budget: int) -> WaveletSynopsis2D:
    """Max-abs greedy thresholding over a 2-D grid.

    Same discipline as the 1-D GreedyAbs: discard minimum-potential-error
    coefficients until the grid is empty and keep the best of the final
    ``budget + 1`` states.
    """
    values = np.asarray(matrix, dtype=np.float64)
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    engine = _Greedy2DEngine(values)
    removals: list[tuple[tuple[int, int], float, float]] = []
    while len(engine):
        removals.append(engine.remove_next())

    total = len(removals)
    first = max(0, total - budget)
    best_step, best_error = first, (removals[first - 1][2] if first else 0.0)
    for step in range(first + 1, total + 1):
        error = removals[step - 1][2]
        if error <= best_error:
            best_step, best_error = step, error
    retained = {node: value for node, value, _ in removals[best_step:]}
    return WaveletSynopsis2D(
        shape=values.shape,
        coefficients=retained,
        meta={"algorithm": "GreedyAbs-2D", "budget": budget, "max_abs_error": best_error},
    )
