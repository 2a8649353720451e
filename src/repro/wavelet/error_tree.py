"""The Haar *error tree* (Section 2.2 of the paper).

The error tree of an ``N``-point decomposition is a complete binary tree:

* internal node ``c_j`` (``1 <= j < N``) has children ``c_{2j}``/``c_{2j+1}``
  when ``2j < N`` and data children ``d_{2j-N}``/``d_{2j+1-N}`` otherwise;
* ``c_0`` (the overall average) sits above ``c_1`` and contributes
  positively to every data value;
* the data value ``d_i`` is reconstructed as
  ``sum_{c_j in path_i} delta_ij * c_j`` where ``delta_ij`` is ``+1`` when
  ``d_i`` lies in the left sub-tree of ``c_j`` (or ``j == 0``) and ``-1``
  otherwise.

This module provides both static navigation helpers (pure index arithmetic,
no tree materialization) and the :class:`ErrorTree` convenience wrapper used
by the centralized algorithms and the partitioning schemes.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError
from repro.wavelet.transform import (
    coefficient_level,
    haar_transform,
    is_power_of_two,
)

__all__ = [
    "node_level",
    "node_leaf_range",
    "node_children",
    "node_parent",
    "leaf_sign",
    "data_path",
    "path_signs",
    "reconstruct_value",
    "incoming_value",
    "range_sum_nodes",
    "range_sum_of",
    "reconstruct_range_sum",
    "subtree_nodes",
    "ErrorTree",
]


def node_level(index: int) -> int:
    """Level of node ``c_index`` in the error tree (0 = coarsest)."""
    return coefficient_level(index)


def node_leaf_range(index: int, n: int) -> tuple[int, int]:
    """Return the half-open data range ``[lo, hi)`` covered by ``c_index``.

    ``c_0`` and ``c_1`` both cover the whole array.
    """
    if not is_power_of_two(n):
        raise InvalidInputError(f"N={n} is not a power of two")
    if not 0 <= index < n:
        raise InvalidInputError(f"node index {index} out of range for N={n}")
    if index == 0:
        return 0, n
    level = node_level(index)
    support = n >> level
    start = (index - (1 << level)) * support
    return start, start + support


def node_children(index: int, n: int) -> tuple[int, int] | None:
    """Return the two coefficient children of ``c_index`` or ``None``.

    ``None`` means the node's children are data values (bottom level).
    ``c_0`` is special: its only coefficient child is ``c_1`` and this
    function reports ``(1, 1)`` for it to keep the return type uniform.
    """
    if index == 0:
        return (1, 1) if n > 1 else None
    if 2 * index < n:
        return 2 * index, 2 * index + 1
    return None


def node_parent(index: int) -> int:
    """Return the parent node of ``c_index`` (``c_1``'s parent is ``c_0``)."""
    if index <= 0:
        raise InvalidInputError("the root c_0 has no parent")
    if index == 1:
        return 0
    return index // 2


def leaf_sign(node: int, leaf: int, n: int) -> int:
    """Return ``delta`` in ``{+1, -1}``: the sign of ``c_node`` at ``d_leaf``.

    ``+1`` when ``d_leaf`` is in the left sub-tree of ``c_node`` (or node 0),
    ``-1`` when in the right sub-tree, and ``0`` when ``d_leaf`` is outside
    the node's support.
    """
    lo, hi = node_leaf_range(node, n)
    if not lo <= leaf < hi:
        return 0
    if node == 0:
        return 1
    mid = (lo + hi) // 2
    return 1 if leaf < mid else -1


def data_path(leaf: int, n: int) -> list[int]:
    """Return ``path_leaf``: the node indices from ``c_0`` down to ``d_leaf``.

    The list is ordered coarsest-first: ``[0, 1, ...]`` and has
    ``log2(N) + 1`` entries.
    """
    if not is_power_of_two(n):
        raise InvalidInputError(f"N={n} is not a power of two")
    if not 0 <= leaf < n:
        raise InvalidInputError(f"leaf index {leaf} out of range for N={n}")
    if n == 1:
        return [0]
    log_n = n.bit_length() - 1
    path = [0]
    for level in range(log_n):
        path.append((1 << level) + (leaf >> (log_n - level)))
    return path


def path_signs(leaf: int, n: int) -> list[tuple[int, int]]:
    """Return ``[(node, delta), ...]`` along ``path_leaf`` (coarsest first)."""
    return [(node, leaf_sign(node, leaf, n)) for node in data_path(leaf, n)]


def reconstruct_value(coefficients: Mapping[int, float] | np.ndarray, leaf: int, n: int) -> float:
    """Reconstruct ``d_leaf`` from a (possibly sparse) coefficient set.

    ``coefficients`` may be a dense array of length ``N`` or any mapping
    from node index to retained coefficient value; missing entries are
    implicitly zero.  This is the ``O(log N)`` per-value query of
    Section 2.2.
    """
    if isinstance(coefficients, Mapping):
        getter = lambda j: coefficients.get(j, 0.0)  # noqa: E731
    else:
        dense = np.asarray(coefficients)
        getter = lambda j: float(dense[j])  # noqa: E731
    total = 0.0
    for node, sign in path_signs(leaf, n):
        total += sign * getter(node)
    return total


def incoming_value(
    coefficients: Mapping[int, float] | NDArray[np.float64],
    subtree_root: int,
    n: int,
) -> float:
    """Reconstructed value arriving at ``subtree_root`` from its ancestors.

    Sums the retained coefficients on the path strictly above the
    sub-tree: the sign of each ancestor is ``+1`` when the sub-tree hangs
    off its left child, ``-1`` off its right (``c_0`` is always ``+1``).
    """
    if not 1 <= subtree_root < n:
        raise InvalidInputError(f"sub-tree root {subtree_root} out of range")
    getter = coefficients.get if hasattr(coefficients, "get") else lambda j, d=0.0: coefficients[j]
    total = 0.0
    node = subtree_root
    while node > 1:
        parent = node // 2
        sign = 1.0 if node == 2 * parent else -1.0
        total += sign * float(getter(parent, 0.0))
        node = parent
    total += float(getter(0, 0.0))
    return total


def range_sum_nodes(lo: int, hi: int, n: int) -> list[int]:
    """The nodes the range sum ``d(lo:hi)`` reads, in its summation order.

    These are the nodes on ``path_lo`` and ``path_hi`` — at most
    ``2 log N + 1`` coefficients regardless of the width of the range
    (Section 2.2).
    """
    if lo > hi:
        raise InvalidInputError(f"empty range [{lo}, {hi}]")
    return list(set(data_path(lo, n)) | set(data_path(hi, n)))


def range_sum_of(
    nodes: Sequence[int], values: Sequence[float], lo: int, hi: int, n: int
) -> float:
    """Range sum ``d(lo:hi)`` from the :func:`range_sum_nodes` and their values.

    Each node ``c_j`` contributes
    ``(|leftleaves_{j,lo:hi}| - |rightleaves_{j,lo:hi}|) * c_j`` and ``c_0``
    contributes ``(hi - lo + 1) * c_0``.
    """
    total = 0.0
    for node, value in zip(nodes, values):
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


def reconstruct_range_sum(
    coefficients: Mapping[int, float] | np.ndarray, lo: int, hi: int, n: int
) -> float:
    """Return the range sum ``d(lo:hi)`` (inclusive bounds, as in the paper).

    ``coefficients`` may be a dense array of length ``N`` or a mapping from
    node index to retained value; see :func:`range_sum_of`.
    """
    if isinstance(coefficients, Mapping):
        getter = lambda j: coefficients.get(j, 0.0)  # noqa: E731
    else:
        dense = np.asarray(coefficients)
        getter = lambda j: float(dense[j])  # noqa: E731
    nodes = range_sum_nodes(lo, hi, n)
    return range_sum_of(nodes, [getter(node) for node in nodes], lo, hi, n)


def subtree_nodes(root: int, n: int) -> Iterator[int]:
    """Yield all coefficient nodes of the sub-tree rooted at ``root``.

    Breadth-first order; includes ``root`` itself.  For ``root == 0`` this
    is every node ``0 .. N-1``.
    """
    if root == 0:
        yield from range(n)
        return
    frontier = [root]
    while frontier:
        next_frontier = []
        for node in frontier:
            yield node
            if 2 * node < n:
                next_frontier.append(2 * node)
                next_frontier.append(2 * node + 1)
        frontier = next_frontier


class ErrorTree:
    """A materialized error tree: data, coefficients, and navigation.

    Thin convenience wrapper used by the centralized algorithms; the
    distributed algorithms work on index arithmetic plus per-partition
    slices instead and never materialize a global tree.
    """

    def __init__(self, data: ArrayLike) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 1:
            raise InvalidInputError("data must be one-dimensional")
        self.n = int(self.data.shape[0])
        if not is_power_of_two(self.n):
            raise InvalidInputError(f"N={self.n} is not a power of two")
        self.coefficients = haar_transform(self.data)

    @property
    def log_n(self) -> int:
        """``log2(N)``, the number of detail levels."""
        return self.n.bit_length() - 1

    def level(self, index: int) -> int:
        """Level of node ``c_index``."""
        return node_level(index)

    def leaf_range(self, index: int) -> tuple[int, int]:
        """Half-open data range covered by node ``c_index``."""
        return node_leaf_range(index, self.n)

    def children(self, index: int) -> tuple[int, int] | None:
        """Coefficient children of ``c_index`` (see :func:`node_children`)."""
        return node_children(index, self.n)

    def parent(self, index: int) -> int:
        """Parent node of ``c_index``."""
        return node_parent(index)

    def path(self, leaf: int) -> list[int]:
        """``path_leaf`` from the root down to ``d_leaf``."""
        return data_path(leaf, self.n)

    def sign(self, node: int, leaf: int) -> int:
        """``delta`` of node ``c_node`` at data value ``d_leaf``."""
        return leaf_sign(node, leaf, self.n)

    def reconstruct_value(self, leaf: int, retained: Mapping[int, float] | None = None) -> float:
        """Reconstruct ``d_leaf`` from ``retained`` (default: all coefficients)."""
        source = self.coefficients if retained is None else retained
        return reconstruct_value(source, leaf, self.n)

    def range_sum(self, lo: int, hi: int, retained: Mapping[int, float] | None = None) -> float:
        """Range sum ``d(lo:hi)`` from ``retained`` (default: all coefficients)."""
        source = self.coefficients if retained is None else retained
        return reconstruct_range_sum(source, lo, hi, self.n)
