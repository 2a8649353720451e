"""Wavelet synopses: sparse sets of retained coefficients.

A :class:`WaveletSynopsis` is the output of every thresholding algorithm in
this package.  It stores only the retained (non-zero) coefficients, as two
read-only columns sorted by node: ``indices`` (``int64``, strictly
increasing, in ``[0, N)``) and ``values`` (finite, non-zero ``float64``).
All other coefficients are implicitly zero.  The constructor takes a
``{node: value}`` mapping, validates it once (integral in-range indices,
finite values; zeros are dropped) and freezes the arrays.  Every read
works on the arrays:

* full reconstruction scatters them into the dense vector;
* ``O(log N)`` point and range-sum queries look up the coefficients on
  the query's root-to-leaf paths with one ``searchsorted`` and run the
  error-tree formulas of :mod:`repro.wavelet.error_tree` on them, which
  is what makes synopses usable for approximate query processing;
* :func:`reconstruct_segment` rebuilds one aligned run of leaves from
  ``log2(segment)`` array slices plus the ancestor path, so its cost does
  not grow with the number of retained coefficients.

:attr:`WaveletSynopsis.coefficients` is a read-only mapping view built
from the arrays on access, for callers that want ``{node: value}``.

*Restricted* synopses retain original Haar coefficient values (GreedyAbs,
conventional thresholding); *unrestricted* synopses may store arbitrary
values at each node (MinHaarSpace and its distributed version).  Both
reconstruct through the same error-tree semantics.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError
from repro.wavelet import metrics
from repro.wavelet.error_tree import (
    data_path,
    incoming_value,
    range_sum_nodes,
    range_sum_of,
    reconstruct_value,
)
from repro.wavelet.transform import inverse_haar_transform, is_power_of_two

__all__ = ["WaveletSynopsis", "reconstruct_segment"]


def _columns(
    n: int, coefficients: Mapping[int, float]
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """The validated, node-sorted, read-only arrays of a coefficient map."""
    keys = list(coefficients.keys())
    # np.array([]) would be float64.
    indices: NDArray[Any] = np.array(keys) if keys else np.empty(0, dtype=np.int64)
    if indices.dtype.kind not in "iu":
        raise InvalidInputError(
            f"coefficient indices must be integers in [0, {n}), got "
            f"{indices.dtype} keys"
        )
    try:
        values = np.array(list(coefficients.values()), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"coefficient values must be real numbers: {exc}") from exc
    outside = (indices < 0) | (indices >= n)
    if outside.any():
        raise InvalidInputError(
            f"coefficient index {indices[outside][0]} out of range for N={n}"
        )
    if not np.isfinite(values).all():
        raise InvalidInputError("coefficient values must be finite")
    kept = values != 0.0
    order = np.argsort(indices[kept], kind="stable")
    sorted_indices = indices[kept][order].astype(np.int64)
    sorted_values = values[kept][order]
    sorted_indices.flags.writeable = False
    sorted_values.flags.writeable = False
    return sorted_indices, sorted_values


class _CoefficientMap(Mapping[int, float]):
    """Read-only ``{node: value}`` mapping over a synopsis's arrays."""

    def __init__(self, indices: NDArray[np.int64], values: NDArray[np.float64]) -> None:
        self._items: dict[int, float] = dict(zip(indices.tolist(), values.tolist()))

    def __getitem__(self, node: int) -> float:
        return self._items[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


class WaveletSynopsis:
    """A sparse wavelet representation of an ``N``-point data vector.

    Parameters
    ----------
    n:
        Length of the underlying data vector (a power of two).
    coefficients:
        Mapping from error-tree node index to retained coefficient value.
        Indices must be integers in ``[0, N)`` and values finite; zero
        values are dropped.
    meta:
        Free-form provenance (algorithm name, parameters, job statistics).

    Attributes
    ----------
    indices, values:
        The retained coefficients: read-only ``int64`` node indices in
        increasing order and their ``float64`` values.
    """

    def __init__(
        self,
        n: int,
        coefficients: Mapping[int, float],
        meta: dict[str, Any] | None = None,
    ) -> None:
        if not is_power_of_two(n):
            raise InvalidInputError(f"N={n} is not a power of two")
        self.n = n
        self.indices, self.values = _columns(n, coefficients)
        self.meta: dict[str, Any] = {} if meta is None else meta

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Unpickled arrays come back writeable; restore the invariant.
        self.__dict__.update(state)
        self.indices.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def coefficients(self) -> Mapping[int, float]:
        """Read-only ``{node: value}`` view, built from the arrays (``O(B)``)."""
        return _CoefficientMap(self.indices, self.values)

    @property
    def size(self) -> int:
        """Number of retained non-zero coefficients."""
        return len(self.indices)

    def dense(self) -> np.ndarray:
        """Return the dense length-``N`` coefficient vector ``W_hat``."""
        dense = np.zeros(self.n, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    def reconstruct(self) -> np.ndarray:
        """Reconstruct the full approximate data vector ``d_hat``."""
        return inverse_haar_transform(self.dense())

    def _values_at(
        self, nodes: Sequence[int], slots: NDArray[np.intp] | None = None
    ) -> list[float]:
        """Coefficient values at ``nodes`` (``0.0`` where none is retained).

        ``slots`` are the nodes' ``searchsorted`` positions in
        :attr:`indices`, when the caller already has them.
        """
        if not self.size:
            return [0.0] * len(nodes)
        if slots is None:
            slots = self.indices.searchsorted(nodes)
        found = self.indices.take(slots, mode="clip").tolist()
        values = self.values.take(slots, mode="clip").tolist()
        return [value if at == node else 0.0 for node, at, value in zip(nodes, found, values)]

    def point_query(self, leaf: int) -> float:
        """Approximate value of ``d_leaf`` in ``O(log N)`` time."""
        path = data_path(leaf, self.n)
        return reconstruct_value(dict(zip(path, self._values_at(path))), leaf, self.n)

    def range_sum(self, lo: int, hi: int) -> float:
        """Approximate range sum ``d(lo:hi)`` (inclusive) in ``O(log N)``."""
        nodes = range_sum_nodes(lo, hi, self.n)
        return range_sum_of(nodes, self._values_at(nodes), lo, hi, self.n)

    def range_avg(self, lo: int, hi: int) -> float:
        """Approximate range average over ``[lo, hi]`` (inclusive)."""
        if lo > hi:
            raise InvalidInputError(f"empty range [{lo}, {hi}]")
        return self.range_sum(lo, hi) / (hi - lo + 1)

    def max_abs_error(self, data: ArrayLike) -> float:
        """Maximum absolute reconstruction error against ``data``."""
        return metrics.max_abs_error(data, self.reconstruct())

    def max_rel_error(
        self, data: ArrayLike, sanity_bound: float = metrics.DEFAULT_SANITY_BOUND
    ) -> float:
        """Maximum relative reconstruction error against ``data``."""
        return metrics.max_rel_error(data, self.reconstruct(), sanity_bound)

    def l2_error(self, data: ArrayLike) -> float:
        """Root-mean-squared reconstruction error against ``data``."""
        return metrics.l2_error(data, self.reconstruct())

    def to_dict(self) -> dict[str, Any]:
        """Serialize to plain Python types (JSON-friendly)."""
        return {
            "n": self.n,
            "coefficients": dict(
                zip(map(str, self.indices.tolist()), self.values.tolist())
            ),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WaveletSynopsis":
        """Inverse of :meth:`to_dict`; validated like the constructor.

        A payload of any other shape, such as a store file, raises
        :class:`InvalidInputError`.
        """
        # JSON object keys are strings; any other key reaches the
        # constructor's integer check as it is, so 3.7 is not truncated.
        try:
            coefficients = {
                int(key) if isinstance(key, str) else key: value
                for key, value in payload["coefficients"].items()
            }
            n = int(payload["n"])
            meta = dict(payload.get("meta", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"not a synopsis payload: {exc!r}") from exc
        return cls(n=n, coefficients=coefficients, meta=meta)

    def same_coefficients(self, other: "WaveletSynopsis", tolerance: float = 0.0) -> bool:
        """Return True if both synopses retain the same coefficient values."""
        if self.n != other.n or not np.array_equal(self.indices, other.indices):
            return False
        return bool(np.all(np.abs(self.values - other.values) <= tolerance))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        algo = self.meta.get("algorithm", "?")
        return f"WaveletSynopsis(n={self.n}, size={self.size}, algorithm={algo!r})"


def reconstruct_segment(
    synopsis: WaveletSynopsis, start: int, seg_len: int
) -> NDArray[np.float64]:
    """Reconstruct the ``seg_len`` approximate leaves starting at ``start``.

    ``seg_len`` must be a power of two dividing ``synopsis.n`` and
    ``start`` a multiple of it in ``[0, N)``.  The segment is the leaf
    range of the sub-tree rooted at ``root = (N + start) / seg_len``.
    The ancestors' path sum (:func:`~repro.wavelet.error_tree.
    incoming_value`) fills the sub-tree's average slot, and its nodes at
    depth ``k`` — the index range ``[root << k, (root + 1) << k)``, one
    array slice — fill local detail slots ``[2^k, 2^(k+1))``; one
    ``O(seg_len)`` inverse transform finishes.
    """
    n = synopsis.n
    if not (
        is_power_of_two(seg_len)
        and n % seg_len == 0
        and start % seg_len == 0
        and 0 <= start < n
    ):
        raise InvalidInputError(
            f"segment [{start}, {start + seg_len}) is not an aligned segment of N={n}"
        )
    if seg_len == n:
        return synopsis.reconstruct()
    root = (n + start) // seg_len
    ancestors = [root >> shift for shift in range(1, root.bit_length())] + [0]
    depths = range(seg_len.bit_length() - 1)
    # One search finds the ancestors and, per depth k, the sub-tree's
    # node range [root << k, (root + 1) << k).
    bounds = [root << k for k in depths] + [(root + 1) << k for k in depths]
    slots = synopsis.indices.searchsorted(ancestors + bounds)
    above = len(ancestors)
    local = np.zeros(seg_len, dtype=np.float64)
    above_values = synopsis._values_at(ancestors, slots[:above])
    local[0] = incoming_value(dict(zip(ancestors, above_values)), root, n)
    edges = slots[above:].tolist()
    indices, values = synopsis.indices, synopsis.values
    for k in depths:
        first, stop = edges[k], edges[len(depths) + k]
        if first != stop:
            local[indices[first:stop] - ((root - 1) << k)] = values[first:stop]
    return inverse_haar_transform(local)
