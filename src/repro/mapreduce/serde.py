"""The byte model that prices shuffle traffic.

The paper's algorithms are compared partly on *communication volume*
(e.g. the histogram optimization of ErrHistGreedyAbs exists purely to
shrink the bytes shuffled between level-1 and level-2 workers).  We
therefore charge every emitted key-value pair with a deterministic,
platform-independent byte cost instead of pickling: 4 bytes per int (the
paper's ``sizeOf(int)``), 8 per float, UTF-8 length per string, byte
length for ``bytes``-like payloads, ``nbytes`` for numpy arrays, and a
small framing overhead per container.  The analytical bounds in
:mod:`repro.observe.bounds` are derived against this model, so it must
never drift silently.

:func:`estimate_size` is the model's single definition.  The runtime
charges whole task outputs with :func:`records_size`, which returns
exactly ``sum(record_size(k, v) for k, v in records)`` but computes it
column by column: one C-level pass per column labels items by exact
type, fixed-width columns cost ``width * count``, string columns cost
their joined length, tuple columns recurse per position, and every other
type falls back to :func:`estimate_size` per item.  A hypothesis
differential test holds the two equal on hostile records.

The external shuffle (:mod:`repro.mapreduce.shuffle`) charges its
buffer under this model too; what it writes to disk is plain pickle.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from typing import Any

import numpy as np

__all__ = [
    "estimate_size",
    "record_size",
    "records_size",
]

#: Framing overhead charged per container (tuple/list/dict/set), mirroring
#: Hadoop's per-record serialization framing.
CONTAINER_OVERHEAD = 4

_INT_SIZE = 4
_FLOAT_SIZE = 8
_BOOL_SIZE = 1
_NONE_SIZE = 1


def estimate_size(obj: Any) -> int:
    """Return the modeled serialized size of ``obj`` in bytes."""
    if obj is None:
        return _NONE_SIZE
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return _BOOL_SIZE
    if isinstance(obj, (int, np.integer)):
        return _INT_SIZE
    if isinstance(obj, (float, np.floating)):
        return _FLOAT_SIZE
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.object_:
            # An object array stores *pointers*; ``nbytes`` would charge 8
            # bytes per element no matter what the elements are.  Recurse
            # so shuffle volume counts the elements' real modeled size.
            return CONTAINER_OVERHEAD + sum(
                estimate_size(item) for item in obj.ravel()
            )
        return int(obj.nbytes) + CONTAINER_OVERHEAD
    if isinstance(obj, dict):
        return CONTAINER_OVERHEAD + sum(
            estimate_size(k) + estimate_size(v) for k, v in obj.items()
        )
    if isinstance(obj, (tuple, list, set, frozenset)):
        return CONTAINER_OVERHEAD + sum(estimate_size(item) for item in obj)
    if hasattr(obj, "serialized_size"):
        return int(obj.serialized_size())
    if hasattr(obj, "__dict__"):
        return CONTAINER_OVERHEAD + estimate_size(vars(obj))
    return _FLOAT_SIZE  # conservative default for unknown scalars


def record_size(key: Any, value: Any) -> int:
    """Modeled size of one shuffled ``(key, value)`` record."""
    return estimate_size(key) + estimate_size(value)


#: Exact types whose every instance has one modeled width.  Dispatch is on
#: ``type(x) is kind``: subclasses (numpy scalars, ``IntEnum``) are not in
#: the table and take the per-item :func:`estimate_size` path.
_FIXED_WIDTHS: dict[type, int] = {
    int: _INT_SIZE,
    float: _FLOAT_SIZE,
    bool: _BOOL_SIZE,
    type(None): _NONE_SIZE,
}


def records_size(records: Sequence[tuple[Any, Any]]) -> int:
    """Modeled size of a batch of records, computed column by column.

    Returns exactly ``sum(record_size(key, value) for key, value in
    records)`` without a recursive per-record walk: keys and values are
    sized as two columns (:func:`_column_size`).
    """
    keys = list(map(operator.itemgetter(0), records))
    values = list(map(operator.itemgetter(1), records))
    return _column_size(keys) + _column_size(values)


def _select(items: list[Any], labels: Iterable[Any], label: Any) -> list[Any]:
    """The items whose label equals ``label``, in order (one C-level pass)."""
    return list(compress(items, map(operator.eq, labels, repeat(label))))


def _column_size(column: list[Any]) -> int:
    """Total :func:`estimate_size` of ``column``'s items.

    A column of one exact type is sized in one piece; a mixed column is
    split by exact type first.  Fixed-width members of a mixed column are
    only counted, never gathered.
    """
    kinds = set(map(type, column))
    if len(kinds) == 1:
        return _kind_size(kinds.pop(), column)
    total = 0
    for kind in kinds:
        width = _FIXED_WIDTHS.get(kind)
        if width is not None:
            total += width * operator.countOf(map(type, column), kind)
        else:
            total += _kind_size(kind, _select(column, map(type, column), kind))
    return total


def _kind_size(kind: type, items: list[Any]) -> int:
    """Total :func:`estimate_size` of ``items``, all of exact type ``kind``."""
    width = _FIXED_WIDTHS.get(kind)
    if width is not None:
        return width * len(items)
    if kind is str:
        joined = "".join(items)
        return len(joined) if joined.isascii() else len(joined.encode("utf-8"))
    if kind is bytes or kind is bytearray:
        return sum(map(len, items))
    if kind is tuple:
        arities = set(map(len, items))
        if len(arities) == 1:
            return _tuples_size(items, arities.pop())
        return sum(
            _tuples_size(_select(items, map(len, items), arity), arity)
            for arity in arities
        )
    return sum(map(estimate_size, items))


def _tuples_size(items: list[tuple[Any, ...]], arity: int) -> int:
    """Total :func:`estimate_size` of ``items``, tuples of one ``arity``."""
    return CONTAINER_OVERHEAD * len(items) + sum(
        _column_size(list(map(operator.itemgetter(index), items)))
        for index in range(arity)
    )
