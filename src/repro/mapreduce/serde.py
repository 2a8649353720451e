"""Serialization for shuffle traffic: a cost model and a columnar codec.

Two related concerns live here:

* **Byte accounting** (:func:`estimate_size` / :func:`record_size`): the
  paper's algorithms are compared partly on *communication volume* (e.g.
  the histogram optimization of ErrHistGreedyAbs exists purely to shrink
  the bytes shuffled between level-1 and level-2 workers).  We therefore
  charge every emitted key-value pair with a deterministic,
  platform-independent byte cost instead of pickling: 4 bytes per int
  (the paper's ``sizeOf(int)``), 8 per float, UTF-8 length per string,
  byte length for ``bytes``-like payloads, ``nbytes`` for numpy arrays,
  and a small framing overhead per container.  The analytical bounds in
  :mod:`repro.observe.bounds` are derived against this model, so it must
  never drift silently.

  :func:`estimate_size` is the model's single definition.  The runtime
  charges whole task outputs with :func:`records_size`, which returns
  exactly ``sum(record_size(k, v) for k, v in records)`` but computes it
  column by column: one C-level pass per column labels items by exact
  type, fixed-width columns cost ``width * count``, string columns cost
  their joined length, tuple columns recurse per position, and every
  other type falls back to :func:`estimate_size` per item.  A
  hypothesis differential test holds the two equal on hostile records.

* **The columnar record-batch codec** (:func:`encode_batch` /
  :func:`decode_batch`): the external shuffle
  (:mod:`repro.mapreduce.shuffle`) spills sorted runs of records to disk
  and merges them back.  Moving those runs as per-record pickled python
  tuples would dominate the runtime at out-of-core scales, so a run is
  encoded as one *record batch*: keys and values become typed columns
  (narrowest-width int / float64 / bool / utf-8 string arrays,
  recursively per tuple position), with a signature-partitioned layout
  for heterogeneous streams (a one-byte-per-record selector restores
  the interleaving) and a batch-level pickle fallback for anything
  non-columnar.
  Decoding restores built-in python scalars bit-exactly (int64-range
  ints, float64 floats, bools, strings, and tuples thereof round-trip
  through raw array buffers; everything else round-trips through the
  pickle fallback), which is what keeps external-shuffle runs
  bit-identical to in-memory runs.
"""

from __future__ import annotations

import operator
import pickle
import struct
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from typing import Any

import numpy as np

__all__ = [
    "BATCH_MAGIC",
    "decode_batch",
    "encode_batch",
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


# ---------------------------------------------------------------------------
# Columnar record-batch codec (the external shuffle's on-disk run format).
# ---------------------------------------------------------------------------

#: File magic of one encoded record batch; the trailing byte is the version.
BATCH_MAGIC = b"RPRB\x02"

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Column tags.  Scalar columns are raw little-endian array buffers; 'T'
# fans out per tuple position; 'M' partitions a heterogeneous stream into
# homogeneous sub-columns; 'O' is the batch-level pickle fallback.
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_BOOL = b"B"
_TAG_STR = b"S"
_TAG_TUPLE = b"T"
_TAG_MIXED = b"M"
_TAG_OBJECT = b"O"

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


#: Width codes for narrowed int columns: code byte -> dtype.
_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")


def _partition(
    items: list[Any], kinds: set[type]
) -> tuple[dict[str, Any], dict[str, list[Any]]]:
    """Split a mixed stream into ``signature -> positions`` (int64 arrays).

    Runs at C speed: ``map(id, map(type, ...))`` labels every item with
    its type in one pass, and per-signature positions fall out of
    ``np.nonzero`` — no per-item python loop.  Only exact built-in python
    types get columnar signatures; numpy scalars (and anything else)
    land in the pickle (``"o"``) group so their concrete type survives
    the round trip bit-exactly.

    Also returns a cache of already-gathered sublists for signatures
    whose items were materialized along the way, so the caller doesn't
    gather the same positions twice.
    """
    type_ids = np.fromiter(
        map(id, map(type, items)), dtype=np.int64, count=len(items)
    )
    groups: dict[str, Any] = {}
    cache: dict[str, list[Any]] = {}
    other: list[Any] = []
    for kind in kinds:
        positions = np.nonzero(type_ids == id(kind))[0]
        if kind is tuple:
            sub = [items[p] for p in positions.tolist()]
            arities = np.fromiter(map(len, sub), dtype=np.int64, count=len(sub))
            distinct = np.nonzero(np.bincount(arities))[0].tolist()
            if len(distinct) == 1:
                groups[f"t{distinct[0]}"] = positions
                cache[f"t{distinct[0]}"] = sub
            else:
                for arity in distinct:
                    groups[f"t{arity}"] = positions[arities == arity]
        elif kind is int:
            sub = [items[p] for p in positions.tolist()]
            try:
                np.asarray(sub, dtype="<i8")
                groups["i"] = positions
                cache["i"] = sub
            except OverflowError:
                in_range = np.fromiter(
                    (_I64_MIN <= v <= _I64_MAX for v in sub),
                    dtype=np.bool_,
                    count=len(sub),
                )
                if in_range.any():
                    groups["i"] = positions[in_range]
                other.append(positions[~in_range])
        elif kind is float:
            groups["f"] = positions
        elif kind is str:
            groups["s"] = positions
        elif kind is bool:
            groups["b"] = positions
        else:
            other.append(positions)
    if other:
        groups["o"] = np.sort(np.concatenate(other)) if len(other) > 1 else other[0]
    # Deterministic column order regardless of set/id iteration order.
    return dict(sorted(groups.items())), cache


def _encode_column(signature: str, items: list[Any]) -> bytes:
    """Encode a signature-homogeneous column."""
    tag = signature[0]
    if tag == "i":
        array = np.asarray(items, dtype="<i8")
        low = int(array.min()) if len(array) else 0
        high = int(array.max()) if len(array) else 0
        code = next(
            c
            for c, bits in enumerate((8, 16, 32, 64))
            if -(1 << (bits - 1)) <= low and high < 1 << (bits - 1)
        )
        data = array.astype(_INT_DTYPES[code]).tobytes()
        return _TAG_INT + _U8.pack(code) + _U64.pack(len(data)) + data
    if tag == "f":
        data = np.asarray(items, dtype="<f8").tobytes()
        return _TAG_FLOAT + _U64.pack(len(data)) + data
    if tag == "b":
        data = np.asarray(items, dtype=np.bool_).tobytes()
        return _TAG_BOOL + _U64.pack(len(data)) + data
    if tag == "s":
        joined = "".join(items)
        blob = joined.encode("utf-8")
        offsets = np.zeros(len(items) + 1, dtype="<u4")
        if len(blob) == len(joined):  # pure ASCII: byte length == char length
            np.cumsum(
                np.fromiter(map(len, items), dtype="<u4", count=len(items)),
                out=offsets[1:],
            )
        else:
            np.cumsum(
                [len(text.encode("utf-8")) for text in items], out=offsets[1:]
            )
        payload = offsets.tobytes() + blob
        return _TAG_STR + _U32.pack(len(items)) + _U64.pack(len(payload)) + payload
    if tag == "t":
        arity = int(signature[1:])
        parts = [_encode_group([item[i] for item in items]) for i in range(arity)]
        return _TAG_TUPLE + _U8.pack(arity) + b"".join(parts)
    data = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
    return _TAG_OBJECT + _U64.pack(len(data)) + data


def _encode_group(items: list[Any]) -> bytes:
    """Encode one stream of keys (or values, or tuple positions).

    A homogeneous stream becomes a single typed column; a heterogeneous
    one (the codec's adversarial mixed-signature case: interleaved
    4-tuple ``hist`` and 3-tuple ``final`` keys, the shape DGreedyAbs's
    job 1 emitted before it shipped one columnar record per run) is
    partitioned by signature into sub-columns plus a one-byte-per-record
    selector array that restores the interleaving.

    Homogeneity is detected with ``set(map(type, ...))`` — one C-level
    pass — and mixed streams are partitioned by numpy type-id labeling
    (:func:`_partition`), so encode cost scales with the number of
    *signatures*, not with batch size.
    """
    kinds = set(map(type, items))
    groups: dict[str, Any] | None = None
    if kinds == {int}:
        try:
            return _encode_column("i", items)
        except OverflowError:
            pass  # some item is beyond int64: partition below
    elif kinds == {float}:
        return _encode_column("f", items)
    elif kinds == {str}:
        return _encode_column("s", items)
    elif kinds == {bool}:
        return _encode_column("b", items)
    elif kinds == {tuple}:
        arities = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
        distinct = np.nonzero(np.bincount(arities))[0].tolist()
        if len(distinct) == 1:
            return _encode_column(f"t{distinct[0]}", items)
        # All tuples, mixed arity (e.g. interleaved hist/final keys):
        # partition by length directly, skipping the type-id pass.
        groups = {f"t{arity}": np.nonzero(arities == arity)[0] for arity in distinct}
    elif not kinds:
        return _encode_column("o", items)
    cache: dict[str, list[Any]] = {}
    if groups is None:
        groups, cache = _partition(items, kinds)
    if len(groups) == 1:
        return _encode_column(next(iter(groups)), items)
    if len(groups) > 255:  # selector bytes can't address it: whole-stream pickle
        return _encode_column("o", items)
    selector = np.zeros(len(items), dtype=np.uint8)
    for group_index, positions in enumerate(groups.values()):
        selector[positions] = group_index
    parts = [_TAG_MIXED, _U32.pack(len(groups)), selector.tobytes()]
    for signature, positions in groups.items():
        column_items = (
            cache[signature]
            if signature in cache
            else [items[p] for p in positions.tolist()]
        )
        parts.append(_encode_column(signature, column_items))
    return b"".join(parts)


def _decode_group(buf: bytes, offset: int, count: int) -> tuple[list[Any], int]:
    """Decode one group; returns ``(items, next offset)``."""
    tag = buf[offset : offset + 1]
    offset += 1
    if tag == _TAG_INT:
        (code,) = _U8.unpack_from(buf, offset)
        offset += _U8.size
        (nbytes,) = _U64.unpack_from(buf, offset)
        offset += _U64.size
        array = np.frombuffer(buf, dtype=_INT_DTYPES[code], count=count, offset=offset)
        offset += nbytes
        return array.tolist(), offset
    if tag in (_TAG_BOOL, _TAG_FLOAT):
        (nbytes,) = _U64.unpack_from(buf, offset)
        offset += _U64.size
        dtype = {_TAG_BOOL: np.bool_, _TAG_FLOAT: "<f8"}[tag]
        array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return array.tolist(), offset
    if tag == _TAG_STR:
        (n,) = _U32.unpack_from(buf, offset)
        offset += _U32.size
        (nbytes,) = _U64.unpack_from(buf, offset)
        offset += _U64.size
        offsets = np.frombuffer(buf, dtype="<u4", count=n + 1, offset=offset)
        blob_start = offset + offsets.nbytes
        blob = buf[blob_start : offset + nbytes]
        offset += nbytes
        widths = np.diff(offsets)
        if (
            n
            and widths[0]
            and bool((widths == widths[0]).all())
            and blob.isascii()
            and b"\x00" not in blob
        ):
            # Uniform-width ASCII column (e.g. 60k copies of a stage
            # label): one vectorized S->U cast instead of n slice+decode
            # calls.  NUL-free is required because fixed-width numpy
            # bytes treat trailing NULs as padding.
            array = np.frombuffer(blob, dtype=f"|S{int(widths[0])}")
            return array.astype(np.str_).tolist(), offset
        items = [
            blob[offsets[i] : offsets[i + 1]].decode("utf-8") for i in range(n)
        ]
        return items, offset
    if tag == _TAG_TUPLE:
        (arity,) = _U8.unpack_from(buf, offset)
        offset += _U8.size
        columns = []
        for _ in range(arity):
            column, offset = _decode_group(buf, offset, count)
            columns.append(column)
        return list(zip(*columns)) if count else [], offset
    if tag == _TAG_MIXED:
        (ngroups,) = _U32.unpack_from(buf, offset)
        offset += _U32.size
        selector = np.frombuffer(buf, dtype=np.uint8, count=count, offset=offset)
        offset += count
        counts = np.bincount(selector, minlength=ngroups)
        scattered = np.empty(count, dtype=object)
        for group_index in range(ngroups):
            column, offset = _decode_group(buf, offset, int(counts[group_index]))
            # Route through a 1-D object array so tuples stay scalars
            # under the mask assignment (a bare list of equal-length
            # tuples would be read as 2-D).
            rhs = np.empty(len(column), dtype=object)
            rhs[:] = column
            scattered[selector == group_index] = rhs
        items: list[Any] = scattered.tolist()
        return items, offset
    if tag == _TAG_OBJECT:
        (nbytes,) = _U64.unpack_from(buf, offset)
        offset += _U64.size
        payload: list[Any] = pickle.loads(buf[offset : offset + nbytes])
        return payload, offset + nbytes
    raise ValueError(f"corrupt record batch: unknown column tag {tag!r}")


def encode_batch(records: list[tuple[Any, Any]]) -> bytes:
    """Encode ``records`` as one columnar record batch."""
    keys = _encode_group(list(map(operator.itemgetter(0), records)))
    values = _encode_group(list(map(operator.itemgetter(1), records)))
    return BATCH_MAGIC + _U64.pack(len(records)) + keys + values


def decode_batch(buf: bytes) -> list[tuple[Any, Any]]:
    """Decode one record batch back into ``(key, value)`` records."""
    if buf[: len(BATCH_MAGIC)] != BATCH_MAGIC:
        raise ValueError("corrupt record batch: bad magic")
    offset = len(BATCH_MAGIC)
    (count,) = _U64.unpack_from(buf, offset)
    offset += _U64.size
    keys, offset = _decode_group(buf, offset, count)
    values, offset = _decode_group(buf, offset, count)
    return list(zip(keys, values))
