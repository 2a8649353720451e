"""Input splits: the HDFS-block stand-in.

Two split disciplines appear in the paper:

* **sub-tree aligned** splits (CON, DGreedyAbs, the DP framework): each
  mapper reads a contiguous, power-of-two sized portion of the data array
  so that it owns a complete error sub-tree (Section 4 / Figure 3);
* **block-aligned** splits (Send-Coef): each mapper takes as many data
  points as fit in an HDFS block, with no power-of-two alignment
  (Appendix A.3).

Both disciplines above hold the whole data array resident.  For
out-of-core runs, :class:`FileDataset` keeps the data in a ``.npy`` file
and hands out :class:`FileSplit` instances whose ``values`` are read
lazily through a shared memory map — a split pickles as just
``(path, offset, length)``, so a :class:`~repro.mapreduce.process.
ProcessPoolRuntime` worker maps only the slice it actually reads and the
driver never materializes the input at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, cast

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.data.loader import require_finite
from repro.exceptions import InvalidInputError
from repro.wavelet.transform import is_power_of_two

__all__ = ["FileDataset", "FileSplit", "InputSplit", "aligned_splits", "block_splits"]

#: Values per chunk when :class:`FileDataset` scans its file for NaN and
#: infinities (512 KiB of float64).  The scan reads the file into one
#: chunk buffer rather than touching the memory map, whose pages would
#: all stay resident until it is unmapped.
_SCAN_VALUES = 1 << 16


@dataclass
class InputSplit:
    """One mapper's input: a contiguous slice of the data array.

    ``offset`` is the index of the first data point; ``values`` are the
    points themselves.  ``meta`` carries split-specific context (e.g. which
    base sub-tree the split corresponds to).
    """

    split_id: int
    offset: int
    values: NDArray[np.float64]
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def serialized_size(self) -> int:
        """Modeled on-disk size (used only for accounting, never shuffled)."""
        return int(self.values.nbytes)


def aligned_splits(data: ArrayLike, split_size: int) -> list[InputSplit]:
    """Partition ``data`` into power-of-two aligned splits of ``split_size``.

    ``len(data)`` and ``split_size`` must both be powers of two with
    ``split_size <= len(data)``, so every split is exactly the leaf set of
    one error sub-tree (the locality-preserving partitioning of Section 4).
    """
    values = np.asarray(data, dtype=np.float64)
    n = values.shape[0]
    if not is_power_of_two(n):
        raise InvalidInputError(f"data length {n} is not a power of two")
    if not is_power_of_two(split_size):
        raise InvalidInputError(f"split size {split_size} is not a power of two")
    if split_size > n:
        raise InvalidInputError(f"split size {split_size} exceeds data length {n}")
    return [
        InputSplit(split_id=i, offset=i * split_size, values=values[i * split_size : (i + 1) * split_size])
        for i in range(n // split_size)
    ]


def block_splits(data: ArrayLike, block_size: int) -> list[InputSplit]:
    """Partition ``data`` into HDFS-style blocks of ``block_size`` points.

    No power-of-two alignment is required (Send-Coef's discipline); the
    final block may be short.
    """
    values = np.asarray(data, dtype=np.float64)
    if block_size <= 0:
        raise InvalidInputError("block size must be positive")
    n = values.shape[0]
    splits: list[InputSplit] = []
    for i, start in enumerate(range(0, n, block_size)):
        splits.append(
            InputSplit(split_id=i, offset=start, values=values[start : start + block_size])
        )
    return splits


@lru_cache(maxsize=8)
def _mapped_array(path: str) -> NDArray[np.float64]:
    """One shared read-only memory map per dataset file (per process)."""
    return cast("NDArray[np.float64]", np.load(path, mmap_mode="r"))


class FileSplit(InputSplit):
    """A split whose ``values`` live in a ``.npy`` file, read on demand.

    Pickles as ``(split_id, offset, path, length, meta)`` — never the
    data — so shipping a split to a process-pool worker costs a few
    hundred bytes regardless of N.  ``values`` is a slice of a shared
    read-only memory map, so the OS pages in only what the map task
    touches and can evict it freely afterwards.
    """

    def __init__(
        self,
        split_id: int,
        offset: int,
        path: str | Path,
        length: int,
        meta: dict[str, Any] | None = None,
    ) -> None:
        # Deliberately not calling the dataclass __init__: ``values`` is
        # a lazy property here, not a stored field.
        self.split_id = split_id
        self.offset = offset
        self.path = str(path)
        self.length = int(length)
        self.meta = meta if meta is not None else {}

    @property
    def values(self) -> NDArray[np.float64]:
        return _mapped_array(self.path)[self.offset : self.offset + self.length]

    @values.setter
    def values(self, _: NDArray[np.float64]) -> None:
        raise TypeError("FileSplit.values is file-backed and read-only")

    def __len__(self) -> int:
        return self.length

    def serialized_size(self) -> int:
        return self.length * 8  # float64 points on disk

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileSplit):
            return NotImplemented
        return (self.split_id, self.offset, self.path, self.length, self.meta) == (
            other.split_id,
            other.offset,
            other.path,
            other.length,
            other.meta,
        )

    def __repr__(self) -> str:
        return (
            f"FileSplit(split_id={self.split_id}, offset={self.offset}, "
            f"length={self.length}, path={self.path!r})"
        )


class FileDataset:
    """A float64 ``.npy`` dataset accessed through lazy, mmap-backed splits.

    The out-of-core counterpart of passing a resident array to
    :func:`aligned_splits`: algorithms that only need ``len(data)`` plus
    sub-tree aligned splits (DGreedyAbs/DGreedyRel) accept either.  The
    file must hold a one-dimensional float64 array of power-of-two
    length, validated from the ``.npy`` header, and only finite values,
    validated by one chunked read of the file (the same
    :class:`InvalidInputError` as the in-memory boundary,
    :func:`~repro.data.loader.as_finite_series`).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        try:
            array = np.load(self.path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise InvalidInputError(
                f"cannot open {self.path!r} as a .npy dataset: {exc}"
            ) from exc
        if array.ndim != 1:
            raise InvalidInputError(
                f"dataset {self.path!r} must be one-dimensional, got shape {array.shape}"
            )
        if array.dtype != np.float64:
            raise InvalidInputError(
                f"dataset {self.path!r} must be float64, got dtype {array.dtype}"
            )
        self.length = int(array.shape[0])
        if not is_power_of_two(self.length):
            raise InvalidInputError(
                f"dataset length {self.length} is not a power of two"
            )
        chunk = np.empty(min(self.length, _SCAN_VALUES), dtype=np.float64)
        with open(self.path, "rb") as stream:
            stream.seek(array.offset)
            for start in range(0, self.length, chunk.size):
                read = stream.readinto(chunk) // chunk.itemsize
                require_finite(chunk[:read], start)

    def __len__(self) -> int:
        return self.length

    def aligned_splits(self, split_size: int) -> list[InputSplit]:
        """Power-of-two aligned :class:`FileSplit` partitioning of the file."""
        if not is_power_of_two(split_size):
            raise InvalidInputError(f"split size {split_size} is not a power of two")
        if split_size > self.length:
            raise InvalidInputError(
                f"split size {split_size} exceeds data length {self.length}"
            )
        return [
            FileSplit(
                split_id=i,
                offset=i * split_size,
                path=self.path,
                length=split_size,
            )
            for i in range(self.length // split_size)
        ]
