"""Dataset validation, shaping, and persistence utilities.

:func:`as_finite_series` is the one input boundary for in-memory series:
``build_synopsis`` and both serving-store tiers reject non-finite or
mis-shaped values through it, before any algorithm or store state sees
them; file-backed input (:class:`~repro.mapreduce.hdfs.FileDataset`)
runs its :func:`require_finite` check chunk by chunk.
:func:`atomic_write_text` saves the store crash-safely, and
:func:`read_json` reads saved files back.

The error tree is a complete binary tree, so every algorithm in this
package expects power-of-two input lengths.  Real datasets rarely oblige;
these helpers pad (with a constant, conventionally zero, as the paper's
pipeline does when partitioning NYCT/WD) or truncate.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError, ReproError
from repro.wavelet.transform import is_power_of_two

__all__ = ["as_finite_series", "atomic_write_text", "describe", "next_power_of_two",
           "pad_to_power_of_two", "read_json", "require_finite", "truncate_to_power_of_two"]


def as_finite_series(data: ArrayLike) -> NDArray[np.float64]:
    """``data`` as a float64 1-D array (may share memory with ``data``).

    Raises :class:`InvalidInputError` for input that is not
    one-dimensional, is empty, or holds a NaN or an infinity.
    """
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidInputError("data must be one-dimensional")
    if values.size == 0:
        raise InvalidInputError("data must be non-empty")
    require_finite(values)
    return values


def require_finite(values: NDArray[np.float64], start: int = 0) -> None:
    """Raise :class:`InvalidInputError` at the first NaN or infinity.

    ``values`` may be one chunk of a longer series that begins at index
    ``start``; the error names the index in the whole series.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InvalidInputError(
            f"data must be finite; found {values[bad]} at index {start + bad}"
        )


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is >= ``n``."""
    if n <= 0:
        raise InvalidInputError("n must be positive")
    return 1 << (n - 1).bit_length()


def pad_to_power_of_two(data: ArrayLike, pad_value: float = 0.0) -> NDArray[np.float64]:
    """Right-pad ``data`` with ``pad_value`` up to the next power of two."""
    values = as_finite_series(data)
    n = values.shape[0]
    if is_power_of_two(n):
        return values.copy()
    padded = np.full(next_power_of_two(n), pad_value, dtype=np.float64)
    padded[:n] = values
    return padded


def truncate_to_power_of_two(data: ArrayLike) -> NDArray[np.float64]:
    """Keep the longest power-of-two prefix of ``data``."""
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidInputError("data must be one-dimensional")
    n = values.shape[0]
    if n == 0:
        raise InvalidInputError("data must be non-empty")
    keep = 1 << (n.bit_length() - 1)
    return values[:keep].copy()


def describe(data: ArrayLike) -> dict[str, float]:
    """Summary statistics in Table 3's format (records/avg/stdv/max)."""
    values = np.asarray(data, dtype=np.float64)
    return {
        "records": int(values.shape[0]),
        "avg": float(values.mean()),
        "stdv": float(values.std()),
        "max": float(values.max()),
    }


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` so a crash never leaves it truncated.

    Writes a temporary file in the same directory, flushes and fsyncs
    it, then renames it over ``path`` (an atomic replace).  If anything
    fails before the rename, the temporary file is removed and ``path``
    keeps its previous contents.
    """
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_json(path: str | Path) -> Any:
    """The JSON document at ``path``; callers check its shape themselves.

    A missing, unreadable or non-JSON file raises :class:`ReproError`.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ReproError(f"cannot read JSON from {path}: {exc}") from exc
