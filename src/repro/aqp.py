"""Approximate query processing over a collection of synopses.

The paper's motivation is AQP: answer aggregate queries from compact
synopses instead of the base data.  :class:`SynopsisStore` is the thin
serving layer a downstream user actually deploys — it manages one synopsis
per named series, answers point/sum/average queries in ``O(log N)``, keeps
each series' error guarantee next to its synopsis, and round-trips to JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.core.thresholding import build_synopsis
from repro.data.loader import as_finite_series, atomic_write_text
from repro.exceptions import InvalidInputError, ReproError
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.synopsis2d import WaveletSynopsis2D

__all__ = ["SynopsisStore"]

#: Either synopsis dimensionality the store can hold.
AnySynopsis = WaveletSynopsis | WaveletSynopsis2D


class SynopsisStore:
    """A named collection of wavelet synopses with query helpers.

    Holds 1-D and 2-D synopses; the 1-D query helpers reject 2-D series
    (use :meth:`get` and the synopsis' own ``cell_query`` /
    ``rectangle_sum`` for those), while registration, reporting, and
    persistence cover both.
    """

    def __init__(self) -> None:
        self._synopses: dict[str, AnySynopsis] = {}
        self._lengths: dict[str, int] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._synopses

    def __len__(self) -> int:
        return len(self._synopses)

    def names(self) -> list[str]:
        """Registered series names, sorted."""
        return sorted(self._synopses)

    def add(
        self,
        name: str,
        data: ArrayLike,
        budget: int,
        algorithm: str = "dgreedy-abs",
        **build_kwargs: Any,
    ) -> WaveletSynopsis:
        """Summarize ``data`` and register it under ``name``.

        The synopsis records the achieved max-abs guarantee against the
        (padded) data in its metadata; re-adding a name replaces it.
        """
        values = as_finite_series(data)
        synopsis = build_synopsis(values, budget, algorithm=algorithm, **build_kwargs)
        padded = np.zeros(synopsis.n)
        padded[: values.size] = values
        synopsis.meta["series"] = name
        synopsis.meta["original_length"] = int(values.size)
        synopsis.meta["max_abs_guarantee"] = synopsis.max_abs_error(padded)
        self._synopses[name] = synopsis
        self._lengths[name] = int(values.size)
        return synopsis

    def register(
        self, name: str, synopsis: AnySynopsis, original_length: int | None = None
    ) -> None:
        """Register a prebuilt synopsis (1-D or 2-D, e.g. loaded from elsewhere)."""
        if isinstance(synopsis, WaveletSynopsis2D):
            fallback = synopsis.shape[0] * synopsis.shape[1]
        else:
            fallback = synopsis.n
        self._synopses[name] = synopsis
        self._lengths[name] = int(
            original_length
            or synopsis.meta.get("original_length")
            or fallback
        )

    def get(self, name: str) -> AnySynopsis:
        """The registered synopsis itself (1-D or 2-D)."""
        try:
            return self._synopses[name]
        except KeyError:
            raise ReproError(
                f"unknown series {name!r}; available: {self.names()}"
            ) from None

    def _get(self, name: str) -> WaveletSynopsis:
        synopsis = self.get(name)
        if isinstance(synopsis, WaveletSynopsis2D):
            raise InvalidInputError(
                f"series {name!r} is 2-D; 1-D query helpers do not apply"
            )
        return synopsis

    def _clip(self, name: str, lo: int, hi: int) -> tuple[int, int]:
        length = self._lengths[name]
        if lo > hi:
            raise InvalidInputError(f"empty range [{lo}, {hi}]")
        if lo < 0 or hi >= length:
            raise InvalidInputError(
                f"range [{lo}, {hi}] out of bounds for series of length {length}"
            )
        return lo, hi

    def point(self, name: str, index: int) -> float:
        """Approximate value of one element."""
        synopsis = self._get(name)
        self._clip(name, index, index)
        return synopsis.point_query(index)

    def range_sum(self, name: str, lo: int, hi: int) -> float:
        """Approximate sum over the inclusive range ``[lo, hi]``."""
        synopsis = self._get(name)
        lo, hi = self._clip(name, lo, hi)
        return synopsis.range_sum(lo, hi)

    def range_avg(self, name: str, lo: int, hi: int) -> float:
        """Approximate average over the inclusive range ``[lo, hi]``."""
        synopsis = self._get(name)
        lo, hi = self._clip(name, lo, hi)
        return synopsis.range_avg(lo, hi)

    def guarantee(self, name: str) -> float:
        """The series' recorded max-abs guarantee (inf when unknown)."""
        return float(self.get(name).meta.get("max_abs_guarantee", float("inf")))

    def range_sum_bounds(self, name: str, lo: int, hi: int) -> tuple[float, float]:
        """Deterministic bounds on the exact range sum.

        Each value is within the max-abs guarantee, so the exact sum lies
        within ``width * guarantee`` of the approximate one.
        """
        approx = self.range_sum(name, lo, hi)
        slack = (hi - lo + 1) * self.guarantee(name)
        return approx - slack, approx + slack

    def report(self, name: str | None = None) -> list[dict[str, Any]]:
        """Per-series summary: size, compression ratio, guarantee.

        With ``name``, a single-row report for that series; unknown
        names fail with the available-series listing (routed through
        :meth:`get`), never a raw ``KeyError``.
        """
        rows: list[dict[str, Any]] = []
        for series_name in [name] if name is not None else self.names():
            synopsis = self.get(series_name)
            rows.append(
                {
                    "series": series_name,
                    "length": self._lengths[series_name],
                    "coefficients": synopsis.size,
                    "ratio": self._lengths[series_name] / max(synopsis.size, 1),
                    "max_abs_guarantee": self.guarantee(series_name),
                    "algorithm": synopsis.meta.get("algorithm"),
                }
            )
        return rows

    def save(self, path: str | Path) -> None:
        """Serialize the whole store to a JSON file, replaced atomically.

        Entries are tagged ``kind: "1d" | "2d"`` so a load can pick the
        right synopsis class.  A crash mid-save leaves the previous file
        loadable.
        """
        payload = {
            name: {
                "kind": "2d" if isinstance(synopsis, WaveletSynopsis2D) else "1d",
                "synopsis": synopsis.to_dict(),
                "original_length": self._lengths[name],
            }
            for name, synopsis in self._synopses.items()
        }
        atomic_write_text(path, json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "SynopsisStore":
        """Inverse of :meth:`save` (pre-tag payloads load as 1-D)."""
        store = cls()
        payload = json.loads(Path(path).read_text())
        for name, entry in payload.items():
            synopsis: AnySynopsis
            if entry.get("kind", "1d") == "2d":
                synopsis = WaveletSynopsis2D.from_dict(entry["synopsis"])
            else:
                synopsis = WaveletSynopsis.from_dict(entry["synopsis"])
            store.register(
                name, synopsis, original_length=entry["original_length"]
            )
        return store
