"""LRU reconstruction cache for the serving layer's point queries.

Point lookups against a wavelet synopsis cost ``O(log N)`` each via the
root-to-leaf path sum; a serving workload that hammers a hot region pays
that log factor per query.  The cache instead materializes the leaf
values of one error-(sub-)tree *segment* at a time — ``segment_leaves``
values per inverse transform — and answers subsequent points in that
segment by array lookup.

Entries are keyed ``(name, version, segment_index)``: bumping a series'
version on append makes every stale entry unreachable (natural miss),
and :meth:`ReconstructionCache.invalidate` additionally purges the dead
entries eagerly so an append frees their memory immediately rather than
waiting for LRU pressure.

A miss calls :func:`reconstruct_segment` (defined with the synopsis in
:mod:`repro.wavelet.synopsis`): the sub-tree rooted at ``n / seg_len +
segment_index`` owns the segment's leaves, the ancestor path contributes
one constant, and the sub-tree's coefficients are ``log2(seg_len)``
slices of the synopsis's sorted index array — one ``O(seg_len)`` inverse
transform reproduces ``data[start : start + seg_len]`` as the synopsis
approximates it, at a cost that does not grow with the synopsis size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import InvalidInputError
from repro.wavelet.synopsis import WaveletSynopsis, reconstruct_segment
from repro.wavelet.transform import is_power_of_two

__all__ = ["ReconstructionCache", "reconstruct_segment"]


class ReconstructionCache:
    """Bounded LRU of reconstructed segments, safe under concurrent readers.

    The lock guards only dict bookkeeping; reconstruction itself runs
    outside it, so two threads missing the same segment may both build
    it — they build the identical array (pure function of an immutable
    synopsis), and last-write-wins is harmless.
    """

    def __init__(self, max_entries: int = 256, segment_leaves: int = 1024) -> None:
        if max_entries < 1:
            raise InvalidInputError("cache must hold at least one entry")
        if not is_power_of_two(segment_leaves) or segment_leaves < 2:
            raise InvalidInputError("segment_leaves must be a power of two >= 2")
        self.max_entries = max_entries
        self.segment_leaves = segment_leaves
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int, int], NDArray[np.float64]] = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def segment_length(self, n: int) -> int:
        """Effective segment size for a series of ``n`` leaves."""
        return min(self.segment_leaves, n)

    def point(
        self, name: str, version: int, synopsis: WaveletSynopsis, index: int
    ) -> float:
        """Approximate value at ``index``, via the cached segment."""
        seg_len = self.segment_length(synopsis.n)
        segment = self.segment(name, version, synopsis, index // seg_len)
        return float(segment[index % seg_len])

    def segment(
        self, name: str, version: int, synopsis: WaveletSynopsis, segment_index: int
    ) -> NDArray[np.float64]:
        """The reconstructed segment, from cache or built on miss."""
        key = (name, version, segment_index)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return cached
        seg_len = self.segment_length(synopsis.n)
        built = reconstruct_segment(synopsis, segment_index * seg_len, seg_len)
        with self._lock:
            self._misses += 1
            self._entries[key] = built
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        return built

    def invalidate(self, name: str) -> int:
        """Drop every entry of ``name`` (any version); returns the count."""
        with self._lock:
            dead = [key for key in self._entries if key[0] == name]
            for key in dead:
                del self._entries[key]
            return len(dead)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> dict[str, int]:
        """Snapshot of hit/miss/eviction/size counters."""
        with self._lock:
            return {
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "cache_evictions": self._evictions,
                "cache_entries": len(self._entries),
            }
