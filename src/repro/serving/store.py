"""Sharded, versioned synopsis store: the online AQP serving layer.

:class:`ShardedSynopsisStore` keeps named series and answers point,
sum and average queries from their synopses, each with deterministic
bounds from the series' max-abs guarantee:

* **Sharding** — series hash-partition across ``shards`` buckets by
  ``crc32(name)`` (never builtin ``hash``: it is salted per process and
  would shard differently across runs).  Each shard has its own lock, so
  lookups on different shards never contend.
* **Versioned snapshots** — every (re)build publishes an immutable
  :class:`SeriesVersion` by a single reference swap under the shard
  lock.  Readers resolve a snapshot once and then work lock-free on
  frozen state; a concurrent append can never expose a torn synopsis,
  only flip readers atomically from version ``v`` to ``v + 1``.  Each
  snapshot carries a :func:`~repro.analysis.sanitizer.stable_digest` of
  its payload, and the store keeps a version→digest history compatible
  with ``python -m repro.analysis --compare-digests``.
* **Batched queries** — :meth:`ShardedSynopsisStore.batch` resolves one
  snapshot per distinct series for the whole batch, so a batch observes
  a single consistent version per series.
* **Incremental re-thresholding** — appends route through the
  :mod:`repro.serving.incremental` maintainers: only the sub-trees
  overlapping the appended range are re-thresholded, then re-merged
  through the root pass, preserving each tier's guarantee
  (docs/SERVING.md).
* **Reconstruction LRU** — point lookups go through a
  :class:`~repro.serving.cache.ReconstructionCache` keyed
  ``(name, version, segment)``; appends invalidate eagerly.

Write concurrency is per series: a per-series mutation lock serializes
appends to the same series while appends to different series (and all
reads) proceed in parallel.
"""

from __future__ import annotations

import json
import operator
import threading
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.analysis.sanitizer import stable_digest
from repro.core.thresholding import serving_error_target
from repro.data.loader import (
    as_finite_series,
    atomic_write_text,
    pad_to_power_of_two,
    read_json,
)
from repro.exceptions import InvalidInputError, ReproError
from repro.mapreduce.cluster import SimulatedCluster
from repro.serving.cache import ReconstructionCache
from repro.serving.incremental import (
    DPMaintainer,
    GreedyMaintainer,
    MaintenanceStats,
)
from repro.wavelet.synopsis import WaveletSynopsis

__all__ = ["Query", "QueryResult", "SeriesVersion", "ShardedSynopsisStore"]

#: Query operations understood by :meth:`ShardedSynopsisStore.batch`.
QUERY_OPS = ("point", "range_sum", "range_avg")


@dataclass(frozen=True)
class Query:
    """One lookup in a batch; ranges are inclusive ``[lo, hi]``."""

    op: str
    series: str
    index: int | None = None
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class QueryResult:
    """Answer plus the guarantee and version it was served under.

    ``lower``/``upper`` are deterministic bounds on the exact answer
    derived from the per-value guarantee (for sums, scaled by the range
    width).
    """

    series: str
    op: str
    value: float
    version: int
    guarantee: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SeriesVersion:
    """Immutable published state of one series at one version."""

    name: str
    version: int
    tier: str
    synopsis: WaveletSynopsis
    length: int
    guarantee: float
    digest: str
    stats: MaintenanceStats


@dataclass
class _Series:
    """Mutable per-series state; ``lock`` serializes appends."""

    name: str
    tier: str
    params: dict[str, Any]
    maintainer: GreedyMaintainer | DPMaintainer
    buffer: np.ndarray
    length: int
    current: SeriesVersion
    lock: threading.Lock = field(default_factory=threading.Lock)


def _digest(synopsis: WaveletSynopsis, length: int, guarantee: float) -> str:
    """Canonical digest of a published version's observable payload.

    The coefficient arrays are node-sorted, so their bytes do not depend
    on the order an emitter inserted coefficients in.
    """
    return stable_digest(
        {
            "n": synopsis.n,
            "indices": synopsis.indices,
            "values": synopsis.values,
            "length": length,
            "guarantee": guarantee,
        }
    )


def _position(query: Query, name: str) -> int:
    """The integer field ``name`` of ``query``: Python or numpy integers only."""
    value = getattr(query, name)
    if value is None:
        raise InvalidInputError(f"{query.op} query needs {name}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(
            f"{query.op} query {name} must be an integer, got {value!r}"
        ) from None


class ShardedSynopsisStore:
    """Concurrent, versioned serving store over incremental maintainers."""

    def __init__(
        self,
        shards: int = 8,
        cache_entries: int = 256,
        segment_leaves: int = 1024,
        cluster: SimulatedCluster | None = None,
    ) -> None:
        if shards < 1:
            raise InvalidInputError("store needs at least one shard")
        self.shards = shards
        self._buckets: list[dict[str, _Series]] = [{} for _ in range(shards)]
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        self.cache = ReconstructionCache(cache_entries, segment_leaves)
        self._cluster = cluster or SimulatedCluster()
        self._counters_lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._history_lock = threading.Lock()
        self._history: list[dict[str, Any]] = []

    # -- sharding -----------------------------------------------------------

    def _shard_of(self, name: str) -> int:
        return zlib.crc32(name.encode("utf-8")) % self.shards

    def _series(self, name: str) -> _Series:
        shard = self._shard_of(name)
        with self._shard_locks[shard]:
            series = self._buckets[shard].get(name)
        if series is None:
            raise ReproError(
                f"unknown series {name!r}; available: {self.names()}"
            )
        return series

    def names(self) -> list[str]:
        """Registered series names, sorted, across all shards."""
        found: list[str] = []
        for shard, bucket in enumerate(self._buckets):
            with self._shard_locks[shard]:
                found.extend(bucket)
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        shard = self._shard_of(name)
        with self._shard_locks[shard]:
            return name in self._buckets[shard]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    # -- bookkeeping --------------------------------------------------------

    def _count(self, key: str, by: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] = self._counters.get(key, 0) + by

    def counters(self) -> dict[str, int]:
        """Operation counters merged with the reconstruction cache's."""
        with self._counters_lock:
            merged = dict(self._counters)
        merged.update(self.cache.counters())
        return merged

    def history(self) -> list[dict[str, Any]]:
        """Chronological (series, version, digest, mode) publication log."""
        with self._history_lock:
            return [dict(entry) for entry in self._history]

    def digest_report(self, label: str = "serving") -> dict[str, Any]:
        """Version digests in the sanitizer's report schema.

        Comparable with ``python -m repro.analysis --compare-digests``:
        an incremental store and a scratch store fed the same create /
        append sequence must produce identical reports.
        """
        jobs = [
            {"job": f"serving.{e['series']}.v{e['version']}", "output": e["digest"]}
            for e in self.history()
        ]
        return {"schema": 1, "label": label, "jobs": jobs, "kernel_rows": []}

    # -- registration and maintenance ---------------------------------------

    def create(
        self,
        name: str,
        data: ArrayLike,
        tier: str = "greedy",
        budget: int = 64,
        epsilon: float | None = None,
        delta: float = 1.0,
        base_leaves: int = 1024,
        subtree_leaves: int = 1024,
        rho: float = 0.0,
    ) -> SeriesVersion:
        """Register ``data`` under ``name`` and publish its first version.

        ``tier="greedy"`` keeps ``budget`` coefficients; ``tier="dp"``
        pins an error target — ``epsilon`` directly, or derived from
        ``budget`` via :func:`~repro.core.thresholding.
        serving_error_target` when omitted.  A new name starts at
        version 1; re-creating a name replaces the series and continues
        its numbering (see :meth:`_rebuild`), so a batch still reading
        the replaced version cannot refill the cache under a key the new
        series serves from.
        """
        values = as_finite_series(data)
        maintainer: GreedyMaintainer | DPMaintainer
        if tier == "greedy":
            maintainer = GreedyMaintainer(budget, base_leaves=base_leaves)
            params: dict[str, Any] = {"budget": budget, "base_leaves": base_leaves}
        elif tier == "dp":
            if epsilon is None:
                epsilon = serving_error_target(values, budget, delta, rho=rho)
            maintainer = DPMaintainer(
                epsilon,
                delta=delta,
                subtree_leaves=subtree_leaves,
                rho=rho,
            )
            params = {
                "epsilon": epsilon,
                "delta": delta,
                "subtree_leaves": subtree_leaves,
                "rho": rho,
            }
        else:
            raise InvalidInputError(
                f"unknown serving tier {tier!r}; choose 'greedy' or 'dp'"
            )
        buffer = pad_to_power_of_two(values)
        series = _Series(
            name=name,
            tier=tier,
            params=params,
            maintainer=maintainer,
            buffer=buffer,
            length=int(values.size),
            current=None,  # type: ignore[arg-type]  # published below before any reader can see it
        )
        self.cache.invalidate(name)
        published = self._rebuild(series, dirty=None)
        assert published is not None  # a create replaces whatever is registered
        return published

    def _rebuild(
        self, series: _Series, dirty: tuple[int, int] | None
    ) -> SeriesVersion | None:
        """Build ``series`` and publish it as its name's next version.

        The number is drawn under the shard lock from the version
        registered under the name, so no ``(name, version)`` pair, the
        reconstruction cache's key, ever names two synopses, however
        creates and appends interleave.  An append (``series`` already
        published) whose series was re-created while it built publishes
        nothing and returns None.
        """
        synopsis, stats = series.maintainer.build(series.buffer, dirty, self._cluster)
        guarantee = float(synopsis.meta["serving_guarantee"])
        synopsis.meta["series"] = series.name
        synopsis.meta["original_length"] = series.length
        synopsis.meta["max_abs_guarantee"] = guarantee
        digest = _digest(synopsis, series.length, guarantee)
        shard = self._shard_of(series.name)
        with self._shard_locks[shard]:
            registered = self._buckets[shard].get(series.name)
            if series.current is not None and registered is not series:
                return None
            published = SeriesVersion(
                name=series.name,
                version=1 if registered is None else registered.current.version + 1,
                tier=series.tier,
                synopsis=synopsis,
                length=series.length,
                guarantee=guarantee,
                digest=digest,
                stats=stats,
            )
            series.current = published
            self._buckets[shard][series.name] = series
        with self._history_lock:
            self._history.append(
                {
                    "series": published.name,
                    "version": published.version,
                    "digest": published.digest,
                    "mode": stats.mode,
                }
            )
        self._count(f"{stats.mode}_rebuilds")
        return published

    def append(
        self, name: str, values: ArrayLike, full_rebuild: bool = False
    ) -> SeriesVersion:
        """Append ``values`` to ``name`` and publish a new version.

        Appends that fit the current power-of-two buffer re-threshold
        only the dirtied sub-trees; growing past the buffer (or passing
        ``full_rebuild=True``, the differential baseline) rebuilds from
        scratch.  Concurrent appends to the same series serialize;
        readers continue on the previous version until the atomic swap.
        An append that a re-create of ``name`` overtakes is applied again
        to the re-created series.
        """
        fresh = as_finite_series(values)
        published: SeriesVersion | None = None
        while published is None:
            series = self._series(name)
            with series.lock:
                old_length = series.length
                new_length = old_length + int(fresh.size)
                if new_length <= series.buffer.shape[0]:
                    series.buffer[old_length:new_length] = fresh
                    dirty: tuple[int, int] | None = (old_length, new_length)
                else:
                    grown = np.zeros(
                        1 << (new_length - 1).bit_length(), dtype=np.float64
                    )
                    grown[:old_length] = series.buffer[:old_length]
                    grown[old_length:new_length] = fresh
                    series.buffer = grown
                    dirty = None
                series.length = new_length
                if full_rebuild:
                    dirty = None
                published = self._rebuild(series, dirty)
        self._count("appends")
        self.cache.invalidate(name)
        return published

    # -- reads --------------------------------------------------------------

    def snapshot(self, name: str) -> SeriesVersion:
        """The current immutable version of ``name``."""
        return self._series(name).current

    def guarantee(self, name: str) -> float:
        """Published per-value max-abs guarantee of ``name``."""
        return self.snapshot(name).guarantee

    @staticmethod
    def _clip(snapshot: SeriesVersion, lo: int, hi: int) -> None:
        if lo > hi:
            raise InvalidInputError(f"empty range [{lo}, {hi}]")
        if lo < 0 or hi >= snapshot.length:
            raise InvalidInputError(
                f"range [{lo}, {hi}] out of bounds for series of length "
                f"{snapshot.length}"
            )

    def _answer(self, query: Query, snapshot: SeriesVersion) -> QueryResult:
        if query.op == "point":
            index = _position(query, "index")
            self._clip(snapshot, index, index)
            value = self.cache.point(
                snapshot.name, snapshot.version, snapshot.synopsis, index
            )
            slack = snapshot.guarantee
        elif query.op in ("range_sum", "range_avg"):
            lo, hi = _position(query, "lo"), _position(query, "hi")
            self._clip(snapshot, lo, hi)
            if query.op == "range_sum":
                value = snapshot.synopsis.range_sum(lo, hi)
                slack = (hi - lo + 1) * snapshot.guarantee
            else:
                value = snapshot.synopsis.range_avg(lo, hi)
                slack = snapshot.guarantee
        else:
            raise InvalidInputError(
                f"unknown query op {query.op!r}; choose one of {QUERY_OPS}"
            )
        return QueryResult(
            series=snapshot.name,
            op=query.op,
            value=float(value),
            version=snapshot.version,
            guarantee=snapshot.guarantee,
            lower=float(value) - slack,
            upper=float(value) + slack,
        )

    def batch(self, queries: list[Query] | tuple[Query, ...]) -> list[QueryResult]:
        """Answer a batch; one snapshot per distinct series for the batch.

        All results for a given series therefore share a version, even
        if an append lands mid-batch.
        """
        snapshots: dict[str, SeriesVersion] = {}
        results: list[QueryResult] = []
        for query in queries:
            snapshot = snapshots.get(query.series)
            if snapshot is None:
                snapshot = self.snapshot(query.series)
                snapshots[query.series] = snapshot
            results.append(self._answer(query, snapshot))
            self._count(f"{query.op}_queries")
        self._count("batches")
        self._count("queries", len(results))
        return results

    def point(self, name: str, index: int) -> float:
        """Approximate value of one element (cache-served)."""
        return self.batch([Query("point", name, index=index)])[0].value

    def range_sum(self, name: str, lo: int, hi: int) -> float:
        """Approximate sum over the inclusive range ``[lo, hi]``."""
        return self.batch([Query("range_sum", name, lo=lo, hi=hi)])[0].value

    def range_avg(self, name: str, lo: int, hi: int) -> float:
        """Approximate average over the inclusive range ``[lo, hi]``."""
        return self.batch([Query("range_avg", name, lo=lo, hi=hi)])[0].value

    def range_sum_bounds(self, name: str, lo: int, hi: int) -> tuple[float, float]:
        """Deterministic bounds on the exact range sum."""
        result = self.batch([Query("range_sum", name, lo=lo, hi=hi)])[0]
        return result.lower, result.upper

    def report(self) -> list[dict[str, Any]]:
        """Per-series summary: version, size, ratio, guarantee, tier."""
        rows: list[dict[str, Any]] = []
        for name in self.names():
            snapshot = self.snapshot(name)
            rows.append(
                {
                    "series": name,
                    "version": snapshot.version,
                    "tier": snapshot.tier,
                    "length": snapshot.length,
                    "coefficients": snapshot.synopsis.size,
                    "ratio": snapshot.length / max(snapshot.synopsis.size, 1),
                    "max_abs_guarantee": snapshot.guarantee,
                    "rebuild_mode": snapshot.stats.mode,
                    "reused_subtrees": snapshot.stats.reused_subtrees,
                }
            )
        return rows

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize series data + tier parameters + current synopses.

        Maintainer caches (DP rows, per-sub-tree greedy runs) are *not*
        serialized — a loaded store lazily falls back to one full
        rebuild on the first append to each series.  The file is
        replaced atomically: a crash mid-save leaves the previous file
        loadable.
        """
        entries: dict[str, Any] = {}
        for name in self.names():
            series = self._series(name)
            with series.lock:
                params = dict(series.params)
                if isinstance(series.maintainer, DPMaintainer):
                    # persist the post-escalation target, not the original
                    params["epsilon"] = series.maintainer.epsilon
                entries[name] = {
                    "tier": series.tier,
                    "params": params,
                    "data": series.buffer[: series.length].tolist(),
                    "version": series.current.version,
                    "synopsis": series.current.synopsis.to_dict(),
                    "stats": asdict(series.current.stats),
                }
        payload = {
            "schema": 1,
            "shards": self.shards,
            "cache_entries": self.cache.max_entries,
            "segment_leaves": self.cache.segment_leaves,
            "series": entries,
        }
        atomic_write_text(path, json.dumps(payload))

    @classmethod
    def load(
        cls, path: str | Path, cluster: SimulatedCluster | None = None
    ) -> "ShardedSynopsisStore":
        """Inverse of :meth:`save` (maintainer caches start cold).

        A file that is not a schema-1 store, or holds a malformed entry,
        raises :class:`InvalidInputError`.
        """
        payload = read_json(path)
        if not (isinstance(payload, dict) and payload.get("schema") == 1):
            raise InvalidInputError(f"{path} is not a schema-1 synopsis store file")
        try:
            store = cls(
                shards=int(payload["shards"]),
                cache_entries=int(payload["cache_entries"]),
                segment_leaves=int(payload["segment_leaves"]),
                cluster=cluster,
            )
            for name, entry in payload["series"].items():
                params = entry["params"]
                maintainer: GreedyMaintainer | DPMaintainer
                if entry["tier"] == "greedy":
                    maintainer = GreedyMaintainer(
                        int(params["budget"]), base_leaves=int(params["base_leaves"])
                    )
                else:
                    # Older DP-tier files also name a combine kernel; every
                    # kernel produced the same rows, so the choice is dropped.
                    params.pop("kernel", None)
                    maintainer = DPMaintainer(
                        float(params["epsilon"]),
                        delta=float(params["delta"]),
                        subtree_leaves=int(params["subtree_leaves"]),
                        rho=float(params["rho"]),
                    )
                data = np.asarray(entry["data"], dtype=np.float64)
                synopsis = WaveletSynopsis.from_dict(entry["synopsis"])
                guarantee = float(synopsis.meta["serving_guarantee"])
                stats = MaintenanceStats(**entry["stats"])
                series = _Series(
                    name=name,
                    tier=entry["tier"],
                    params=params,
                    maintainer=maintainer,
                    buffer=pad_to_power_of_two(data),
                    length=int(data.size),
                    current=None,  # type: ignore[arg-type]  # published below before any reader can see it
                )
                published = SeriesVersion(
                    name=name,
                    version=int(entry["version"]),
                    tier=entry["tier"],
                    synopsis=synopsis,
                    length=int(data.size),
                    guarantee=guarantee,
                    digest=_digest(synopsis, int(data.size), guarantee),
                    stats=stats,
                )
                shard = store._shard_of(name)
                with store._shard_locks[shard]:
                    series.current = published
                    store._buckets[shard][name] = series
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed synopsis store file {path}: {exc!r}") from exc
        return store
