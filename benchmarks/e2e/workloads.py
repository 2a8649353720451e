"""The benchmark's workloads: inputs, timed operations and output checks.

Every workload draws its inputs from ``numpy.random.default_rng([seed,
stream, index])``, so one seed always gives the same inputs, and hands
the program only arrays and :class:`~repro.serving.Query` lists.  Each
timed operation gets fresh inputs: a program that memoised a previous
result could not pass a later operation off as work done.

Program functions are called through their module (``core.d_greedy_abs``)
so that the traced run's wrappers, installed on ``repro`` modules, see
the benchmark's own calls too.

A workload is driven by ``run.py`` through four methods:

* ``setup()`` builds the runtime or store and warms it up (called
  several times, each timed; the operations use the last one);
* ``op(index)`` runs one operation, checks its output and returns the
  timed part's (wall seconds, CPU seconds), as :func:`hostspeed.lap`
  gives them.  It raises on a wrong output;
* ``finish()`` runs the checks that need a second, untimed build;
* ``counters()`` returns cumulative per-layer counts for the traced run.

Sizes are the largest that fit the benchmark's time budget on a 2-core
machine, chosen so that each workload's per-layer shares of time match
a run at the sizes of the paper-scale settings; ``scale_check.py``
measures both and README.md gives the reasons per workload.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from hostspeed import lap, mark
from repro import core
from repro.algos import minhaarspace
from repro.mapreduce import LocalRuntime, ProcessPoolRuntime, SimulatedCluster
from repro.serving import Query, QueryResult, ShardedSynopsisStore
from repro.wavelet.synopsis import WaveletSynopsis

# Input streams of the seeded generator.
_WARMUP, _OP, _SERIES, _HOT_ORDER, _QUERIES, _APPENDS = range(6)

#: Pool workers of the process runtime: the machine has 2 cores.
POOL_WORKERS = 2


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _close(measured: float, expected: float, scale: float) -> bool:
    """Equal up to float rounding of values of magnitude ``scale``."""
    return abs(measured - expected) <= 1e-9 * (1.0 + abs(scale))


def _record_cluster(layer: Counter[str], cluster: SimulatedCluster) -> None:
    """Add one build's MapReduce figures, read from its run-log trace."""
    layer["mapreduce.simulated_s"] += cluster.simulated_seconds
    for job in cluster.log.trace()["jobs"]:
        layer["mapreduce.jobs"] += 1
        for stage in job["stages"]:
            if stage["name"] == "shuffle":
                layer["mapreduce.shuffle_bytes"] += stage["bytes_out"]
                layer["mapreduce.map_output_records"] += stage["records_in"]
            elif stage["name"] in ("map", "reduce"):
                layer[f"mapreduce.{stage['name']}_task_s"] += stage["wall_seconds"]
            for task in stage["tasks"]:
                layer["mapreduce.failed_attempts"] += sum(
                    attempt["failed"] for attempt in task["attempts"]
                )


class BuildGreedy:
    """DGreedyAbs on a 2-worker process pool (the paper's Algorithm 6)."""

    name = "build-greedy"
    N = 1 << 12
    #: B = N / 8 coefficients.
    BUDGET_SHARE = 8
    #: R = 32 base sub-trees of N / R leaves, as in the paper's fig. 5c.
    BASE_SUBTREES = 32
    #: e_b = 1e-4 of the value range [0, 1000).
    BUCKET_WIDTH = 0.1
    #: The warm-up build only has to run every code path once, so it is
    #: small: a full-size one would add seconds to each set-up.
    WARMUP_N = 1 << 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.layer: Counter[str] = Counter()
        self.first: WaveletSynopsis | None = None
        self.runtime: ProcessPoolRuntime | None = None

    def _data(self, stream: int, index: int, size: int | None = None) -> np.ndarray:
        return _rng(self.seed, stream, index).uniform(0.0, 1000.0, size or self.N)

    def _build(
        self, data: np.ndarray, runtime: Any = None
    ) -> tuple[WaveletSynopsis, SimulatedCluster]:
        cluster = SimulatedCluster(runtime=runtime or self.runtime)
        synopsis = core.d_greedy_abs(
            data,
            len(data) // self.BUDGET_SHARE,
            cluster,
            base_leaves=len(data) // self.BASE_SUBTREES,
            bucket_width=self.BUCKET_WIDTH,
        )
        return synopsis, cluster

    def setup(self) -> None:
        self.runtime = ProcessPoolRuntime(max_workers=POOL_WORKERS)
        self._build(self._data(_WARMUP, 0, self.WARMUP_N))

    def op(self, index: int) -> tuple[float, float]:
        data = self._data(_OP, index)
        start = mark()
        synopsis, cluster = self._build(data)
        elapsed = lap(start)
        _record_cluster(self.layer, cluster)
        budget = self.N // self.BUDGET_SHARE
        if synopsis.size > budget:
            raise CheckFailed(f"{synopsis.size} coefficients exceed the budget {budget}")
        measured = synopsis.max_abs_error(data)
        claimed = float(synopsis.meta["claimed_error"])
        if not _close(measured, claimed, claimed):
            raise CheckFailed(f"measured error {measured!r} != claimed {claimed!r}")
        if index == 0:
            self.first = synopsis
        return elapsed

    def finish(self) -> None:
        """Op 0 rebuilt in-process must give the same synopsis."""
        if self.first is None:
            return
        again, _ = self._build(self._data(_OP, 0), LocalRuntime())
        if again.coefficients != self.first.coefficients:
            raise CheckFailed("the local-runtime rebuild of op 0 differs")

    def counters(self) -> dict[str, float]:
        return dict(self.layer)


class BuildDP:
    """DMHaarSpace at a fixed error target on the local runtime."""

    name = "build-dp"
    N = 1 << 12
    #: Error target and quantum: M-rows ~2 * EPSILON / DELTA = 120 wide.
    EPSILON = 6.0
    DELTA = 0.1
    SUBTREE_LEAVES = 256

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.layer: Counter[str] = Counter()
        self.first: WaveletSynopsis | None = None

    def _data(self, stream: int, index: int) -> np.ndarray:
        steps = _rng(self.seed, stream, index).normal(0.0, 2.0, self.N)
        return np.round(100.0 + np.cumsum(steps))

    def _build(self, data: np.ndarray) -> tuple[Any, SimulatedCluster]:
        cluster = SimulatedCluster(runtime=LocalRuntime())
        solution = core.dm_haar_space(
            data,
            self.EPSILON,
            self.DELTA,
            cluster,
            subtree_leaves=self.SUBTREE_LEAVES,
            construct=True,
        )
        return solution, cluster

    def setup(self) -> None:
        self._build(self._data(_WARMUP, 0))

    def op(self, index: int) -> tuple[float, float]:
        data = self._data(_OP, index)
        start = mark()
        solution, cluster = self._build(data)
        elapsed = lap(start)
        _record_cluster(self.layer, cluster)
        synopsis = solution.synopsis
        if synopsis.size != solution.size:
            raise CheckFailed(f"synopsis has {synopsis.size} coefficients, DP said {solution.size}")
        measured = synopsis.max_abs_error(data)
        if measured > self.EPSILON and not _close(measured, self.EPSILON, float(np.max(data))):
            raise CheckFailed(f"error {measured!r} exceeds the target {self.EPSILON}")
        if index == 0:
            self.first = synopsis
        return elapsed

    def finish(self) -> None:
        """The centralized MinHaarSpace must pick the same synopsis for op 0."""
        if self.first is None:
            return
        reference = minhaarspace.min_haar_space(self._data(_OP, 0), self.EPSILON, self.DELTA)
        if reference.synopsis.coefficients != self.first.coefficients:
            raise CheckFailed("the centralized MinHaarSpace synopsis of op 0 differs")

    def counters(self) -> dict[str, float]:
        return dict(self.layer)


class _Serving:
    """Two greedy-tier series in a sharded store, read in 64-query batches."""

    SERIES = ("s0", "s1")
    #: 2^16 + 2^12 values per series; the store pads them to a 2^17
    #: buffer, which appends fill without a full rebuild.
    INITIAL = (1 << 16) + (1 << 12)
    CAPACITY = 1 << 17
    #: The paper-scale store's budget.  A buffer has 128 base sub-trees
    #: (paper scale: 512), so each keeps 15 coefficients (paper scale: 3).
    BUDGET = 2048
    BASE_LEAVES = 1024
    SHARDS = 4
    #: 68 segments per series, 136 in all, against a 40-entry cache: the
    #: paper-scale store's 3.5 segments per entry.
    SEGMENT_LEAVES = 1024
    CACHE_ENTRIES = 40
    BATCH = 64
    #: Every 8th query is a range sum over 64 values; the rest are points.
    RANGE_EVERY = 8
    RANGE_WIDTH = 64
    #: Gives serve-hot the paper-scale store's ~85% hit ratio over these
    #: fewer segments (Zipf(1.2) would give ~75%).
    ZIPF_S = 1.4
    WARMUP_BATCHES = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.layer: Counter[str] = Counter()
        self.store: ShardedSynopsisStore | None = None
        self.values: dict[str, np.ndarray] = {}
        self.length: dict[str, int] = {}

    # -- store --------------------------------------------------------------

    def _fresh_store(self) -> None:
        """Create the store from the seed's initial series (version 1)."""
        self._retire_store()
        self.store = ShardedSynopsisStore(
            shards=self.SHARDS,
            cache_entries=self.CACHE_ENTRIES,
            segment_leaves=self.SEGMENT_LEAVES,
        )
        for k, name in enumerate(self.SERIES):
            values = np.zeros(self.CAPACITY)
            values[: self.INITIAL] = _rng(self.seed, _SERIES, k).uniform(
                0.0, 1000.0, self.INITIAL
            )
            self.values[name] = values
            self.length[name] = self.INITIAL
            self._create(self.store, name, values[: self.INITIAL])

    def _create(self, store: ShardedSynopsisStore, name: str, values: np.ndarray) -> Any:
        return store.create(
            name, values, tier="greedy", budget=self.BUDGET, base_leaves=self.BASE_LEAVES
        )

    def _retire_store(self) -> None:
        if self.store is None:
            return
        counts = self.store.counters()
        for key in ("cache_hits", "cache_misses", "cache_evictions"):
            self.layer[f"serving.{key}"] += counts.get(key, 0)

    def setup(self) -> None:
        self._fresh_store()
        for index in range(self.WARMUP_BATCHES):
            self._read(_rng(self.seed, _WARMUP, index))

    # -- reads --------------------------------------------------------------

    def _segment(self, rng: np.random.Generator, name: str) -> int:
        """Uniform segment of the series' current length."""
        return int(rng.integers(self.length[name] // self.SEGMENT_LEAVES))

    def _queries(self, rng: np.random.Generator) -> list[Query]:
        queries = []
        for position in range(self.BATCH):
            name = self.SERIES[int(rng.integers(len(self.SERIES)))]
            first = self._segment(rng, name) * self.SEGMENT_LEAVES
            if position % self.RANGE_EVERY == self.RANGE_EVERY - 1:
                lo = first + int(rng.integers(self.SEGMENT_LEAVES - self.RANGE_WIDTH + 1))
                queries.append(Query("range_sum", name, lo=lo, hi=lo + self.RANGE_WIDTH - 1))
            else:
                index = first + int(rng.integers(self.SEGMENT_LEAVES))
                queries.append(Query("point", name, index=index))
        return queries

    def _check(self, queries: list[Query], results: list[QueryResult]) -> None:
        """Every answer's [lower, upper] must hold the exact value."""
        if len(results) != len(queries):
            raise CheckFailed(f"{len(results)} answers to {len(queries)} queries")
        for query, result in zip(queries, results):
            data = self.values[query.series]
            if query.op == "point":
                exact = float(data[query.index])
            else:
                exact = float(np.sum(data[query.lo : query.hi + 1]))
            slack = 1e-9 * (1.0 + abs(exact))
            if result.series != query.series or not (
                result.lower - slack <= exact <= result.upper + slack
            ):
                raise CheckFailed(
                    f"{query}: exact {exact!r} outside [{result.lower!r}, {result.upper!r}]"
                )

    def _read(self, rng: np.random.Generator) -> tuple[float, float]:
        assert self.store is not None
        queries = self._queries(rng)
        start = mark()
        results = self.store.batch(queries)
        elapsed = lap(start)
        self._check(queries, results)
        return elapsed

    def op(self, index: int) -> tuple[float, float]:
        return self._read(_rng(self.seed, _QUERIES, index))

    def finish(self) -> None:
        return None

    def counters(self) -> dict[str, float]:
        counts: Counter[str] = Counter(self.layer)
        if self.store is not None:
            live = self.store.counters()
            for key in ("cache_hits", "cache_misses", "cache_evictions"):
                counts[f"serving.{key}"] += live.get(key, 0)
        return dict(counts)


class ServeHot(_Serving):
    """Batches whose segments follow Zipf(1.2): most hit the cache."""

    name = "serve-hot"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        segments = self.INITIAL // self.SEGMENT_LEAVES
        self.hot_order = {
            name: _rng(seed, _HOT_ORDER, k).permutation(segments)
            for k, name in enumerate(self.SERIES)
        }

    def _segment(self, rng: np.random.Generator, name: str) -> int:
        order = self.hot_order[name]
        rank = int(rng.zipf(self.ZIPF_S))
        while rank > len(order):
            rank = int(rng.zipf(self.ZIPF_S))
        return int(order[rank - 1])


class ServeCold(_Serving):
    """Batches over uniform segments: most miss the cache."""

    name = "serve-cold"


class ServeAppend(_Serving):
    """Appends of 256 values, each followed by one uniform read batch."""

    name = "serve-append"
    #: Dirties one base sub-tree, as a 1024-value append does, so each
    #: append re-thresholds the same work; the 2^17 buffers take 480 of
    #: them before the store starts again.
    APPEND = 256
    WARMUP_APPENDS = 4

    def setup(self) -> None:
        self._fresh_store()
        for index in range(self.WARMUP_APPENDS):
            self._cycle(_rng(self.seed, _WARMUP, index), index)

    def _cycle(self, rng: np.random.Generator, index: int) -> tuple[float, float]:
        """Append to the next series, then read; return the append's lap."""
        assert self.store is not None
        name = self.SERIES[index % len(self.SERIES)]
        length = self.length[name]
        if length + self.APPEND > self.CAPACITY:
            # A full buffer would make the next append a full rebuild:
            # check this store's versions and start over from version 1.
            self._verify()
            self._fresh_store()
            length = self.length[name]
        fresh = rng.uniform(0.0, 1000.0, self.APPEND)
        before = self.store.snapshot(name).version
        start = mark()
        published = self.store.append(name, fresh)
        elapsed = lap(start)
        self.values[name][length : length + self.APPEND] = fresh
        self.length[name] = length + self.APPEND
        stats = published.stats
        if published.version != before + 1 or stats.mode != "incremental":
            raise CheckFailed(f"append published v{published.version} ({stats.mode})")
        self.layer["serving.reused_subtrees"] += stats.reused_subtrees
        self.layer["serving.total_subtrees"] += stats.total_subtrees
        self._read(rng)
        return elapsed

    def _verify(self) -> None:
        """A scratch build of each series must publish the same digest."""
        assert self.store is not None
        for name in self.SERIES:
            if self.length[name] == self.INITIAL:
                continue
            scratch = ShardedSynopsisStore(shards=1)
            expected = self._create(scratch, name, self.values[name][: self.length[name]])
            if self.store.snapshot(name).digest != expected.digest:
                raise CheckFailed(f"incremental {name} differs from a scratch build")

    def op(self, index: int) -> tuple[float, float]:
        return self._cycle(_rng(self.seed, _APPENDS, index), index)

    def finish(self) -> None:
        self._verify()


WORKLOADS = {
    cls.name: cls for cls in (BuildGreedy, BuildDP, ServeHot, ServeCold, ServeAppend)
}
