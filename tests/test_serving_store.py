"""Concurrency and caching behavior of the sharded serving store.

The torn-synopsis test is the load-bearing one: reader threads hammer
batched queries while a writer appends; every snapshot a reader observes
must be internally consistent (its recomputed digest matches the digest
it was published with — a torn coefficient dict would diverge) and
versions must be monotone per reader.  The LRU tests pin the cache
counters and prove eviction never changes answers, only work.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.analysis.sanitizer import compare_reports
from repro.exceptions import InvalidInputError, ReproError
from repro.serving import (
    Query,
    ReconstructionCache,
    ShardedSynopsisStore,
    reconstruct_segment,
)
from repro.serving.store import _digest
from repro.wavelet.synopsis import WaveletSynopsis


class TestConcurrentReaders:
    def test_readers_never_see_a_torn_synopsis(self):
        rng = np.random.default_rng(17)
        store = ShardedSynopsisStore(
            shards=4, cache_entries=32, segment_leaves=64
        )
        initial = rng.normal(50, 10, 512)
        store.create("hot", initial, tier="greedy", budget=64, base_leaves=64)
        blocks = [rng.normal(55, 8, 8) for _ in range(30)]  # stays in buffer

        stop = threading.Event()
        errors: list[BaseException] = []
        observed: dict[int, list[tuple[int, str]]] = {}

        def reader(slot: int) -> None:
            seen: list[tuple[int, str]] = []
            try:
                while not stop.is_set():
                    snapshot = store.snapshot("hot")
                    # Digest recomputed from the data the reader actually
                    # holds; a torn publish would mismatch the recorded one.
                    recomputed = _digest(
                        snapshot.synopsis, snapshot.length, snapshot.guarantee
                    )
                    assert recomputed == snapshot.digest
                    results = store.batch(
                        [
                            Query("point", "hot", index=3),
                            Query("range_sum", "hot", lo=0, hi=100),
                            Query("point", "hot", index=200),
                        ]
                    )
                    versions = {r.version for r in results}
                    assert len(versions) == 1  # one snapshot per batch
                    seen.append((snapshot.version, snapshot.digest))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            observed[slot] = seen

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for block in blocks:
            store.append("hot", block)
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors, errors
        history = {
            (entry["version"]): entry["digest"] for entry in store.history()
        }
        for seen in observed.values():
            assert seen, "reader made no observations"
            versions = [version for version, _ in seen]
            assert versions == sorted(versions)  # monotone per reader
            for version, digest in seen:
                assert history[version] == digest
        assert store.snapshot("hot").version == 1 + len(blocks)

    def test_appends_to_different_series_do_not_interfere(self):
        rng = np.random.default_rng(3)
        store = ShardedSynopsisStore(shards=4)
        store.create("a", rng.normal(0, 1, 100), budget=16, base_leaves=8)
        store.create("b", rng.normal(5, 1, 100), budget=16, base_leaves=8)
        errors: list[BaseException] = []

        def writer(name: str) -> None:
            try:
                for _ in range(10):
                    store.append(name, rng.normal(0, 1, 2))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert store.snapshot("a").version == 11
        assert store.snapshot("b").version == 11


class TestReconstructionCache:
    def test_hit_miss_counters(self):
        store = ShardedSynopsisStore(cache_entries=8, segment_leaves=8)
        store.create("s", np.arange(64.0), budget=64, base_leaves=8)
        store.point("s", 0)  # miss: builds segment 0
        store.point("s", 3)  # hit: same segment
        store.point("s", 9)  # miss: segment 1
        counters = store.counters()
        assert counters["cache_misses"] == 2
        assert counters["cache_hits"] == 1
        assert counters["point_queries"] == 3

    def test_append_invalidates_and_version_keys_miss(self):
        store = ShardedSynopsisStore(cache_entries=8, segment_leaves=8)
        store.create("s", np.arange(30.0), budget=32, base_leaves=4)
        store.point("s", 2)
        assert store.counters()["cache_entries"] == 1
        store.append("s", [99.0])
        assert store.counters()["cache_entries"] == 0  # eager purge
        store.point("s", 2)  # rebuilt under the new version key
        assert store.counters()["cache_misses"] == 2

    def test_eviction_under_small_budget_still_answers_correctly(self):
        store = ShardedSynopsisStore(cache_entries=2, segment_leaves=4)
        data = np.arange(64.0)
        store.create("s", data, budget=64, base_leaves=4)
        synopsis = store.snapshot("s").synopsis
        for index in [0, 10, 20, 30, 40, 50, 60, 5, 15]:
            assert store.point("s", index) == pytest.approx(
                synopsis.point_query(index), abs=1e-9
            )
        counters = store.counters()
        assert counters["cache_evictions"] >= 1
        assert counters["cache_entries"] <= 2

    def test_reconstruct_segment_rejects_out_of_range_start(self):
        # Aligned but outside [0, N): start=8 would alias the sub-tree at
        # node 4 (leaves 0-1), start=-4 the one at node 1.
        synopsis = WaveletSynopsis(8, {0: 7.0, 1: 2.0, 4: 1.0})
        assert reconstruct_segment(synopsis, 4, 4).tolist() == [5.0, 5.0, 5.0, 5.0]
        for start in (8, -4):
            with pytest.raises(InvalidInputError):
                reconstruct_segment(synopsis, start, 4)

    def test_cache_rejects_bad_config(self):
        with pytest.raises(InvalidInputError):
            ReconstructionCache(max_entries=0)
        with pytest.raises(InvalidInputError):
            ReconstructionCache(segment_leaves=3)


class TestStoreApi:
    def test_unknown_series_lists_available_names(self):
        store = ShardedSynopsisStore()
        store.create("known", np.arange(16.0), budget=8, base_leaves=4)
        with pytest.raises(ReproError, match=r"known"):
            store.snapshot("missing")
        with pytest.raises(ReproError, match=r"missing"):
            store.append("missing", [1.0])

    def test_batch_validates_queries(self):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(16.0), budget=8, base_leaves=4)
        with pytest.raises(InvalidInputError):
            store.batch([Query("point", "s")])  # no index
        with pytest.raises(InvalidInputError):
            store.batch([Query("range_sum", "s", lo=3)])  # no hi
        with pytest.raises(InvalidInputError):
            store.batch([Query("median", "s", index=1)])
        with pytest.raises(InvalidInputError):
            store.batch([Query("point", "s", index=16)])  # out of range
        with pytest.raises(InvalidInputError):
            store.batch([Query("range_sum", "s", lo=5, hi=4)])

    def test_batch_normalizes_integer_fields(self):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(16.0), budget=16, base_leaves=4)
        (numpy_index,) = store.batch([Query("point", "s", index=np.int64(2))])
        assert numpy_index.value == store.point("s", 2)
        with pytest.raises(InvalidInputError):
            store.batch([Query("point", "s", index=2.5)])
        with pytest.raises(InvalidInputError):
            store.batch([Query("range_sum", "s", lo=0.5, hi=3)])

    def test_report_and_membership(self):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(30.0), budget=16, base_leaves=4)
        store.append("s", [1.0, 2.0])  # fits the 32-leaf buffer
        assert "s" in store and "t" not in store
        assert len(store) == 1
        (row,) = store.report()
        assert row["series"] == "s"
        assert row["version"] == 2
        assert row["length"] == 32
        assert row["rebuild_mode"] == "incremental"

    def test_sharding_is_deterministic_and_spreads(self):
        store = ShardedSynopsisStore(shards=4)
        names = [f"series-{i}" for i in range(32)]
        shards = [store._shard_of(name) for name in names]
        assert shards == [store._shard_of(name) for name in names]
        assert len(set(shards)) > 1

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ShardedSynopsisStore(shards=2, cache_entries=16, segment_leaves=16)
        store.create("g", rng.normal(10, 2, 100), tier="greedy", budget=32,
                     base_leaves=8)
        store.create("d", rng.normal(5, 1, 40), tier="dp", epsilon=1.5,
                     subtree_leaves=8)
        store.append("g", rng.normal(10, 2, 10))
        path = tmp_path / "store.json"
        store.save(path)
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == ["d", "g"]
        for name in loaded.names():
            assert loaded.snapshot(name).digest == store.snapshot(name).digest
            assert loaded.snapshot(name).version == store.snapshot(name).version
        assert loaded.point("g", 7) == pytest.approx(store.point("g", 7))
        # A post-load append works (cold caches force one full rebuild)
        # and matches the original store's incremental result exactly.
        block = rng.normal(10, 2, 5)
        reloaded_version = loaded.append("g", block)
        original_version = store.append("g", block)
        assert reloaded_version.stats.mode == "full"
        assert original_version.stats.mode == "incremental"
        assert reloaded_version.digest == original_version.digest

    def test_load_drops_the_kernel_param_of_older_dp_files(self, tmp_path):
        rng = np.random.default_rng(17)
        initial, block = rng.normal(50, 10, 100), rng.normal(50, 10, 12)
        store = ShardedSynopsisStore(segment_leaves=16)
        store.create("d", initial, tier="dp", epsilon=4.0, subtree_leaves=16)
        path = tmp_path / "store.json"
        store.save(path)
        # Older DP-tier files also carried the combine kernel's name.
        payload = json.loads(path.read_text())
        payload["series"]["d"]["params"]["kernel"] = "parallel"
        path.write_text(json.dumps(payload))

        loaded = ShardedSynopsisStore.load(path)
        queries = [Query("point", "d", index=i) for i in range(0, 100, 7)]
        queries.append(Query("range_sum", "d", lo=3, hi=90))
        assert loaded.batch(queries) == store.batch(queries)
        scratch = ShardedSynopsisStore(segment_leaves=16)
        scratch.create(
            "d", np.concatenate([initial, block]), tier="dp", epsilon=4.0,
            subtree_leaves=16,
        )
        assert loaded.append("d", block).digest == scratch.snapshot("d").digest
        loaded.save(path)
        assert "kernel" not in json.loads(path.read_text())["series"]["d"]["params"]

    def test_digest_reports_compare_clean_across_modes(self):
        rng = np.random.default_rng(21)
        initial = rng.normal(0, 4, 90)
        blocks = [rng.normal(0, 4, 7) for _ in range(3)]
        incremental = ShardedSynopsisStore()
        scratch = ShardedSynopsisStore()
        incremental.create("s", initial, budget=24, base_leaves=8)
        scratch.create("s", initial, budget=24, base_leaves=8)
        for block in blocks:
            incremental.append("s", block)
            scratch.append("s", block, full_rebuild=True)
        mismatches = compare_reports(
            incremental.digest_report(label="incremental"),
            scratch.digest_report(label="scratch"),
        )
        assert mismatches == []
