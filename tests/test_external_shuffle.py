"""External shuffle: spill round trips, bit-identity, cleanup, byte accounting.

The families:

* **Spill round trips** — records spilled as pickled run files come back
  from ``partitions()`` bit-exactly and in the memory shuffle's reduce
  order, including exact python and numpy types (an external run must not
  turn synopsis dict keys into numpy ints), ints beyond int64, NaN
  payloads and heterogeneous key streams; property-tested over generated
  record batches.  A truncated run file raises instead of yielding a
  shorter partition.
* **Merge semantics** — a tiny buffer forces many sorted runs, and the
  k-way merge must equal the in-memory ``sorted(...)`` of the same
  partition, including tie order (the stability theorem documented in
  :mod:`repro.mapreduce.shuffle`).
* **Partition routing** — a one-reducer job never calls its partitioner,
  on either shuffle.
* **Differential end-to-end** — DGreedyAbs/DGreedyRel synopses are
  bit-identical between memory and external shuffles, and the file-backed
  out-of-core path (``FileDataset`` + external shuffle + process pool)
  matches the resident path.  The out-of-core smoke is ``slow``-marked.
* **Cleanup (meta-test alongside test_job_process_safety)** — spill run
  directories vanish on success, on retried task failures, and on job
  abort, on both runtimes; no orphans ever remain in the
  configured spill dir.
* **Byte accounting** — on every runtime and shuffle, the driver's
  columnar byte totals (shuffle bytes, counters, stage and task
  ``bytes_out``, modeled spill bytes) equal the per-record
  ``record_size`` sums recomputed from the map outputs.
"""

from __future__ import annotations

import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dgreedy import d_greedy_abs, d_greedy_rel
from repro.core.thresholding import build_synopsis
from repro.exceptions import InvalidInputError, JobFailedError
from repro.mapreduce import (
    FailureInjector,
    FileDataset,
    LocalRuntime,
    MapReduceJob,
    ProcessPoolRuntime,
    ShuffleConfig,
    SimulatedCluster,
    block_splits,
    make_runtime,
    record_size,
    records_size,
)
from repro.mapreduce.job import reduce_order
from repro.mapreduce.runtime import apply_combiner
from repro.mapreduce.shuffle import ExternalShuffle, MemoryShuffle, make_shuffle


class ModSum(MapReduceJob):
    """Toy shuffled job with int keys and float values."""

    name = "mod-sum"
    num_reducers = 3

    def map(self, split):
        for value in split.values:
            yield int(value) % 7, float(value)

    def reduce(self, key, values):
        yield key, sum(values)


def toy_splits(n: int = 128, split: int = 16):
    return block_splits(np.arange(n, dtype=float), split)


class ReprOrdered(MapReduceJob):
    """Two-reducer job whose sort key is the key's repr, so any key mix sorts."""

    name = "repr-ordered"
    num_reducers = 2

    def sort_key(self, key):
        return repr(key)


def exact(partitions):
    """Each record's pickle: equal only for equal types, values and float bits."""
    return [[pickle.dumps(record) for record in partition] for partition in partitions]


class TestCodecRoundTrip:
    """Records spilled as pickled runs come back exact and in reduce order.

    ``buffer_bytes=1`` makes every ``add_records`` call spill, so every
    record reaches ``partitions()`` through a run file.
    """

    def spill_and_merge(self, records, chunk=7):
        """``(external partitions, memory partitions in reduce order)``."""
        job = ReprOrdered()
        external = ExternalShuffle(job, ShuffleConfig(mode="external", buffer_bytes=1))
        memory = MemoryShuffle(job)
        try:
            for start in range(0, len(records), chunk):
                batch = records[start : start + chunk]
                external.add_records(batch, records_size(batch))
                memory.add_records(batch, records_size(batch))
            assert external.stats["spills"] == math.ceil(len(records) / chunk)
            got = external.partitions()
            want = [reduce_order(job, partition) for partition in memory.partitions()]
        finally:
            external.close()
            memory.close()
        assert sum(map(len, got)) == len(records)
        return got, want

    def assert_round_trip(self, records):
        got, want = self.spill_and_merge(records)
        assert exact(got) == exact(want)
        return got, want

    def test_homogeneous_scalar_columns(self):
        self.assert_round_trip([(i, float(i) / 3) for i in range(100)])

    def test_exact_python_types_preserved(self):
        records = [
            (True, False),
            (1, 1.0),
            ("key", (1, 2.5, "x")),
            (None, {"a": 1}),
            (np.int64(7), np.float64(2.5)),
            (1 << 80, -(1 << 80)),  # beyond int64
        ]
        got, want = self.assert_round_trip(records)
        assert got == want
        for got_partition, want_partition in zip(got, want):
            for (dkey, dvalue), (key, value) in zip(got_partition, want_partition):
                assert type(dkey) is type(key)
                assert type(dvalue) is type(value)

    def test_mixed_signature_stream_restores_interleaving(self):
        # Interleaved 4-tuple "hist" and 3-tuple "final" keys, the shape
        # DGreedyAbs's job 1 emitted before it shipped one columnar record
        # per run.
        records = []
        for i in range(50):
            records.append((("hist", i, i % 4, float(i)), (i, float(i) / 2)))
            records.append((("final", i, i % 4), float(i)))
        self.assert_round_trip(records)

    def test_empty_batch(self):
        got, want = self.assert_round_trip([])
        assert got == want == [[], []]

    def test_truncated_run_file_raises(self, tmp_path):
        config = ShuffleConfig(mode="external", spill_dir=str(tmp_path), buffer_bytes=1)
        shuffle = ExternalShuffle(ReprOrdered(), config)
        records = [(i, float(i)) for i in range(100)]
        try:
            shuffle.add_records(records, records_size(records))
            run = sorted(tmp_path.rglob("*.pkl"))[0]
            whole = run.read_bytes()
            for kept in (1, len(whole) // 2, len(whole) - 1):
                run.write_bytes(whole[:kept])
                with pytest.raises(pickle.UnpicklingError, match="truncated"):
                    shuffle.partitions()
        finally:
            shuffle.close()

    @given(
        records=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(min_value=-(1 << 62), max_value=1 << 62),
                    st.floats(allow_nan=False),
                    st.text(max_size=20),
                    st.booleans(),
                    st.tuples(st.integers(), st.text(max_size=5)),
                ),
                st.one_of(
                    st.floats(allow_nan=False),
                    st.integers(),
                    st.tuples(st.integers(), st.floats(allow_nan=False)),
                    st.none(),
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, records):
        self.assert_round_trip(records)

    def test_nan_payloads_survive_via_bit_pattern(self):
        quiet_nan_with_payload = np.uint64(0x7FF8_0000_0000_1234).view(np.float64).item()
        records = [
            (0, float("nan")),
            (1, math.inf),
            (2, -math.inf),
            (3, quiet_nan_with_payload),
        ]
        got, _ = self.assert_round_trip(records)
        merged = sorted(record for partition in got for record in partition)
        assert [key for key, _ in merged] == [0, 1, 2, 3]
        spilled_bits = np.array([value for _, value in merged]).view(np.uint64)
        written_bits = np.array([value for _, value in records]).view(np.uint64)
        assert spilled_bits.tolist() == written_bits.tolist()


class TestMergeSemantics:
    def drain(self, shuffle, job, records, chunk=10):
        # Feed in small chunks, as the driver does per map task — the
        # buffer-full check runs once per add_records call.
        for start in range(0, len(records), chunk):
            batch = records[start : start + chunk]
            shuffle.add_records(batch, len(batch))
        try:
            return shuffle.partitions()
        finally:
            shuffle.close()

    def reference(self, job, records):
        memory = MemoryShuffle(job)
        return self.drain(memory, job, records)

    def partitions_equal(self, job, records, buffer_bytes):
        config = ShuffleConfig(mode="external", buffer_bytes=buffer_bytes)
        external = ExternalShuffle(job, config)
        got = self.drain(external, job, records)
        want = [
            sorted(
                partition,
                key=lambda record: job.sort_key(record[0]),
                reverse=job.sort_descending,
            )
            for partition in self.reference(job, records)
        ]
        assert pickle.dumps(got) == pickle.dumps(want)
        return external.stats

    def test_multi_run_merge_matches_sorted_memory_partition(self):
        job = ModSum()
        rng = np.random.default_rng(3)
        records = [(int(k), float(v)) for k, v in rng.integers(0, 50, (500, 2))]
        # 1-byte records with a 16-byte buffer: ~31 spills, deep merges.
        stats = self.partitions_equal(job, records, buffer_bytes=16)
        assert stats["spills"] > 10
        assert stats["merged_runs_max"] > 10

    def test_tie_order_stable_across_run_boundaries(self):
        # Many duplicate keys with distinguishable values: stability means
        # emission order within a key, even when ties straddle runs.
        job = ModSum()
        records = [(i % 3, float(i)) for i in range(200)]
        self.partitions_equal(job, records, buffer_bytes=8)

    def test_descending_sort_jobs(self):
        class Descending(ModSum):
            sort_descending = True

        records = [(i % 5, float(i)) for i in range(200)]
        self.partitions_equal(Descending(), records, buffer_bytes=8)

    def test_single_run_no_spill(self):
        job = ModSum()
        records = [(i % 7, float(i)) for i in range(20)]
        stats = self.partitions_equal(job, records, buffer_bytes=1 << 20)
        assert stats["spills"] == 0
        assert stats["run_files"] == 0

    def test_make_shuffle_dispatch(self):
        job = ModSum()
        assert isinstance(make_shuffle(None, job), MemoryShuffle)
        assert isinstance(make_shuffle(ShuffleConfig(), job), MemoryShuffle)
        external = make_shuffle(ShuffleConfig(mode="external"), job)
        assert isinstance(external, ExternalShuffle)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError, match="unknown shuffle mode"):
            ShuffleConfig(mode="mystery")
        with pytest.raises(InvalidInputError, match="buffer_bytes"):
            ShuffleConfig(mode="external", buffer_bytes=0)

    @pytest.mark.parametrize("buffer_bytes", [math.nan, math.inf, 1.5, True])
    def test_buffer_bytes_must_be_an_integer(self, buffer_bytes):
        # A nan buffer never fills, so the shuffle would never spill.
        with pytest.raises(InvalidInputError, match="buffer_bytes"):
            ShuffleConfig(mode="external", buffer_bytes=buffer_bytes)


class OneReducer(ModSum):
    """One-reducer job whose partitioner must never be called."""

    name = "one-reducer"
    num_reducers = 1

    def partition(self, key, num_reducers):
        raise AssertionError("a one-reducer job has nothing to route")


class TestPartitionRouting:
    @pytest.mark.parametrize(
        "shuffle",
        [None, ShuffleConfig(mode="external", buffer_bytes=64)],
        ids=["memory", "external"],
    )
    def test_one_reducer_job_skips_partitioner(self, shuffle):
        result = LocalRuntime(shuffle=shuffle).run(OneReducer(), toy_splits())
        values = range(128)
        assert result.output == [
            (key, float(sum(v for v in values if v % 7 == key))) for key in range(7)
        ]
        if shuffle is not None:
            assert result.shuffle_stats["spills"] > 0


class TestEndToEndBitIdentity:
    def build(self, algorithm, shuffle, runtime_name="local"):
        runtime = make_runtime(runtime_name, shuffle=shuffle)
        cluster = SimulatedCluster(runtime=runtime)
        rng = np.random.default_rng(12)
        data = rng.normal(scale=50.0, size=4096)
        builder = d_greedy_abs if algorithm == "abs" else d_greedy_rel
        synopsis = builder(data, 48, cluster=cluster, base_leaves=256)
        return synopsis, cluster

    @pytest.mark.parametrize("algorithm", ["abs", "rel"])
    def test_synopses_bit_identical(self, algorithm):
        external = ShuffleConfig(mode="external", buffer_bytes=4096)
        memory_syn, memory_cluster = self.build(algorithm, None)
        external_syn, external_cluster = self.build(algorithm, external)
        assert pickle.dumps(memory_syn.coefficients) == pickle.dumps(
            external_syn.coefficients
        )
        for memory_job, external_job in zip(
            memory_cluster.log.jobs, external_cluster.log.jobs
        ):
            assert (
                memory_job.counters.as_dict() == external_job.counters.as_dict()
            )
        assert any(
            job.shuffle_stats.get("spills", 0) for job in external_cluster.log.jobs
        )

    def test_spill_dir_knob_respected_and_left_empty(self, tmp_path):
        spill_dir = tmp_path / "spills"
        external = ShuffleConfig(
            mode="external", spill_dir=str(spill_dir), buffer_bytes=2048
        )
        self.build("abs", external)
        assert spill_dir.is_dir()
        assert list(spill_dir.iterdir()) == []

    @pytest.mark.slow
    def test_out_of_core_smoke_file_backed_process_external(self, tmp_path):
        # Moderate N, buffer at 1/64 of the input's serde volume: multi-run
        # merges on every reducer, file-backed splits, process pool — the
        # acceptance configuration scaled down to smoke-test time.
        n = 1 << 16
        rng = np.random.default_rng(7)
        data = rng.normal(scale=100.0, size=n)
        data_path = tmp_path / "data.npy"
        np.save(data_path, data)
        spill_dir = tmp_path / "spills"
        external = ShuffleConfig(
            mode="external", spill_dir=str(spill_dir), buffer_bytes=(n * 8) // 64
        )

        resident = build_synopsis(
            data, budget=64, algorithm="dgreedy-abs", subtree_leaves=1024, pad=False
        )
        cluster = SimulatedCluster(runtime=make_runtime("process", shuffle=external))
        out_of_core = build_synopsis(
            FileDataset(data_path),
            budget=64,
            algorithm="dgreedy-abs",
            cluster=cluster,
            subtree_leaves=1024,
        )
        assert pickle.dumps(out_of_core.coefficients) == pickle.dumps(
            resident.coefficients
        )
        assert any(
            job.shuffle_stats.get("spills", 0) for job in cluster.log.jobs
        )
        assert list(spill_dir.iterdir()) == []


class TestFileDataset:
    def test_validation(self, tmp_path):
        not_pow2 = tmp_path / "bad-length.npy"
        np.save(not_pow2, np.zeros(100))
        with pytest.raises(InvalidInputError, match="power of two"):
            FileDataset(not_pow2)
        wrong_dtype = tmp_path / "bad-dtype.npy"
        np.save(wrong_dtype, np.zeros(64, dtype=np.int32))
        with pytest.raises(InvalidInputError, match="float64"):
            FileDataset(wrong_dtype)
        not_1d = tmp_path / "bad-shape.npy"
        np.save(not_1d, np.zeros((8, 8)))
        with pytest.raises(InvalidInputError, match="one-dimensional"):
            FileDataset(not_1d)
        with pytest.raises(InvalidInputError, match="cannot open"):
            FileDataset(tmp_path / "missing.npy")

    def test_splits_are_lazy_and_pickle_small(self, tmp_path):
        path = tmp_path / "data.npy"
        values = np.arange(1 << 12, dtype=np.float64)
        np.save(path, values)
        dataset = FileDataset(path)
        splits = dataset.aligned_splits(1 << 8)
        assert len(splits) == 16
        payload = pickle.dumps(splits[5])
        assert len(payload) < 512  # (path, offset, length), never the data
        clone = pickle.loads(payload)
        assert np.array_equal(clone.values, values[5 << 8 : 6 << 8])
        assert len(clone) == 1 << 8
        assert clone.serialized_size() == (1 << 8) * 8

    def test_values_not_assignable(self, tmp_path):
        path = tmp_path / "data.npy"
        np.save(path, np.zeros(16))
        split = FileDataset(path).aligned_splits(8)[0]
        with pytest.raises(TypeError, match="read-only"):
            split.values = np.ones(8)

    def test_non_dgreedy_algorithms_rejected(self, tmp_path):
        path = tmp_path / "data.npy"
        np.save(path, np.zeros(64))
        with pytest.raises(InvalidInputError, match="FileDataset"):
            build_synopsis(FileDataset(path), budget=8, algorithm="con")


class TestSpillCleanup:
    """Satellite meta-test: no orphaned run files, ever.

    Mirrors test_job_process_safety's philosophy — the cleanup contract
    is tested against the runtime's actual failure machinery, not a mock:
    success, injected-retry, and job-abort paths all end with the spill
    dir empty, on both runtimes.
    """

    def run_job(self, runtime, spill_dir):
        runtime.shuffle = ShuffleConfig(
            mode="external", spill_dir=str(spill_dir), buffer_bytes=64
        )
        return runtime.run(ModSum(), toy_splits())

    def assert_empty(self, spill_dir):
        assert spill_dir.is_dir()
        assert list(spill_dir.iterdir()) == []

    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    def test_success_leaves_no_orphans(self, runtime_name, tmp_path):
        runtime = make_runtime(runtime_name)
        result = self.run_job(runtime, tmp_path)
        assert result.shuffle_stats["spills"] > 0
        self.assert_empty(tmp_path)

    def injected_runtimes(self, probability, seed, max_attempts=4):
        return {
            "local": LocalRuntime(
                failure_injector=FailureInjector(
                    probability, seed=seed, max_attempts=max_attempts
                )
            ),
            "process": ProcessPoolRuntime(
                max_workers=2,
                failure_injector=FailureInjector(
                    probability, seed=seed, max_attempts=max_attempts
                ),
            ),
        }

    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    def test_retried_failures_leave_no_orphans(self, runtime_name, tmp_path):
        runtime = self.injected_runtimes(0.25, seed=3)[runtime_name]
        result = self.run_job(runtime, tmp_path)
        assert result.shuffle_stats["spills"] > 0
        self.assert_empty(tmp_path)

    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    def test_job_abort_leaves_no_orphans(self, runtime_name, tmp_path):
        # p=0.9 with a single attempt: the job aborts almost immediately,
        # after earlier tasks may already have spilled.
        runtime = self.injected_runtimes(0.9, seed=1, max_attempts=1)[runtime_name]
        with pytest.raises(JobFailedError):
            self.run_job(runtime, tmp_path)
        self.assert_empty(tmp_path)


class HistogramShaped(MapReduceJob):
    """Toy job emitting the per-bucket records DGreedyAbs's job 1 used to emit.

    Keys interleave 4-tuple ``hist`` and 3-tuple ``final`` records; values
    interleave ``(count, cut_error)`` tuples and floats.  Repeated keys
    inside a split give the optional combiner something to merge.
    """

    name = "histogram-shaped"
    num_reducers = 3

    def __init__(self, use_combiner=False):
        self.use_combiner = use_combiner

    def map(self, split):
        for value in split.values:
            candidate = int(value) % 5
            bucket = float(int(value) % 3) / 4
            key = ("hist", candidate, split.split_id, bucket)
            yield key, (int(value) % 7, value / 3)
            if int(value) % 4 == 0:
                yield ("final", candidate, split.split_id), value / 5

    def combine(self, key, values):
        yield key, values[-1]

    def partition(self, key, num_reducers):
        return key[1] % num_reducers

    def reduce(self, key, values):
        yield key, values[0]
        if key[0] == "final":
            yield key[1], len(values) > 1


def _sizes(records):
    return sum(record_size(key, value) for key, value in records)


class TestByteAccountingOracle:
    """Columnar driver byte totals == per-record ``record_size`` sums."""

    #: Trips every few map tasks and leaves an unspilled tail.
    BUFFER_BYTES = 4000

    def expected(self, job, splits):
        emitted = [list(job.map(split)) for split in splits]
        shuffled = (
            [apply_combiner(job, output) for output in emitted]
            if job.use_combiner
            else emitted
        )
        map_task_bytes = [_sizes(output) for output in emitted]
        shuffle_task_bytes = [_sizes(output) for output in shuffled]
        # The external shuffle checks its buffer once per map task and
        # spills everything buffered when the check trips.
        spilled = buffered = 0
        for task_bytes in shuffle_task_bytes:
            buffered += task_bytes
            if buffered >= self.BUFFER_BYTES:
                spilled += buffered
                buffered = 0
        return map_task_bytes, sum(shuffle_task_bytes), spilled

    @pytest.mark.parametrize("use_combiner", [False, True])
    @pytest.mark.parametrize("shuffle", ["memory", "external", "external-spill"])
    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    def test_driver_bytes_match_scalar_sums(self, runtime_name, shuffle, use_combiner):
        config = {
            "memory": None,
            "external": ShuffleConfig(mode="external"),
            "external-spill": ShuffleConfig(
                mode="external", buffer_bytes=self.BUFFER_BYTES
            ),
        }[shuffle]
        job = HistogramShaped(use_combiner=use_combiner)
        splits = toy_splits(n=512, split=32)
        result = make_runtime(runtime_name, shuffle=config).run(job, splits)
        map_task_bytes, shuffle_bytes, spilled = self.expected(job, splits)

        assert result.shuffle_bytes == shuffle_bytes
        assert result.counters["shuffle.bytes"] == shuffle_bytes
        stages = {stage.name: stage for stage in result.trace.stages}
        assert [task.bytes_out for task in stages["map"].tasks] == map_task_bytes
        assert stages["map"].bytes_out == sum(map_task_bytes)
        if use_combiner:
            assert stages["combine"].bytes_out == shuffle_bytes
            assert sum(map_task_bytes) > shuffle_bytes
        else:
            assert "combine" not in stages
        assert stages["shuffle"].bytes_out == shuffle_bytes
        assert [task.bytes_out for task in stages["reduce"].tasks] == [
            _sizes(output) for output in result.reducer_outputs
        ]
        assert stages["reduce"].bytes_out == _sizes(result.output)

        if shuffle == "memory":
            assert result.shuffle_stats == {}
        else:
            assert result.shuffle_stats["spilled_bytes_modeled"] == (
                spilled if shuffle == "external-spill" else 0
            )
        if shuffle == "external-spill":
            assert result.shuffle_stats["spills"] > 1
            assert 0 < spilled < shuffle_bytes
