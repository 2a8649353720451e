"""Unit and integration tests for the MapReduce substrate."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.minhaarspace import MRow
from repro.exceptions import InvalidInputError, JobFailedError, MemoryBudgetExceeded
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    FailureInjector,
    InputSplit,
    LocalRuntime,
    MapReduceJob,
    MemoryModel,
    SimulatedCluster,
    aligned_splits,
    block_splits,
    estimate_size,
    makespan,
    record_size,
    records_size,
    stable_partition,
)


class WordRangeCount(MapReduceJob):
    """Toy job: count data points falling in integer buckets of width 10."""

    name = "word-range-count"
    num_reducers = 2

    def map(self, split):
        for value in split.values:
            yield int(value) // 10, 1

    def reduce(self, key, values):
        yield key, sum(values)


class TestSplits:
    def test_aligned_splits_cover_data(self):
        data = np.arange(64, dtype=float)
        splits = aligned_splits(data, 16)
        assert len(splits) == 4
        assert [s.offset for s in splits] == [0, 16, 32, 48]
        recombined = np.concatenate([s.values for s in splits])
        np.testing.assert_array_equal(recombined, data)

    def test_aligned_splits_validate_sizes(self):
        data = np.arange(64, dtype=float)
        with pytest.raises(InvalidInputError):
            aligned_splits(data, 12)
        with pytest.raises(InvalidInputError):
            aligned_splits(data, 128)
        with pytest.raises(InvalidInputError):
            aligned_splits(np.arange(60), 4)

    def test_block_splits_allow_ragged_tail(self):
        data = np.arange(10, dtype=float)
        splits = block_splits(data, 4)
        assert [len(s) for s in splits] == [4, 4, 2]
        assert splits[2].offset == 8

    def test_block_splits_reject_bad_size(self):
        with pytest.raises(InvalidInputError):
            block_splits(np.arange(4), 0)


class TestSerde:
    def test_scalar_sizes(self):
        assert estimate_size(3) == 4
        assert estimate_size(3.0) == 8
        assert estimate_size(True) == 1
        assert estimate_size(None) == 1
        assert estimate_size("abcd") == 4

    def test_container_sizes(self):
        assert estimate_size((1, 2.0)) == 4 + 4 + 8
        assert estimate_size([1, 1, 1]) == 4 + 12
        assert estimate_size({1: 2.0}) == 4 + 4 + 8

    def test_numpy_array(self):
        array = np.zeros(10, dtype=np.float64)
        assert estimate_size(array) == 80 + 4

    def test_numpy_scalars(self):
        assert estimate_size(np.int64(1)) == 4
        assert estimate_size(np.float64(1.0)) == 8

    def test_record_size(self):
        assert record_size(1, (2, 3)) == 4 + (4 + 8)

    def test_bytes_like_payloads_charge_their_length(self):
        # Regression: bytearray and memoryview used to fall through to the
        # 8-byte unknown-scalar default.
        assert estimate_size(b"abc") == 3
        assert estimate_size(bytearray(1000)) == 1000
        assert estimate_size(memoryview(bytes(64))) == 64
        # A memoryview's byte length is nbytes, not its element count.
        assert estimate_size(memoryview(np.zeros(10))) == 80

    def test_histogram_value_smaller_than_list(self):
        # The premise of ErrHistGreedyAbs: an int is cheaper than the list.
        node_list = list(range(100))
        assert estimate_size(len(node_list)) < estimate_size(node_list)


Pair = namedtuple("Pair", "left right")


class Payload:
    """A plain object: sized through its ``__dict__``."""

    def __init__(self, label, weight):
        self.label = label
        self.weight = weight

    def __repr__(self):
        return f"Payload({self.label!r}, {self.weight!r})"


def _object_array(items):
    array = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        array[index] = item
    return array


def _mrow(entries):
    return MRow(
        start=0,
        counts=np.arange(entries, dtype=np.int64),
        errors=np.zeros(entries),
        choices=np.full(entries, -1, dtype=np.int64),
    )


_hashables = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
)

_scalars = st.one_of(
    _hashables,
    # bool next to int, and ints far beyond int64.
    st.integers(min_value=1 << 63, max_value=1 << 90),
    st.integers(min_value=-(1 << 90), max_value=-(1 << 63)),
    # numpy scalars are subclasses (np.float64 of float, np.str_ of str).
    st.floats().map(np.float64),
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=6).map(np.str_),
    # Non-ASCII and empty strings (lone surrogates have no UTF-8 size).
    st.text(
        alphabet=st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
        max_size=6,
    ),
    st.just(""),
    st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
    st.binary(max_size=8).map(memoryview),
    st.lists(st.floats(), max_size=5).map(np.array),
    st.lists(st.integers(-1000, 1000), max_size=5).map(
        lambda values: np.array(values, dtype=np.int32)
    ),
    st.integers(0, 4).map(_mrow),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(_hashables, children, max_size=3),
        st.sets(_hashables, max_size=3),
        st.frozensets(_hashables, max_size=3),
        st.lists(children, max_size=3).map(_object_array),
        st.builds(Pair, children, children),
        st.builds(Payload, st.text(max_size=4), children),
    )


_hostile_values = st.recursive(_scalars, _containers, max_leaves=8)

#: The per-bucket records DGreedyAbs's job 1 emitted before it shipped
#: one columnar record per run: 4-tuple ``hist`` keys with ``(count,
#: cut_error)`` values interleaved with 3-tuple ``final`` keys with float
#: values — mixed arities in the keys, mixed types in the values.
_histogram_records = st.one_of(
    st.tuples(
        st.tuples(st.just("hist"), st.integers(), st.integers(), st.floats()),
        st.tuples(st.integers(), st.floats()),
    ),
    st.tuples(st.tuples(st.just("final"), st.integers(), st.integers()), st.floats()),
)

_batches = st.one_of(
    st.lists(st.tuples(_hostile_values, _hostile_values), max_size=25),
    st.lists(_histogram_records, max_size=60),
    # Homogeneous columns: the width-times-count path.
    st.lists(st.tuples(st.integers(), st.floats()), max_size=60),
    st.lists(st.tuples(st.booleans(), st.none()), max_size=60),
    st.lists(st.tuples(st.text(max_size=6), st.binary(max_size=6)), max_size=60),
)


def _scalar_sum(records):
    return sum(record_size(key, value) for key, value in records)


class TestRecordsSize:
    """``records_size`` is the per-record ``record_size`` sum, exactly."""

    @given(_batches)
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_record_size_sum(self, records):
        assert records_size(records) == _scalar_sum(records)

    def test_empty_batch(self):
        assert records_size([]) == 0

    def test_exact_type_dispatch(self):
        records = [
            (True, 1),
            (1, True),
            (np.float64(1.5), 1.5),
            (np.str_("é"), "é"),
            (Pair(1, 2.0), (1, 2.0)),
            (1 << 80, None),
        ]
        assert records_size(records) == _scalar_sum(records) == (
            (1 + 4) + (4 + 1) + (8 + 8) + (2 + 2) + (16 + 16) + (4 + 1)
        )

    def test_mixed_arity_tuples_and_mixed_values(self):
        records = [
            (("hist", 3, 5, 0.25), (2, 0.5)),
            (("final", 3, 5), 0.75),
            (("hist", 4, 5, 0.5), (1, 0.25)),
        ]
        hist = 4 + 4 + 4 + 4 + 8 + (4 + 4 + 8)
        final = 4 + 5 + 4 + 4 + 8
        assert records_size(records) == _scalar_sum(records) == 2 * hist + final


class TestCounters:
    def test_increment_and_get(self):
        counters = Counters()
        counters.increment("records", 5)
        counters.increment("records")
        assert counters["records"] == 6
        assert counters.get("missing") == 0

    def test_merge(self):
        a = Counters({"x": 1})
        b = Counters({"x": 2, "y": 3})
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 3}

    def test_mapping_interface(self):
        counters = Counters({"x": 1})
        assert "x" in counters
        assert len(counters) == 1
        assert dict(counters) == {"x": 1}


class TestRuntime:
    def test_wordcount_end_to_end(self):
        data = np.array([1, 5, 11, 15, 25, 3], dtype=float)
        splits = block_splits(data, 3)
        result = LocalRuntime().run(WordRangeCount(), splits)
        assert dict(result.output) == {0: 3, 1: 2, 2: 1}

    def test_counters_account_records(self):
        data = np.arange(8, dtype=float)
        result = LocalRuntime().run(WordRangeCount(), block_splits(data, 4))
        assert result.counters["map.input_records"] == 8
        assert result.counters["map.output_records"] == 8
        assert result.map_output_records == 8

    def test_shuffle_bytes_accounted(self):
        data = np.arange(8, dtype=float)
        result = LocalRuntime().run(WordRangeCount(), block_splits(data, 4))
        # 8 records of (int key, int value) = 8 * 8 bytes.
        assert result.shuffle_bytes == 8 * 8

    def test_task_times_recorded(self):
        data = np.arange(8, dtype=float)
        result = LocalRuntime().run(WordRangeCount(), block_splits(data, 2))
        assert len(result.map_task_seconds) == 4
        assert len(result.reduce_task_seconds) == 2
        assert all(t >= 0 for t in result.map_task_seconds)

    def test_map_only_job(self):
        class MapOnly(MapReduceJob):
            num_reducers = 0

            def map(self, split):
                yield split.split_id, float(split.values.sum())

        data = np.arange(8, dtype=float)
        result = LocalRuntime().run(MapOnly(), block_splits(data, 4))
        assert dict(result.output) == {0: 6.0, 1: 22.0}
        assert result.reduce_task_seconds == []

    def test_sorted_reduce_partition(self):
        class SortedEcho(MapReduceJob):
            num_reducers = 1
            sort_descending = True

            def map(self, split):
                for value in split.values:
                    yield float(value), None

            def reduce_partition(self, records):
                yield "order", [key for key, _ in records]

        data = np.array([3.0, 1.0, 2.0])
        result = LocalRuntime().run(SortedEcho(), block_splits(data, 2))
        assert result.output == [("order", [3.0, 2.0, 1.0])]

    def test_combiner_runs_map_side(self):
        class CombinedCount(WordRangeCount):
            use_combiner = True

            def combine(self, key, values):
                yield key, sum(values)

        data = np.array([1.0, 2.0, 3.0, 4.0])  # all in bucket 0
        splits = block_splits(data, 4)
        plain = LocalRuntime().run(WordRangeCount(), splits)
        combined = LocalRuntime().run(CombinedCount(), splits)
        assert dict(plain.output) == dict(combined.output)
        assert combined.map_output_records < plain.map_output_records
        assert combined.shuffle_bytes < plain.shuffle_bytes

    def test_partitioning_routes_all_keys(self):
        data = np.arange(40, dtype=float)
        result = LocalRuntime().run(WordRangeCount(), block_splits(data, 10))
        assert sum(count for _, count in result.output) == 40

    def test_stable_partition_is_deterministic_and_in_range(self):
        keys = [1, "a", (2, 3.5), ("croot", 7)]
        for key in keys:
            bucket = stable_partition(key, 4)
            assert 0 <= bucket < 4
            assert bucket == stable_partition(key, 4)


class TestFailureInjection:
    def test_retries_mask_failures(self):
        data = np.arange(16, dtype=float)
        runtime = LocalRuntime(FailureInjector(probability=0.3, seed=1, max_attempts=10))
        result = runtime.run(WordRangeCount(), block_splits(data, 4))
        assert sum(count for _, count in result.output) == 16

    def test_exhausted_attempts_raise(self):
        data = np.arange(4, dtype=float)
        runtime = LocalRuntime(FailureInjector(probability=0.99, seed=2, max_attempts=2))
        with pytest.raises(JobFailedError):
            runtime.run(WordRangeCount(), block_splits(data, 2))

    def test_injector_validates_probability(self):
        with pytest.raises(ValueError):
            FailureInjector(probability=1.5)

    @pytest.mark.parametrize("max_attempts", [0, -3, 2.5, "2", None])
    def test_injector_validates_max_attempts(self, max_attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            FailureInjector(probability=0.5, max_attempts=max_attempts)


class TestMakespan:
    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_single_slot_sums(self):
        assert makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_fully_parallel(self):
        assert makespan([1.0, 2.0, 3.0], 3) == 3.0

    def test_fifo_placement(self):
        # Two slots, FIFO: [3, 1] then 2 goes to the slot free at t=1 -> 3.
        assert makespan([3.0, 1.0, 2.0], 2) == 3.0

    def test_halving_slots_roughly_doubles(self):
        times = [1.0] * 40
        assert makespan(times, 40) == 1.0
        assert makespan(times, 20) == 2.0
        assert makespan(times, 10) == 4.0

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)


class TestSimulatedCluster:
    def test_job_pricing_formula(self):
        cluster = SimulatedCluster(
            ClusterConfig(
                map_slots=2,
                reduce_slots=1,
                task_startup_seconds=0.5,
                job_startup_seconds=1.0,
                shuffle_bytes_per_second=100.0,
            )
        )
        from repro.mapreduce.runtime import JobResult

        result = JobResult(
            job_name="synthetic",
            output=[],
            counters=Counters(),
            map_task_seconds=[1.0, 1.0, 1.0, 1.0],
            reduce_task_seconds=[2.0],
            shuffle_bytes=200,
            map_output_records=0,
        )
        # maps: 4 tasks of 1.5s on 2 slots = 3.0; shuffle 2.0; reduce 2.5.
        assert cluster.job_simulated_seconds(result) == pytest.approx(1.0 + 3.0 + 2.0 + 2.5)

    def test_run_job_appends_to_log(self):
        cluster = SimulatedCluster()
        data = np.arange(8, dtype=float)
        cluster.run_job(WordRangeCount(), block_splits(data, 4))
        assert cluster.log.job_count == 1
        assert cluster.simulated_seconds > 0

    def test_driver_timer(self):
        cluster = SimulatedCluster()
        with cluster.driver():
            sum(range(1000))
        assert cluster.log.driver_seconds > 0

    def test_reset_clears_log(self):
        cluster = SimulatedCluster()
        data = np.arange(8, dtype=float)
        cluster.run_job(WordRangeCount(), block_splits(data, 4))
        cluster.reset()
        assert cluster.log.job_count == 0
        assert cluster.simulated_seconds == 0

    def test_fewer_slots_cost_more(self):
        data = np.arange(2048, dtype=float)
        splits = block_splits(data, 64)
        fast = SimulatedCluster(ClusterConfig(map_slots=32))
        slow = SimulatedCluster(ClusterConfig(map_slots=4))
        fast.run_job(WordRangeCount(), splits)
        slow.run_job(WordRangeCount(), splits)
        assert slow.simulated_seconds > fast.simulated_seconds

    def test_config_scaled_copy(self):
        config = ClusterConfig()
        halved = config.scaled(map_slots=config.map_slots // 2)
        assert halved.map_slots == 20
        assert halved.reduce_slots == config.reduce_slots
        assert config.map_slots == 40  # original untouched


class TestMemoryModel:
    def test_charge_within_budget(self):
        MemoryModel(1000).charge(999, "greedy")  # no raise

    def test_charge_over_budget(self):
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            MemoryModel(1000).charge(1001, "greedy")
        assert excinfo.value.algorithm == "greedy"
        assert excinfo.value.required_bytes == 1001

    def test_fits(self):
        model = MemoryModel(100)
        assert model.fits(100)
        assert not model.fits(101)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            MemoryModel(0)


class TestPriceLog:
    def test_repricing_matches_direct_pricing(self):
        from repro.mapreduce import price_log

        data = np.arange(2048, dtype=float)
        cluster = SimulatedCluster(ClusterConfig(map_slots=8))
        cluster.run_job(WordRangeCount(), block_splits(data, 64))
        direct = cluster.simulated_seconds
        repriced = price_log(cluster.log, ClusterConfig(map_slots=8))
        assert repriced == pytest.approx(direct)

    def test_fewer_slots_price_higher_on_same_log(self):
        from repro.mapreduce import price_log

        data = np.arange(2048, dtype=float)
        cluster = SimulatedCluster()
        cluster.run_job(WordRangeCount(), block_splits(data, 64))
        wide = price_log(cluster.log, ClusterConfig(map_slots=32))
        narrow = price_log(cluster.log, ClusterConfig(map_slots=2))
        assert narrow > wide

    def test_driver_seconds_are_included(self):
        from repro.mapreduce import price_log

        cluster = SimulatedCluster()
        cluster.log.driver_seconds = 1.5
        assert price_log(cluster.log, ClusterConfig()) == pytest.approx(1.5)
