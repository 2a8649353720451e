"""Tests for the process-pool runtime: equivalence with the local runtime.

Every distributed algorithm is compared across the two runtimes in
``tests/test_job_process_safety.py``; the jobs here are toys, apart from
DMHaarSpace's layer jobs, which run through the in-process fallback.
"""

import pickle

import numpy as np
import pytest

from repro.core import dm_haar_space
from repro.exceptions import JobFailedError
from repro.mapreduce import (
    FailureInjector,
    LocalRuntime,
    MapReduceJob,
    ProcessPoolRuntime,
    SimulatedCluster,
    block_splits,
    make_runtime,
)


class SquareSum(MapReduceJob):
    name = "square-sum"
    num_reducers = 2

    def map(self, split):
        for value in split.values:
            yield int(value) % 4, float(value) ** 2

    def reduce(self, key, values):
        yield key, sum(values)


class DriverStateJob(MapReduceJob):
    """A job that mutates driver-side state from its map tasks."""

    name = "driver-state"
    num_reducers = 0
    process_safe = False

    def __init__(self, sink: list):
        self.sink = sink

    def map(self, split):
        self.sink.append(split.split_id)
        yield split.split_id, len(split)


class TestEquivalence:
    def test_toy_job_outputs_match_local_runtime(self):
        data = np.arange(512, dtype=float)
        splits = block_splits(data, 32)
        local = LocalRuntime().run(SquareSum(), splits)
        pooled = ProcessPoolRuntime(max_workers=2).run(SquareSum(), splits)
        assert local.output == pooled.output
        assert local.shuffle_bytes == pooled.shuffle_bytes
        assert local.map_output_records == pooled.map_output_records
        assert local.counters.as_dict() == pooled.counters.as_dict()

    def test_map_outputs_keep_split_order(self):
        class_level_job = EchoSplit()
        data = np.arange(256, dtype=float)
        result = ProcessPoolRuntime(max_workers=4).run(class_level_job, block_splits(data, 16))
        assert [key for key, _ in result.output] == list(range(16))

    def test_dmhaarspace_identical_under_processes(self):
        # The layered DP jobs declare process_safe=False (driver-side row
        # store); the runtime must fall back in-process and still match.
        data = np.random.default_rng(2).integers(0, 200, size=256).astype(float)
        sequential = dm_haar_space(
            data, 20.0, 1.0, SimulatedCluster(runtime=LocalRuntime()), 32
        )
        pooled = dm_haar_space(
            data, 20.0, 1.0, SimulatedCluster(runtime=ProcessPoolRuntime(2)), 32
        )
        assert sequential.size == pooled.size
        assert sequential.synopsis.same_coefficients(pooled.synopsis, tolerance=0.0)

    def test_job_class_defined_inside_a_function_does_not_ship(self):
        # The _AverageJob incident: a job class created inside a driver
        # function cannot be pickled by reference, so the pool cannot ship
        # it to a worker (the local runtime never pickles and hides this).
        def make_job() -> MapReduceJob:
            class AverageJob(MapReduceJob):
                name = "average"
                num_reducers = 0

                def map(self, split):
                    yield split.split_id, float(split.values.mean())

            return AverageJob()

        splits = block_splits(np.arange(64, dtype=float), 8)
        assert len(LocalRuntime().run(make_job(), splits).output) == 8
        with pytest.raises((AttributeError, pickle.PicklingError), match="local object"):
            ProcessPoolRuntime(max_workers=2).run(make_job(), splits)

    def test_process_unsafe_job_runs_in_driver(self):
        sink: list = []
        data = np.arange(64, dtype=float)
        result = ProcessPoolRuntime(max_workers=2).run(
            DriverStateJob(sink), block_splits(data, 8)
        )
        # Mutations happened in this process, in split order.
        assert sink == list(range(8))
        assert [key for key, _ in result.output] == list(range(8))


class EchoSplit(MapReduceJob):
    name = "echo-split"
    num_reducers = 0

    def map(self, split):
        yield split.split_id, None


class TestFailureHandling:
    def test_injected_failures_still_converge(self):
        data = np.arange(64, dtype=float)
        runtime = ProcessPoolRuntime(
            max_workers=2,
            failure_injector=FailureInjector(0.3, seed=1, max_attempts=20),
        )
        result = runtime.run(SquareSum(), block_splits(data, 8))
        reference = LocalRuntime().run(SquareSum(), block_splits(data, 8))
        assert result.output == reference.output

    def test_failure_pattern_independent_of_worker_count(self):
        data = np.arange(64, dtype=float)

        def seconds_with(workers: int):
            runtime = ProcessPoolRuntime(
                max_workers=workers,
                failure_injector=FailureInjector(0.4, seed=5, max_attempts=30),
            )
            return runtime.run(SquareSum(), block_splits(data, 8)).output

        assert seconds_with(2) == seconds_with(4)

    def test_fallback_path_uses_same_per_task_injectors(self):
        # With process_safe=False, attempts run in the driver but must be
        # derived per task label exactly as the workers would derive them.
        sink: list = []
        data = np.arange(32, dtype=float)
        runtime = ProcessPoolRuntime(
            max_workers=2,
            failure_injector=FailureInjector(0.99, seed=2, max_attempts=2),
        )
        with pytest.raises(JobFailedError):
            runtime.run(DriverStateJob(sink), block_splits(data, 4))

    def test_exhausted_attempts_raise(self):
        data = np.arange(16, dtype=float)
        runtime = ProcessPoolRuntime(
            max_workers=2,
            failure_injector=FailureInjector(0.99, seed=2, max_attempts=2),
        )
        with pytest.raises(JobFailedError):
            runtime.run(SquareSum(), block_splits(data, 4))

    def test_attempt_failures_are_deterministic_per_label(self):
        injector = FailureInjector(0.5, seed=11, max_attempts=3)

        def draws(label: str) -> list[bool]:
            failures = injector.attempt_failures(label)
            return [next(failures) for _ in range(32)]

        assert draws("job/map-0") == draws("job/map-0")
        assert draws("job/map-0") != draws("job/map-1")  # labels independent

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolRuntime(max_workers=0)


class TestRuntimeSelection:
    def test_default_process_count_is_clamped(self):
        import os

        from repro.mapreduce.process import default_process_count

        expected = max(2, min(16, os.cpu_count() or 2))
        assert default_process_count() == expected
        assert 2 <= ProcessPoolRuntime().max_workers <= 16

    def test_make_runtime_registry(self):
        from repro.mapreduce import RUNTIMES

        assert isinstance(make_runtime("local"), LocalRuntime)
        assert isinstance(make_runtime("process"), ProcessPoolRuntime)
        assert set(RUNTIMES) == {"local", "process"}

    def test_make_runtime_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            make_runtime("hadoop")

    def test_cluster_accepts_runtime_name(self):
        cluster = SimulatedCluster(runtime="process")
        assert isinstance(cluster.runtime, ProcessPoolRuntime)
        data = np.arange(64, dtype=float)
        result = cluster.run_job(SquareSum(), block_splits(data, 8))
        assert result.simulated_seconds > 0
