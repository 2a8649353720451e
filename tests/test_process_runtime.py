"""Tests for the process-pool runtime: equivalence with the local runtime.

Every distributed algorithm is compared across the two runtimes in
``tests/test_job_process_safety.py``; the jobs here are toys, apart from
DMHaarSpace's layer jobs, which run through the in-process fallback, and
the pool-lifecycle tests, which count the pools each algorithm starts.
"""

import multiprocessing
import os
import pickle
import resource
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.mapreduce.process as process_module
from repro.core import d_greedy_abs, dm_haar_space
from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.exceptions import InvalidInputError, JobFailedError
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


class WorkerKiller(MapReduceJob):
    """Kills the worker process that runs a map task; harmless in the driver."""

    name = "worker-killer"
    num_reducers = 0

    def __init__(self):
        self.driver_pid = os.getpid()

    def map(self, split):
        if os.getpid() != self.driver_pid:
            os._exit(1)
        yield split.split_id, None


class SelfWriter(MapReduceJob):
    """Each task reads the job, then writes it: a shared job shows the write."""

    name = "self-writer"
    num_reducers = 2

    def __init__(self):
        self.written = None

    def map(self, split):
        yield split.split_id, self.written
        self.written = f"map-{split.split_id}"

    def reduce_partition(self, records):
        read = self.written
        self.written = "reduce"
        for key, value in records:
            yield key, (value, read)


class Spin(MapReduceJob):
    """Burns ``seconds`` of CPU in every map task."""

    name = "spin"
    num_reducers = 0

    def __init__(self, seconds):
        self.seconds = seconds

    def map(self, split):
        deadline = time.process_time() + self.seconds
        while time.process_time() < deadline:
            pass
        yield split.split_id, None


class TestJobIsolation:
    def test_every_task_gets_a_fresh_job(self):
        # Workers live for the whole session, but each task unpickles its
        # own copy of the job, so no task sees another task's write.
        runtime = ProcessPoolRuntime(max_workers=2)
        job = SelfWriter()
        splits = block_splits(np.arange(64, dtype=float), 8)
        with runtime.session():
            outputs = [runtime.run(job, splits).output for _ in range(2)]
        for output in outputs:
            assert sorted(output) == [(split_id, (None, None)) for split_id in range(8)]
        assert job.written is None


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

    @pytest.mark.parametrize("max_workers", [1.5, True, float("nan"), "2"])
    def test_rejects_non_integer_worker_count(self, max_workers):
        with pytest.raises(InvalidInputError, match="max_workers"):
            ProcessPoolRuntime(max_workers=max_workers)

    def test_dead_worker_fails_the_job_and_the_pool_is_replaced(self, pools_started):
        runtime = ProcessPoolRuntime(max_workers=2)
        splits = block_splits(np.arange(64, dtype=float), 8)
        expected = LocalRuntime().run(SquareSum(), splits).output
        with runtime.session():
            with pytest.raises(JobFailedError, match="worker-killer") as failure:
                runtime.run(WorkerKiller(), splits)
            assert isinstance(failure.value.__cause__, BrokenProcessPool)
            assert multiprocessing.active_children() == []
            assert runtime.run(SquareSum(), splits).output == expected
        assert len(pools_started) == 2
        assert multiprocessing.active_children() == []


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


@pytest.fixture
def pools_started(monkeypatch):
    """Every worker pool the process runtime starts, in start order."""
    started: list[ProcessPoolExecutor] = []

    class CountingExecutor(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(process_module, "ProcessPoolExecutor", CountingExecutor)
    return started


#: Four 64-leaf splits, so every distributed algorithm runs its jobs.
LIFECYCLE_SERIES = np.random.default_rng(7).integers(100, 200, size=256).astype(float)


class TestPoolLifecycle:
    @pytest.mark.parametrize(
        "algorithm", sorted(name for name, (_, dist) in ALGORITHMS.items() if dist)
    )
    def test_one_pool_per_build(self, algorithm, pools_started):
        cluster = SimulatedCluster(runtime=ProcessPoolRuntime(max_workers=2))
        build_synopsis(LIFECYCLE_SERIES, 16, algorithm, cluster, subtree_leaves=64)
        assert len(cluster.log.jobs) >= 1
        assert len(pools_started) == 1
        assert multiprocessing.active_children() == []

    def test_dmhaarspace_starts_no_pool(self, pools_started):
        cluster = SimulatedCluster(runtime=ProcessPoolRuntime(max_workers=2))
        dm_haar_space(LIFECYCLE_SERIES, 20.0, 1.0, cluster, subtree_leaves=64)
        assert len(cluster.log.jobs) >= 2
        assert pools_started == []

    def test_two_builds_start_two_pools(self, pools_started):
        cluster = SimulatedCluster(runtime=ProcessPoolRuntime(max_workers=2))
        for _ in range(2):
            d_greedy_abs(LIFECYCLE_SERIES, 16, cluster, base_leaves=64)
            assert multiprocessing.active_children() == []
        assert len(pools_started) == 2

    def test_failed_build_leaves_no_live_worker(self, pools_started):
        runtime = ProcessPoolRuntime(
            max_workers=2,
            failure_injector=FailureInjector(0.99, seed=2, max_attempts=2),
        )
        with pytest.raises(JobFailedError):
            d_greedy_abs(
                LIFECYCLE_SERIES, 16, SimulatedCluster(runtime=runtime), base_leaves=64
            )
        assert len(pools_started) == 1
        assert multiprocessing.active_children() == []

    def test_worker_cpu_is_counted_when_the_build_returns(self):
        # The workers are reaped before the build returns, so their CPU
        # time is already in RUSAGE_CHILDREN: 8 tasks of 50 ms each.
        runtime = ProcessPoolRuntime(max_workers=2)
        splits = block_splits(np.arange(16, dtype=float), 4)

        def children_cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu()
        with runtime.session():
            runtime.run(Spin(0.05), splits)
            runtime.run(Spin(0.05), splits)
        assert children_cpu() - before >= 0.3

    def test_threads_building_on_one_runtime_match_local(self):
        # More threads than cores and a short switch interval: a lost
        # update of the session depth would shut the pool down under a
        # running build, or leave it running after the last one.
        runtime = ProcessPoolRuntime(max_workers=2)
        rng = np.random.default_rng(3)
        series = [rng.integers(0, 1000, size=256).astype(float) for _ in range(4)]
        expected = [
            d_greedy_abs(data, 16, SimulatedCluster(), base_leaves=64).coefficients
            for data in series
        ]
        results: list = [None] * len(series)
        errors: list = []

        def build(index):
            try:
                cluster = SimulatedCluster(runtime=runtime)
                results[index] = d_greedy_abs(
                    series[index], 16, cluster, base_leaves=64
                ).coefficients
            except Exception as error:  # asserted on below, in the test thread
                errors.append(error)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == expected
        assert multiprocessing.active_children() == []
