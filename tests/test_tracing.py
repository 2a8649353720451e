"""Tests for the tracing subsystem: schema, equivalence, and accounting.

Covers the observability contract of the runtime layer:

* both runtimes emit the *same canonical trace* for the same job —
  including under failure injection, where retried attempts must appear
  as child spans of their task, never as duplicate tasks;
* the trace JSON's shape is golden-tested (key sets per span kind,
  ``schema: 1``);
* ``Counters.merge`` is a lawful monoid fold (commutative, associative,
  never drops keys) — property-tested;
* combiner byte accounting: the map stage records the pre-combine
  emission, the shuffle stage the post-combine bytes that actually cross
  the wire, and ``shuffle_bytes`` shrinks when a combiner is enabled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import (
    TRACE_SCHEMA_VERSION,
    Counters,
    LocalRuntime,
    MapReduceJob,
    FailureInjector,
    ProcessPoolRuntime,
    ShuffleConfig,
    SimulatedCluster,
    block_splits,
    canonical_trace,
    job_emitted_bytes,
    record_size,
)


class TraceSum(MapReduceJob):
    """Toy shuffled job: bucket values mod 3, sum squares per bucket."""

    name = "trace-sum"
    num_reducers = 2

    def map(self, split):
        for value in split.values:
            yield int(value) % 3, float(value) ** 2

    def reduce(self, key, values):
        yield key, sum(values)


class CombinableCount(MapReduceJob):
    """Many repeated keys per split — a combiner collapses them well."""

    name = "combinable-count"
    num_reducers = 1

    def __init__(self, use_combiner: bool) -> None:
        self.use_combiner = use_combiner

    def map(self, split):
        for value in split.values:
            yield int(value) % 4, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


def data_and_splits(n: int = 256, split: int = 32):
    data = np.arange(n, dtype=float)
    return block_splits(data, split)


def run_traced(runtime) -> dict:
    cluster = SimulatedCluster(runtime=runtime)
    cluster.run_job(TraceSum(), data_and_splits())
    return cluster.log.trace()


class TestTraceEquivalence:
    def test_both_runtimes_emit_identical_canonical_traces(self):
        local = run_traced(LocalRuntime())
        process = run_traced(ProcessPoolRuntime(max_workers=2))
        assert canonical_trace(local) == canonical_trace(process)

    def test_equivalent_under_failure_injection(self):
        def traced(runtime_cls, **kw):
            injector = FailureInjector(0.25, seed=5)
            return run_traced(runtime_cls(failure_injector=injector, **kw))

        local = traced(LocalRuntime)
        process = traced(ProcessPoolRuntime, max_workers=2)
        assert canonical_trace(local) == canonical_trace(process)
        # The injected failures actually happened, as retries...
        attempts = [
            attempt
            for job in local["jobs"]
            for stage in job["stages"]
            for task in stage["tasks"]
            for attempt in task["attempts"]
        ]
        assert any(attempt["failed"] for attempt in attempts)
        # ...and retrying never duplicated a task: one span per split/partition.
        for job in local["jobs"]:
            for stage in job["stages"]:
                names = [task["name"] for task in stage["tasks"]]
                assert len(names) == len(set(names))
        map_stage = local["jobs"][0]["stages"][0]
        assert len(map_stage["tasks"]) == len(data_and_splits())

    def test_failure_pattern_is_pinned_on_both_runtimes(self):
        """Every task fails the same attempts on both runtimes.

        Each task draws from ``default_rng((seed ^ crc32(label)) &
        0xFFFFFFFF)``, so the flags are part of the injector's contract:
        changing the derivation changes every injected run.
        """
        expected = {
            "trace-sum/map-0": [True, False],
            "trace-sum/map-1": [False],
            "trace-sum/map-2": [False],
            "trace-sum/map-3": [True, False],
            "trace-sum/map-4": [False],
            "trace-sum/map-5": [False],
            "trace-sum/map-6": [True, True, False],
            "trace-sum/map-7": [False],
            "trace-sum/reduce-0": [False],
            "trace-sum/reduce-1": [True, True, False],
        }
        for runtime in (LocalRuntime(), ProcessPoolRuntime(max_workers=2)):
            runtime.failure_injector = FailureInjector(0.25, seed=5)
            trace = run_traced(runtime)
            pattern = {
                task["name"]: [attempt["failed"] for attempt in task["attempts"]]
                for job in trace["jobs"]
                for stage in job["stages"]
                for task in stage["tasks"]
            }
            assert pattern == expected, type(runtime).__name__

    def test_shuffle_dimension_preserves_canonical_traces(self):
        """2 runtimes x 2 shuffle modes: one equivalence class of traces.

        The tiny buffer forces multiple spill runs per map task, so the
        external path is genuinely exercised, not just configured.
        """
        external = ShuffleConfig(mode="external", buffer_bytes=256)
        variants = {
            ("local", "memory"): LocalRuntime(),
            ("local", "external"): LocalRuntime(shuffle=external),
            ("process", "memory"): ProcessPoolRuntime(max_workers=2),
            ("process", "external"): ProcessPoolRuntime(max_workers=2, shuffle=external),
        }
        traces = {}
        outputs = {}
        counters = {}
        stats = {}
        for variant, runtime in variants.items():
            cluster = SimulatedCluster(runtime=runtime)
            result = cluster.run_job(TraceSum(), data_and_splits())
            traces[variant] = canonical_trace(cluster.log.trace())
            outputs[variant] = result.output
            counters[variant] = result.counters.as_dict()
            stats[variant] = result.shuffle_stats
        reference = ("local", "memory")
        for variant in variants:
            assert traces[variant] == traces[reference], variant
            assert outputs[variant] == outputs[reference], variant
            assert counters[variant] == counters[reference], variant
        # External runs really spilled; spill accounting stays out of the
        # counters/trace (asserted equal above) and lives in shuffle_stats.
        for runtime_name in ("local", "process"):
            assert stats[(runtime_name, "external")]["spills"] > 0
            assert stats[(runtime_name, "memory")] == {}

    def test_failed_attempts_are_child_spans_in_order(self):
        injector = FailureInjector(0.25, seed=5)
        trace = run_traced(LocalRuntime(failure_injector=injector))
        retried = [
            task
            for job in trace["jobs"]
            for stage in job["stages"]
            for task in stage["tasks"]
            if len(task["attempts"]) > 1
        ]
        assert retried, "seed 5 at p=0.25 must produce at least one retry"
        for task in retried:
            *failures, final = task["attempts"]
            assert all(attempt["failed"] for attempt in failures)
            assert not final["failed"]
            assert [a["index"] for a in task["attempts"]] == list(
                range(1, len(task["attempts"]) + 1)
            )


class TestGoldenSchema:
    """Pin the trace JSON shape; changing it requires a schema bump."""

    ROOT_KEYS = {"schema", "driver_seconds", "meta", "jobs"}
    JOB_KEYS = {"kind", "name", "stage_label", "wall_seconds", "simulated_seconds", "stages"}
    STAGE_KEYS = {
        "kind",
        "name",
        "records_in",
        "records_out",
        "bytes_out",
        "wall_seconds",
        "simulated_seconds",
        "tasks",
    }
    TASK_KEYS = {"kind", "name", "records_out", "bytes_out", "wall_seconds", "attempts"}
    ATTEMPT_KEYS = {"kind", "index", "wall_seconds", "failed", "speculative", "canceled"}

    def trace(self) -> dict:
        cluster = SimulatedCluster()
        cluster.run_job(CombinableCount(use_combiner=True), data_and_splits())
        return cluster.log.trace()

    def test_schema_version_field(self):
        trace = self.trace()
        assert trace["schema"] == TRACE_SCHEMA_VERSION == 2

    def test_key_sets_exact(self):
        trace = self.trace()
        assert set(trace) == self.ROOT_KEYS
        for job in trace["jobs"]:
            assert set(job) == self.JOB_KEYS
            assert job["kind"] == "job"
            assert [s["name"] for s in job["stages"]] == [
                "map",
                "combine",
                "shuffle",
                "reduce",
            ]
            for stage in job["stages"]:
                assert set(stage) == self.STAGE_KEYS
                assert stage["kind"] == "stage"
                for task in stage["tasks"]:
                    assert set(task) == self.TASK_KEYS
                    assert task["kind"] == "task"
                    for attempt in task["attempts"]:
                        assert set(attempt) == self.ATTEMPT_KEYS
                        assert attempt["kind"] == "attempt"

    def test_trace_is_json_serializable_and_priced(self):
        import json

        trace = self.trace()
        json.dumps(trace)
        job = trace["jobs"][0]
        assert job["simulated_seconds"] > 0
        by_name = {s["name"]: s for s in job["stages"]}
        assert by_name["shuffle"]["simulated_seconds"] > 0
        # Combining is free: it runs inside the timed map tasks.
        assert by_name["combine"]["simulated_seconds"] == 0.0


counter_dicts = st.dictionaries(
    st.sampled_from(["a", "b", "c", "map.records", "shuffle.bytes"]),
    st.integers(min_value=-(1 << 30), max_value=1 << 30),
    max_size=5,
)


class TestCountersMergeProperties:
    @given(first=counter_dicts, second=counter_dicts)
    def test_merge_commutes(self, first, second):
        left = Counters(first)
        left.merge(Counters(second))
        right = Counters(second)
        right.merge(Counters(first))
        assert left.as_dict() == right.as_dict()

    @given(first=counter_dicts, second=counter_dicts, third=counter_dicts)
    def test_merge_associates(self, first, second, third):
        bc = Counters(second)
        bc.merge(Counters(third))
        a_bc = Counters(first)
        a_bc.merge(bc)
        ab = Counters(first)
        ab.merge(Counters(second))
        ab.merge(Counters(third))
        assert a_bc.as_dict() == ab.as_dict()

    @given(first=counter_dicts, second=counter_dicts)
    def test_merge_never_drops_keys(self, first, second):
        merged = Counters(first)
        merged.merge(Counters(second))
        assert set(merged.as_dict()) == set(first) | set(second)
        for key in set(first) | set(second):
            assert merged[key] == first.get(key, 0) + second.get(key, 0)


class TestCombinerByteAccounting:
    def run(self, use_combiner: bool):
        cluster = SimulatedCluster()
        result = cluster.run_job(
            CombinableCount(use_combiner=use_combiner), data_and_splits()
        )
        return cluster, result

    def test_combiner_reduces_runlog_shuffle_bytes(self):
        _, plain = self.run(use_combiner=False)
        _, combined = self.run(use_combiner=True)
        assert combined.shuffle_bytes < plain.shuffle_bytes
        # Post-combine: 8 splits x 4 distinct keys x (int key + int count).
        assert combined.shuffle_bytes == 8 * 4 * record_size(0, 1)

    def test_map_stage_traces_precombine_emission(self):
        cluster, result = self.run(use_combiner=True)
        job = cluster.log.trace()["jobs"][0]
        by_name = {s["name"]: s for s in job["stages"]}
        n = 256
        assert by_name["map"]["records_out"] == n  # one record per value
        assert by_name["map"]["bytes_out"] == n * record_size(0, 1)
        assert by_name["combine"]["records_in"] == n
        assert by_name["combine"]["records_out"] == 8 * 4
        assert by_name["combine"]["bytes_out"] == result.shuffle_bytes
        assert by_name["shuffle"]["bytes_out"] == result.shuffle_bytes
        assert job_emitted_bytes(job) == result.shuffle_bytes
        counters = result.counters
        assert counters["combine.input_records"] == n
        assert counters["combine.output_records"] == 8 * 4
        # Post-combine record count, as before (regression-pinned).
        assert counters["map.output_records"] == 8 * 4

    def test_no_combiner_map_equals_shuffle(self):
        cluster, result = self.run(use_combiner=False)
        job = cluster.log.trace()["jobs"][0]
        by_name = {s["name"]: s for s in job["stages"]}
        assert "combine" not in by_name
        assert by_name["map"]["bytes_out"] == by_name["shuffle"]["bytes_out"]
        assert result.counters.get("combine.input_records", 0) == 0


class TestMapOnlyJobs:
    def test_map_only_trace_has_shuffle_stage_with_output_bytes(self):
        class MapOnly(MapReduceJob):
            name = "map-only"
            num_reducers = 0

            def map(self, split):
                yield split.split_id, len(split)

        cluster = SimulatedCluster()
        result = cluster.run_job(MapOnly(), data_and_splits())
        job = cluster.log.trace()["jobs"][0]
        assert [s["name"] for s in job["stages"]] == ["map", "shuffle"]
        assert job_emitted_bytes(job) == result.shuffle_bytes > 0
