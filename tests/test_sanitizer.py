"""Tests for the runtime determinism sanitizer.

Covers three layers: :func:`stable_digest` canonicality (equal values
hash equal across dict/set order and numpy layout; unequal values hash
apart), report collection and comparison, and the end-to-end claims —
the local and process-pool runtimes produce bit-identical sanitizer
reports for the same distributed DP build, and so do the in-memory and
the external (spilling) shuffle.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    Sanitizer,
    compare_reports,
    stable_digest,
)
from repro.core.dgreedy import d_greedy_abs
from repro.core.dindirect import d_indirect_haar
from repro.core.dp_framework import dm_haar_space
from repro.mapreduce import (
    LocalRuntime,
    ProcessPoolRuntime,
    ShuffleConfig,
    SimulatedCluster,
)


@pytest.fixture(autouse=True)
def _no_active_sanitizer():
    # Every test starts and ends with no process-wide sanitizer active.
    sanitizer.deactivate()
    yield
    sanitizer.deactivate()


class TestStableDigest:
    def test_dict_order_cannot_matter(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_set_order_cannot_matter(self):
        assert stable_digest({3, 1, 2}) == stable_digest({2, 3, 1})

    def test_numpy_layout_cannot_matter(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        transposed_twice = arr.T.copy().T  # F-contiguous, same values
        assert not transposed_twice.flags["C_CONTIGUOUS"]
        assert stable_digest(arr) == stable_digest(transposed_twice)

    def test_dtype_is_part_of_the_digest(self):
        assert stable_digest(np.zeros(4, dtype=np.float64)) != stable_digest(
            np.zeros(4, dtype=np.float32)
        )

    def test_type_tags_keep_lookalikes_apart(self):
        assert stable_digest([1, 2]) != stable_digest((1, 2))
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest("1") != stable_digest(1)
        assert stable_digest(True) != stable_digest(1)

    def test_nested_structures_round_trip(self):
        value = {"rows": [np.arange(3), (1, 2.5, None)], "n": 8}
        assert stable_digest(value) == stable_digest(
            {"n": 8, "rows": [np.arange(3), (1, 2.5, None)]}
        )

    def test_float_payload_differs(self):
        assert stable_digest(0.1) != stable_digest(0.2)

    def test_depth_cap_raises(self):
        nested: list = []
        tail = nested
        for _ in range(40):
            inner: list = []
            tail.append(inner)
            tail = inner
        with pytest.raises(ValueError, match="too deeply nested"):
            stable_digest(nested)


class TestSanitizerReports:
    def test_report_shape_and_comparison(self):
        left = Sanitizer(label="local")
        right = Sanitizer(label="process")
        for active in (left, right):
            active.observe_job_output("job-a", [(0, 1.0)])
            active.observe_partitions("job-a", [[(0, 1.0)], [(1, 2.0)]])
            active.observe_kernel_rows(np.arange(4, dtype=np.float64))
        # Labels differ by design; everything hashed must match.
        assert compare_reports(left.report(), right.report()) == []

    def test_comparison_pinpoints_divergence(self):
        left = Sanitizer()
        right = Sanitizer()
        left.observe_job_output("job-a", [(0, 1.0)])
        right.observe_job_output("job-a", [(0, 1.0 + 1e-12)])
        problems = compare_reports(left.report(), right.report())
        assert len(problems) == 1
        assert "job-a" in problems[0]

    def test_kernel_digests_are_order_canonical(self):
        left = Sanitizer()
        right = Sanitizer()
        rows_a = np.arange(3, dtype=np.float64)
        rows_b = np.arange(5, dtype=np.float64)
        left.observe_kernel_rows(rows_a)
        left.observe_kernel_rows(rows_b)
        right.observe_kernel_rows(rows_b)  # reversed collection order
        right.observe_kernel_rows(rows_a)
        assert compare_reports(left.report(), right.report()) == []

    def test_concurrent_observation_is_safe(self):
        active = Sanitizer()

        def observe(worker: int) -> None:
            for i in range(50):
                active.observe_kernel_rows(np.full(4, worker * 100 + i))

        workers = [threading.Thread(target=observe, args=(w,)) for w in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(active.report()["kernel_rows"]) == 200

    def test_activate_is_exclusive(self):
        sanitizer.activate(Sanitizer())
        with pytest.raises(RuntimeError, match="already active"):
            sanitizer.activate(Sanitizer())
        assert sanitizer.deactivate() is not None
        assert sanitizer.current() is None

    def test_write_and_reload(self, tmp_path):
        active = Sanitizer(label="local")
        active.observe_job_output("job-a", [(0, 1.0)])
        path = tmp_path / "report.json"
        active.write(path)
        loaded = json.loads(path.read_text())
        assert compare_reports(active.report(), loaded) == []


class TestEndToEnd:
    def _sanitized_build(self, runtime, build=None) -> dict:
        rng = np.random.default_rng(23)
        data = rng.integers(0, 50, size=128).astype(np.float64)
        cluster = SimulatedCluster(runtime=runtime)
        active = sanitizer.activate(Sanitizer())
        try:
            if build is None:
                dm_haar_space(data, 6.0, 1.0, cluster, subtree_leaves=16)
            else:
                build(data, 16, cluster)
        finally:
            sanitizer.deactivate()
        return active.report()

    def test_local_and_process_runtimes_are_bit_identical(self):
        local = self._sanitized_build(LocalRuntime())
        process = self._sanitized_build(ProcessPoolRuntime(max_workers=2))
        assert local["jobs"], "the build must have observed MapReduce jobs"
        assert local["kernel_rows"], "the build must have observed kernel rows"
        assert compare_reports(local, process) == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda data, budget, cluster: d_greedy_abs(
                data, budget, cluster, base_leaves=16
            ),
            # dm_haar_space's layer jobs are map-only; DIndirectHaar adds
            # the reducing CON and bound jobs in front of the same layers.
            lambda data, budget, cluster: d_indirect_haar(
                data, budget, 1.0, cluster, subtree_leaves=16
            ),
        ],
        ids=["dgreedy-abs", "dindirect-haar"],
    )
    def test_memory_and_external_shuffles_are_bit_identical(self, build):
        # Partitions are hashed in the order the reducers consume them, so
        # the report cannot depend on whether the shuffle spilled.
        external = ShuffleConfig(mode="external", buffer_bytes=256)
        memory_report = self._sanitized_build(LocalRuntime(), build)
        external_report = self._sanitized_build(LocalRuntime(shuffle=external), build)
        assert any("partitions" in job for job in memory_report["jobs"])
        assert compare_reports(memory_report, external_report) == []
