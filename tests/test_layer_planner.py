"""Adaptive layer planner and speculative straggler re-execution.

Two families of properties:

* **Plans partition the tree.**  Any valid height schedule — uniform or
  not — must cut the detail-node tree into disjoint bands that cover it
  exactly, with each band's sub-trees stitching onto the next band's
  roots via ``child_roots``.  The planner must emit only valid plans,
  pick the predicted-makespan optimum over the model, and resolve
  deterministically; and because a plan only moves work, every plan
  (auto included) must yield bit-identical synopses at ``rho = 0``
  on both runtimes and shuffle modes.

* **Speculation never changes results and never hurts.**  The simulated
  scheduler's backup policy must collapse to the plain FIFO makespan
  when nothing is eligible, rescue a genuine straggler, and annotate the
  trace (speculative/canceled attempt spans, ``speculation.*``
  counters) without disturbing measured wall totals — re-pricing an
  already-annotated trace must be stable.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.minhaarspace import max_row_entries
from repro.core.dp_framework import dm_haar_space, resolve_layer_plan
from repro.core.layer_planner import (
    WorkModel,
    plan_layers_auto,
    predict_plan_seconds,
)
from repro.core.partitioning import LayerPlan, parse_layer_plan
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import (
    ClusterConfig,
    SimulatedCluster,
    makespan,
    price_log,
    speculative_makespan,
)
from repro.mapreduce import runtime as mapreduce_runtime
from repro.mapreduce.runtime import FailureInjector, LocalRuntime
from repro.mapreduce.shuffle import ShuffleConfig
from repro.mapreduce.cluster import make_runtime
from repro.wavelet.error_tree import subtree_nodes


@st.composite
def height_schedules(draw):
    """A random (log_n, heights, driver_top) with heights tiling log_n."""
    log_n = draw(st.integers(min_value=2, max_value=10))
    heights = []
    remaining = log_n
    while remaining:
        h = draw(st.integers(min_value=1, max_value=remaining))
        heights.append(h)
        remaining -= h
    driver_top = len(heights) >= 2 and draw(st.booleans())
    return log_n, tuple(heights), driver_top


class TestPlanPartitioning:
    @given(height_schedules())
    @settings(max_examples=60)
    def test_bands_cover_detail_tree_exactly_once(self, schedule):
        log_n, heights, driver_top = schedule
        n = 1 << log_n
        plan = LayerPlan(n=n, heights=heights, driver_top=driver_top)
        seen = set()
        for layer in plan.layers():
            for spec in layer.subtrees:
                height = spec.leaf_count.bit_length() - 1
                for node in subtree_nodes(spec.root, n):
                    if node.bit_length() - spec.root.bit_length() < height:
                        assert node not in seen
                        seen.add(node)
        assert seen == set(range(1, n))

    @given(height_schedules())
    @settings(max_examples=60)
    def test_child_roots_stitch_adjacent_bands(self, schedule):
        log_n, heights, driver_top = schedule
        n = 1 << log_n
        layers = LayerPlan(n=n, heights=heights, driver_top=driver_top).layers()
        for below, above in zip(layers, layers[1:]):
            roots_below = [spec.root for spec in below.subtrees]
            stitched = [
                root
                for spec in above.subtrees
                for root in spec.child_roots()
            ]
            assert sorted(stitched) == sorted(roots_below)
        assert layers[-1].subtrees[0].root == 1
        # Eq. 4: a band whose roots sit at level u has 2^u sub-trees.
        for layer in layers:
            level = layers and layer.subtrees[0].root.bit_length() - 1
            assert len(layer.subtrees) == 1 << level

    @given(height_schedules())
    @settings(max_examples=60)
    def test_describe_parse_round_trip(self, schedule):
        log_n, heights, driver_top = schedule
        n = 1 << log_n
        plan = LayerPlan(n=n, heights=heights, driver_top=driver_top)
        assert parse_layer_plan(plan.describe(), n) == plan

    def test_invalid_plans_rejected(self):
        with pytest.raises(InvalidInputError):
            LayerPlan(n=1 << 6, heights=(3, 2))  # does not tile 6 levels
        with pytest.raises(InvalidInputError):
            LayerPlan(n=1 << 6, heights=(6,), driver_top=True)  # nothing below
        with pytest.raises(InvalidInputError):
            parse_layer_plan("auto", 1 << 6)  # planner's job, not the parser's
        with pytest.raises(InvalidInputError):
            parse_layer_plan("h=3@driver", 1 << 6)
        with pytest.raises(InvalidInputError):
            parse_layer_plan("3,pear", 1 << 6)

    def test_uniform_matches_legacy_grammar(self):
        plan = parse_layer_plan("h=4", 1 << 10)
        assert plan == LayerPlan.uniform(1 << 10, 4)
        assert plan.heights == (4, 4, 2)
        assert plan.distributed_rounds == 3


class TestPlanner:
    CONFIG = ClusterConfig(
        map_slots=40,
        reduce_slots=16,
        task_startup_seconds=0.01,
        job_startup_seconds=0.2,
    )

    def test_deterministic(self):
        first = plan_layers_auto(1 << 20, 60.0, 1.0, self.CONFIG)
        second = plan_layers_auto(1 << 20, 60.0, 1.0, self.CONFIG)
        assert first == second

    @pytest.mark.parametrize("log_n", [2, 5, 12, 16, 20])
    def test_plans_are_valid_and_tile(self, log_n):
        plan = plan_layers_auto(1 << log_n, 25.0, 0.5, self.CONFIG)
        assert plan.n == 1 << log_n
        assert sum(plan.heights) == log_n
        # Validity: layers() would raise on a malformed plan.
        assert plan.layers()[-1].subtrees[0].root == 1

    @pytest.mark.parametrize("log_n", [6, 10, 14, 20])
    def test_beats_or_matches_every_uniform_height(self, log_n):
        n = 1 << log_n
        auto = plan_layers_auto(n, 60.0, 1.0, self.CONFIG)
        predicted = predict_plan_seconds(auto, 60.0, 1.0, self.CONFIG)
        for h in range(1, log_n + 1):
            uniform = LayerPlan.uniform(n, h)
            assert predicted <= predict_plan_seconds(
                uniform, 60.0, 1.0, self.CONFIG
            ) * (1 + 1e-12)

    def test_optimal_over_exhaustive_compositions(self):
        # Small enough to enumerate every schedule exactly.
        n, log_n = 1 << 6, 6
        auto = plan_layers_auto(n, 10.0, 1.0, self.CONFIG)
        predicted = predict_plan_seconds(auto, 10.0, 1.0, self.CONFIG)

        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        best = math.inf
        for heights in compositions(log_n):
            for driver_top in ([False, True] if len(heights) >= 2 else [False]):
                plan = LayerPlan(n=n, heights=heights, driver_top=driver_top)
                best = min(
                    best, predict_plan_seconds(plan, 10.0, 1.0, self.CONFIG)
                )
        assert predicted == pytest.approx(best, rel=1e-12)

    def test_wider_rows_penalize_driver_band(self):
        # W_max enters every combine; the driver cap must not be free.
        entries = max_row_entries(60.0, 1.0, 1 << 12)
        assert entries == 122
        assert max_row_entries(600.0, 1.0, 1 << 12) > entries

    def test_resolve_layer_plan_precedence(self):
        cluster = SimulatedCluster(self.CONFIG)
        explicit = LayerPlan(n=1 << 8, heights=(5, 3))
        assert resolve_layer_plan(explicit, 1 << 8, 10.0, 1.0, cluster) is explicit
        parsed = resolve_layer_plan("5,3", 1 << 8, 10.0, 1.0, cluster)
        assert parsed == explicit
        assert resolve_layer_plan(None, 1 << 8, 10.0, 1.0, cluster) is None
        auto = resolve_layer_plan("auto", 1 << 8, 10.0, 1.0, cluster)
        assert auto == plan_layers_auto(1 << 8, 10.0, 1.0, self.CONFIG)


class TestPlanBitIdentity:
    """Plans move work between rounds; they must never change the answer."""

    N = 1 << 10
    EPSILON = 40.0
    DELTA = 1.0

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(17)
        return rng.uniform(0, 1000, self.N)

    @pytest.fixture(scope="class")
    def reference(self, data):
        solution = dm_haar_space(
            data, self.EPSILON, self.DELTA, SimulatedCluster(), subtree_leaves=128
        )
        return dict(solution.synopsis.coefficients), solution.max_error

    @pytest.mark.parametrize("spec", ["auto", "h=3", "5,5", "4,4,2@driver", "10"])
    def test_every_plan_matches_legacy(self, spec, data, reference):
        solution = dm_haar_space(
            data,
            self.EPSILON,
            self.DELTA,
            SimulatedCluster(),
            subtree_leaves=128,
            layer_plan=spec,
        )
        coefficients, max_error = reference
        assert dict(solution.synopsis.coefficients) == coefficients
        assert solution.max_error == max_error

    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    @pytest.mark.parametrize("shuffle_mode", ["memory", "external"])
    def test_auto_plan_runtime_shuffle_matrix(
        self, runtime_name, shuffle_mode, data, reference
    ):
        runtime = make_runtime(
            runtime_name, shuffle=ShuffleConfig(mode=shuffle_mode)
        )
        cluster = SimulatedCluster(runtime=runtime)
        solution = dm_haar_space(
            data,
            self.EPSILON,
            self.DELTA,
            cluster,
            subtree_leaves=128,
            layer_plan="auto",
        )
        coefficients, max_error = reference
        assert dict(solution.synopsis.coefficients) == coefficients
        assert solution.max_error == max_error
        # The resolved plan is recorded in the trace meta for bound checks.
        recorded = cluster.log.meta["layer_plan"]
        assert parse_layer_plan(recorded, self.N) == plan_layers_auto(
            self.N, self.EPSILON, self.DELTA, ClusterConfig()
        )


uniform_tasks = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
    ).map(lambda pair: (max(pair), min(pair))),
    min_size=1,
    max_size=40,
)


class TestSpeculativeMakespan:
    def test_nothing_eligible_matches_plain_makespan(self):
        tasks = [(1.0, 1.0)] * 9
        schedule = speculative_makespan(tasks, 4, slowdown=1e9)
        assert schedule.seconds == makespan([t for t, _ in tasks], 4)
        assert schedule.backups == []

    def test_straggler_is_rescued(self):
        # 8 clean 1s tasks plus one whose primary lost two near-complete
        # attempts: the backup launches once the 1.5x-quantile cut passes
        # and finishes well before the struggling primary would.
        tasks = [(1.0, 1.0)] * 8 + [(10.0, 1.0)]
        schedule = speculative_makespan(tasks, 4)
        legacy = makespan([t for t, _ in tasks], 4)
        assert schedule.seconds < legacy
        winners = [b for b in schedule.backups if b.won]
        assert len(winners) == 1
        assert winners[0].task_index == 8

    @given(uniform_tasks, st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    def test_never_worse_than_fifo(self, tasks, slots):
        schedule = speculative_makespan(tasks, slots)
        assert schedule.seconds <= makespan([t for t, _ in tasks], slots) + 1e-9

    @given(uniform_tasks, st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    def test_deterministic(self, tasks, slots):
        first = speculative_makespan(tasks, slots)
        second = speculative_makespan(tasks, slots)
        assert first.seconds == second.seconds
        assert first.backups == second.backups

    def test_backups_charge_slot_occupancy(self):
        tasks = [(1.0, 1.0)] * 8 + [(10.0, 1.0)]
        schedule = speculative_makespan(tasks, 4)
        for backup in schedule.backups:
            assert backup.occupied_seconds > 0.0


class TestSpeculationEndToEnd:
    CONFIG = ClusterConfig(
        task_startup_seconds=0.01, job_startup_seconds=0.2, speculation=True
    )

    def _run(self, probability=0.2):
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 1000, 1 << 12)
        injector = FailureInjector(probability=probability, seed=11, max_attempts=10)
        cluster = SimulatedCluster(
            self.CONFIG, runtime=LocalRuntime(failure_injector=injector)
        )
        solution = dm_haar_space(
            data, 60.0, 1.0, cluster, subtree_leaves=256, layer_plan="auto"
        )
        return cluster, solution, data

    #: Extra run time of one bottom-band map task.  The other DP tasks take
    #: tens of milliseconds, so this task always runs past the backup
    #: threshold (1.5x the 75th percentile of completed task times).
    STRAGGLER_SECONDS = 0.5

    def test_trace_annotations_and_counters(self, monkeypatch):
        # One task runs far longer than the rest by construction, so a
        # backup launches whatever the measured times of the others.
        run_map_task = mapreduce_runtime.run_map_task
        slowed: list[str] = []

        def straggling_map_task(job, split):
            if job.stage_label == "dp.bottom_up" and not slowed:
                slowed.append(f"{job.name}/map-{split.split_id}")
                time.sleep(self.STRAGGLER_SECONDS)
            return run_map_task(job, split)

        monkeypatch.setattr(mapreduce_runtime, "run_map_task", straggling_map_task)
        cluster, _, _ = self._run()
        straggler = [
            task
            for job in cluster.log.jobs
            if job.trace is not None
            for stage in job.trace.stages
            for task in stage.tasks
            if task.name in slowed
        ]
        assert straggler and any(a.speculative for a in straggler[0].attempts)
        launched = won = 0
        for job in cluster.log.jobs:
            launched += job.counters.get("speculation.backups_launched", 0)
            won += job.counters.get("speculation.backups_won", 0)
            assert job.trace is not None
            for stage in job.trace.stages:
                for task in stage.tasks:
                    speculative = [a for a in task.attempts if a.speculative]
                    for attempt in speculative:
                        # A losing backup is canceled; a winning one
                        # cancels the primary instead.
                        if not attempt.canceled:
                            assert any(
                                a.canceled
                                for a in task.attempts
                                if not a.speculative
                            )
                    # Backups never contaminate the measured wall total.
                    assert task.wall_seconds == sum(
                        a.wall_seconds
                        for a in task.attempts
                        if not a.speculative
                    )
        trace_backups = sum(
            1
            for job in cluster.log.jobs
            if job.trace is not None
            for stage in job.trace.stages
            for task in stage.tasks
            for attempt in task.attempts
            if attempt.speculative
        )
        assert launched == trace_backups > 0
        assert 0 <= won <= launched

    def test_results_identical_and_never_slower(self):
        cluster, solution, data = self._run()
        clean = dm_haar_space(
            data,
            60.0,
            1.0,
            SimulatedCluster(self.CONFIG.scaled(speculation=False)),
            subtree_leaves=256,
            layer_plan="auto",
        )
        assert dict(solution.synopsis.coefficients) == dict(
            clean.synopsis.coefficients
        )
        without = price_log(cluster.log, self.CONFIG.scaled(speculation=False))
        assert cluster.log.simulated_seconds <= without + 1e-9

    def test_repricing_annotated_log_is_stable(self):
        cluster, _, _ = self._run()
        first = price_log(cluster.log, self.CONFIG)
        second = price_log(cluster.log, self.CONFIG)
        assert first == second
        assert first == pytest.approx(cluster.log.simulated_seconds)
