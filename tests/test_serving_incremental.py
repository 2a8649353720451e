"""Differential suite: incremental re-thresholding == from-scratch rebuild.

The serving layer's correctness anchor.  Three families:

* **Hypothesis differential** — random create/append sequences run
  through an incremental store, a scratch-mode store (same appends,
  ``full_rebuild=True``), and a fresh store built once on the
  concatenated data.  All three must publish *bit-identical* synopses
  (digest equality) on both tiers — the DP path at ``rho = 0`` exactly
  as the tentpole demands, and the compositional greedy tier because
  every cached sub-tree run is a pure function of its slice.  Every
  point and range query must also answer within the published
  per-series guarantee of the true (appended) data.
* **Boundary cases** — appends straddling base-sub-tree boundaries and
  appends growing ``N`` past the current power of two (full-rebuild
  fallback), pinned deterministically.
* **Runtime matrix** — the DP tier's incremental rebuild is digest-
  identical on the local and process runtimes (DP jobs are in-process
  under both runtimes, so the cache keys line up).

Sizes are kept tiny (N <= 256, sub-trees of 4-8 leaves) so the DP tier
stays fast; the scale story lives in ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dgreedy import base_subtree_greedy, root_subtree_greedy
from repro.core.partitioning import LayerPlan, dirty_base_range, dirty_subtrees
from repro.core.thresholding import serving_error_target
from repro.exceptions import InvalidInputError
from repro.mapreduce import RUNTIMES, SimulatedCluster, make_runtime
from repro.serving import (
    DPMaintainer,
    GreedyMaintainer,
    Query,
    ShardedSynopsisStore,
)

SMALL = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

values = st.integers(min_value=-100, max_value=100).map(float)

#: An initial series plus 1-3 append blocks of arbitrary (small) sizes —
#: sizes are *not* sub-tree aligned, so straddling appends are the norm.
append_sequences = st.tuples(
    st.lists(values, min_size=5, max_size=40),
    st.lists(st.lists(values, min_size=1, max_size=24), min_size=1, max_size=3),
)


def _drive(tier_kwargs, initial, blocks):
    """Run the same sequence through incremental / scratch / fresh stores."""
    incremental = ShardedSynopsisStore(shards=2)
    scratch = ShardedSynopsisStore(shards=2)
    incremental.create("s", initial, **tier_kwargs)
    scratch.create("s", initial, **tier_kwargs)
    for block in blocks:
        inc_version = incremental.append("s", block)
        scr_version = scratch.append("s", block, full_rebuild=True)
        assert inc_version.digest == scr_version.digest, (
            f"diverged at version {inc_version.version}: "
            f"{inc_version.stats} vs {scr_version.stats}"
        )
    fresh = ShardedSynopsisStore(shards=2)
    full = np.concatenate([np.asarray(initial), *map(np.asarray, blocks)])
    fresh_version = fresh.create("s", full, **tier_kwargs)
    assert incremental.snapshot("s").digest == fresh_version.digest
    return incremental, full


def _assert_guarantee(store, name, data):
    """Every point/range answer within the published guarantee."""
    snapshot = store.snapshot(name)
    guarantee = snapshot.guarantee
    assert np.isfinite(guarantee)
    n = len(data)
    indices = sorted({0, n // 2, n - 1, min(7, n - 1)})
    queries = [Query("point", name, index=i) for i in indices]
    queries.append(Query("range_sum", name, lo=0, hi=n - 1))
    results = store.batch(queries)
    for i, result in zip(indices, results[: len(indices)]):
        assert abs(result.value - data[i]) <= guarantee + 1e-9
        assert result.lower - 1e-9 <= data[i] <= result.upper + 1e-9
    exact_sum = float(np.sum(data))
    sum_result = results[-1]
    assert abs(sum_result.value - exact_sum) <= n * guarantee + 1e-6
    assert sum_result.lower - 1e-6 <= exact_sum <= sum_result.upper + 1e-6


class TestGreedyDifferential:
    @SMALL
    @given(append_sequences)
    def test_incremental_matches_scratch_and_fresh(self, sequence):
        initial, blocks = sequence
        store, full = _drive(
            {"tier": "greedy", "budget": 12, "base_leaves": 4}, initial, blocks
        )
        _assert_guarantee(store, "s", full)

    @SMALL
    @given(append_sequences)
    def test_generous_budget_is_near_exact(self, sequence):
        initial, blocks = sequence
        store, full = _drive(
            {"tier": "greedy", "budget": 512, "base_leaves": 8}, initial, blocks
        )
        # With the budget covering every node the decomposition is exact.
        assert store.snapshot("s").guarantee <= 1e-9


class TestDPDifferential:
    @SMALL
    @given(append_sequences)
    def test_incremental_matches_scratch_and_fresh_at_rho_zero(self, sequence):
        initial, blocks = sequence
        store, full = _drive(
            {"tier": "dp", "epsilon": 3.0, "subtree_leaves": 4}, initial, blocks
        )
        _assert_guarantee(store, "s", full)

    def test_derived_error_target_is_honored(self):
        rng = np.random.default_rng(5)
        data = rng.normal(20, 6, 60)
        store = ShardedSynopsisStore()
        version = store.create("s", data, tier="dp", budget=16, subtree_leaves=8)
        padded = np.zeros(version.synopsis.n)
        padded[: data.size] = data
        assert version.synopsis.max_abs_error(padded) <= version.guarantee + 1e-9
        assert version.guarantee == pytest.approx(
            serving_error_target(data, 16), rel=1e-12
        )


class TestBoundaries:
    def test_append_straddles_subtree_boundary(self):
        # Buffer n=16 with base_leaves=4: sub-trees own leaves [0,4),
        # [4,8), [8,12), [12,16).  Appending 4 values at length 10 fills
        # leaves 10..13, dirtying sub-trees 2 and 3 but not 0 and 1.
        initial = [float(v) for v in range(10)]
        store = ShardedSynopsisStore()
        store.create("s", initial, tier="greedy", budget=8, base_leaves=4)
        version = store.append("s", [20.0, 21.0, 22.0, 23.0])
        assert version.stats.mode == "incremental"
        assert version.stats.dirty_subtrees == 2
        assert version.stats.reused_subtrees == 2

    def test_append_grows_past_power_of_two(self):
        initial = list(range(30))  # buffer n=32
        store = ShardedSynopsisStore()
        scratch = ShardedSynopsisStore()
        store.create("s", [float(v) for v in initial], tier="greedy", budget=10,
                     base_leaves=4)
        scratch.create("s", [float(v) for v in initial], tier="greedy", budget=10,
                       base_leaves=4)
        version = store.append("s", [50.0, 51.0, 52.0])  # 33 > 32 -> n=64
        baseline = scratch.append("s", [50.0, 51.0, 52.0], full_rebuild=True)
        assert version.synopsis.n == 64
        assert version.stats.mode == "full"
        assert version.digest == baseline.digest
        # the next in-buffer append is incremental again
        version = store.append("s", [53.0])
        baseline = scratch.append("s", [53.0], full_rebuild=True)
        assert version.stats.mode == "incremental"
        assert version.digest == baseline.digest

    def test_dp_growth_resets_the_row_cache(self):
        store = ShardedSynopsisStore()
        scratch = ShardedSynopsisStore()
        kwargs = {"tier": "dp", "epsilon": 2.0, "subtree_leaves": 4}
        store.create("s", [float(v % 7) for v in range(14)], **kwargs)
        scratch.create("s", [float(v % 7) for v in range(14)], **kwargs)
        grown = store.append("s", [9.0, 8.0, 7.0])  # 17 > 16 -> n=32
        baseline = scratch.append("s", [9.0, 8.0, 7.0], full_rebuild=True)
        assert grown.synopsis.n == 32
        assert grown.stats.mode == "full"
        assert grown.digest == baseline.digest

    def test_tiny_series_use_the_centralized_path(self):
        for tier_kwargs in (
            {"tier": "greedy", "budget": 2},
            {"tier": "dp", "epsilon": 1.0},
        ):
            store = ShardedSynopsisStore()
            version = store.create("s", [4.0], **tier_kwargs)
            assert version.stats.mode == "centralized"
            assert store.point("s", 0) == pytest.approx(4.0, abs=1.0)


class TestRuntimeMatrix:
    @pytest.mark.parametrize("runtime", sorted(RUNTIMES))
    def test_dp_digests_identical_across_runtimes(self, runtime):
        rng = np.random.default_rng(11)
        initial = rng.normal(10, 3, 50)
        blocks = [rng.normal(12, 2, 9), rng.normal(8, 4, 13)]
        cluster = SimulatedCluster(runtime=make_runtime(runtime))
        store = ShardedSynopsisStore(cluster=cluster)
        store.create("s", initial, tier="dp", epsilon=2.5, subtree_leaves=8)
        digests = [store.snapshot("s").digest]
        for block in blocks:
            digests.append(store.append("s", block).digest)
        # Compare against the local-runtime reference sequence.
        reference = ShardedSynopsisStore()
        reference.create("s", initial, tier="dp", epsilon=2.5, subtree_leaves=8)
        expected = [reference.snapshot("s").digest]
        for block in blocks:
            expected.append(reference.append("s", block).digest)
        assert digests == expected


class TestDirtyRangeHelpers:
    def test_dirty_base_range_covers_exactly_the_touched_subtrees(self):
        assert dirty_base_range(32, 4, 0, 32) == (0, 8)
        assert dirty_base_range(32, 4, 5, 6) == (1, 2)
        assert dirty_base_range(32, 4, 3, 9) == (0, 3)
        with pytest.raises(InvalidInputError):
            dirty_base_range(32, 4, 9, 9)
        with pytest.raises(InvalidInputError):
            dirty_base_range(32, 3, 0, 8)

    def test_dirty_subtrees_nest_upward(self):
        plan = LayerPlan.uniform(64, 2)

        def leaf_span(spec):
            level = spec.root.bit_length() - 1
            span = 64 >> level
            start = (spec.root - (1 << level)) * span
            return start, start + span

        for level_subtrees in dirty_subtrees(plan, 17, 23):
            spans = [leaf_span(spec) for spec in level_subtrees]
            # Each layer's dirty slice covers the appended leaf range...
            assert min(lo for lo, _ in spans) <= 17
            assert max(hi for _, hi in spans) >= 23
            # ...and is contiguous.
            assert all(
                spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1)
            )


class TestMaintainerEntryPoints:
    def test_base_subtree_greedy_is_exact_with_full_budget(self):
        data = np.array([3.0, -1.0, 4.0, 1.0])
        retained, error, average = base_subtree_greedy(data, budget=3)
        assert error == pytest.approx(0.0)
        assert average == pytest.approx(float(np.mean(data)))

    def test_root_subtree_greedy_budget_zero_keeps_nothing(self):
        retained, error = root_subtree_greedy([5.0, 5.0, 5.0, 5.0], budget=0)
        assert retained == {}
        assert error == pytest.approx(5.0)

    def test_maintainers_validate_inputs(self):
        with pytest.raises(InvalidInputError):
            GreedyMaintainer(budget=-1)
        with pytest.raises(InvalidInputError):
            GreedyMaintainer(budget=4, base_leaves=3)
        with pytest.raises(InvalidInputError):
            DPMaintainer(epsilon=-1.0)
        with pytest.raises(InvalidInputError):
            DPMaintainer(epsilon=1.0, delta=0.0)
        maintainer = GreedyMaintainer(budget=4)
        with pytest.raises(InvalidInputError):
            maintainer.build(np.zeros(12))  # not a power of two
