"""Tests for the DP parallelization framework and DMHaarSpace (Section 4)."""

import numpy as np
import pytest

from repro.algos.minhaarspace import MRow, min_haar_space
from repro.core.dp_framework import LAYER_RECORD_OVERHEAD, LayeredDPDriver, dm_haar_space
from repro.exceptions import InfeasibleErrorBound, InvalidInputError
from repro.mapreduce import ClusterConfig, SimulatedCluster


def random_data(n, seed=0, high=200):
    return np.random.default_rng(seed).integers(0, high, size=n).astype(float)


class TestDMHaarSpaceEquivalence:
    @pytest.mark.parametrize("subtree_leaves", [4, 8, 32])
    def test_matches_centralized_exactly(self, subtree_leaves):
        data = random_data(256, seed=1)
        for epsilon in (5.0, 20.0, 60.0):
            dist = dm_haar_space(data, epsilon, 1.0, SimulatedCluster(), subtree_leaves)
            cent = min_haar_space(data, epsilon, 1.0)
            assert dist.size == cent.size
            assert dist.max_error == pytest.approx(cent.max_error, abs=1e-12)
            assert dist.synopsis.same_coefficients(cent.synopsis, tolerance=1e-12)

    def test_partition_independent(self):
        # The sub-tree height must not change the result (Figure 5a's
        # quality-side premise).
        data = random_data(512, seed=2)
        results = [
            dm_haar_space(data, 15.0, 1.0, SimulatedCluster(), leaves).size
            for leaves in (4, 16, 64, 256)
        ]
        assert len(set(results)) == 1

    def test_error_bound_respected(self):
        data = random_data(128, seed=3)
        solution = dm_haar_space(data, 10.0, 0.5, SimulatedCluster(), 16)
        assert solution.synopsis.max_abs_error(data) <= 10.0 + 1e-9

    def test_single_point(self):
        solution = dm_haar_space([42.0], 1.0, 1.0, SimulatedCluster(), 4)
        assert solution.size == 1

    def test_small_data_with_large_subtrees(self):
        data = random_data(16, seed=4)
        solution = dm_haar_space(data, 20.0, 1.0, SimulatedCluster(), 1024)
        cent = min_haar_space(data, 20.0, 1.0)
        assert solution.size == cent.size

    def test_infeasible_bound_propagates(self):
        # epsilon = 0 with off-grid values can never be satisfied (the
        # delta auto-refinement only engages for positive epsilon).
        with pytest.raises(InfeasibleErrorBound):
            dm_haar_space([10.5, 20.5, 30.5, 40.5], 0.0, 1.0, SimulatedCluster(), 2)

    def test_delta_clamp_rescues_tight_bounds(self):
        # With the Section 6.2-style clamp, a coarse delta no longer makes
        # tight-but-satisfiable bounds infeasible on deep trees.
        data = random_data(256, seed=11, high=50)
        solution = dm_haar_space(data, 2.0, 10.0, SimulatedCluster(), 16)
        assert solution.synopsis.max_abs_error(data) <= 2.0 + 1e-9

    def test_skip_construction(self):
        data = random_data(64, seed=5)
        probe = dm_haar_space(data, 15.0, 1.0, SimulatedCluster(), 8, construct=False)
        full = dm_haar_space(data, 15.0, 1.0, SimulatedCluster(), 8, construct=True)
        assert probe.size == full.size
        assert probe.synopsis.size == 0  # nothing materialized
        assert full.synopsis.size == full.size

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            dm_haar_space([1.0, 2.0, 3.0], 1.0, 1.0)


class TestFrameworkMechanics:
    def test_job_count_matches_layers(self):
        data = random_data(256, seed=6)  # log N = 8
        cluster = SimulatedCluster()
        dm_haar_space(data, 20.0, 1.0, cluster, subtree_leaves=4)  # h=2 -> 4 layers
        # 4 bottom-up + 4 top-down jobs.
        assert cluster.log.job_count == 8

    def test_communication_shrinks_with_larger_subtrees(self):
        # Eq. 6: shuffle volume ~ N * max|M| / 2^h.
        data = random_data(1024, seed=7)
        small = SimulatedCluster()
        dm_haar_space(data, 20.0, 1.0, small, subtree_leaves=4, construct=False)
        large = SimulatedCluster()
        dm_haar_space(data, 20.0, 1.0, large, subtree_leaves=64, construct=False)
        assert large.log.shuffle_bytes < small.log.shuffle_bytes

    def test_bottom_up_records_are_the_papers_pairs(self):
        # Eq. 5: each sub-tree of a bottom-up layer ships one record,
        # (parent, (root, M-row)), priced at the record template's
        # overhead plus the row's own bytes.
        data = random_data(256, seed=14)
        cluster = SimulatedCluster()
        dm_haar_space(data, 20.0, 1.0, cluster, 16)  # h=4, log N=8: 2 bands
        jobs = [job for job in cluster.log.jobs if job.trace.stage_label == "dp.bottom_up"]
        assert [len(job.output) for job in jobs] == [16, 1]
        for job in jobs:
            for parent, value in job.output:
                assert type(parent) is int and type(value) is tuple and len(value) == 2
                root, row = value
                assert type(root) is int and isinstance(row, MRow)
            row_bytes = sum(row.serialized_size() for _, (_, row) in job.output)
            assert job.shuffle_bytes == len(job.output) * LAYER_RECORD_OVERHEAD + row_bytes

    def test_row_store_holds_every_subtree(self):
        data = random_data(64, seed=8)
        driver = LayeredDPDriver(20.0, 1.0, SimulatedCluster(), 8)
        result = driver.bottom_up(data)
        # h=3, log N=6: layer 0 has 8 sub-trees, layer 1 has 1.
        layer0 = [key for key in result.row_store if key[0] == 0]
        layer1 = [key for key in result.row_store if key[0] == 1]
        assert len(layer0) == 8 and len(layer1) == 1

    def test_driver_validates_subtree_leaves(self):
        with pytest.raises(InvalidInputError):
            LayeredDPDriver(1.0, 1.0, SimulatedCluster(), 3)

    def test_map_slot_scaling_affects_simulated_time(self):
        data = random_data(1024, seed=9)
        fast = SimulatedCluster(ClusterConfig(map_slots=40))
        slow = SimulatedCluster(ClusterConfig(map_slots=2))
        dm_haar_space(data, 20.0, 1.0, fast, subtree_leaves=16, construct=False)
        dm_haar_space(data, 20.0, 1.0, slow, subtree_leaves=16, construct=False)
        assert slow.simulated_seconds > fast.simulated_seconds
