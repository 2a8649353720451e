"""Tests for DGreedyAbs / DGreedyRel (Section 5) — including the paper's
headline quality claim: no degradation versus the centralized greedy."""

import math

import numpy as np
import pytest

from repro.algos.greedy_abs import greedy_abs, greedy_abs_order
from repro.algos.greedy_rel import greedy_rel
from repro.core.dgreedy import (
    _bucketized_histogram,
    _candidate_incoming_errors,
    d_greedy_abs,
    d_greedy_rel,
)
from repro.exceptions import InvalidInputError
from repro.mapreduce import SimulatedCluster
from repro.wavelet.transform import haar_transform
from tests._reference import scalar_bucketized_histogram


def uniform_data(n, seed=0, high=1000.0):
    return np.random.default_rng(seed).uniform(0, high, size=n)


class TestQualityClaim:
    """Figure 8b/9b: DGreedyAbs achieves the same max-abs as GreedyAbs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_no_quality_degradation_uniform(self, seed):
        data = uniform_data(512, seed)
        budget = 64
        dist = d_greedy_abs(data, budget, base_leaves=64).max_abs_error(data)
        cent = greedy_abs(data, budget).max_abs_error(data)
        assert dist <= cent * 1.01 + 1e-9

    def test_no_quality_degradation_heavy_tailed(self):
        rng = np.random.default_rng(42)
        data = np.exp(rng.normal(5, 1.2, size=512))
        budget = 64
        dist = d_greedy_abs(data, budget, base_leaves=64).max_abs_error(data)
        cent = greedy_abs(data, budget).max_abs_error(data)
        assert dist <= cent * 1.01 + 1e-9

    @pytest.mark.parametrize("base_leaves", [16, 32, 128])
    def test_quality_stable_across_subtree_sizes(self, base_leaves):
        data = uniform_data(512, seed=3)
        budget = 64
        errors = d_greedy_abs(data, budget, base_leaves=base_leaves).max_abs_error(data)
        cent = greedy_abs(data, budget).max_abs_error(data)
        assert errors <= cent * 1.02 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_rel_no_quality_degradation(self, seed):
        rng = np.random.default_rng(seed)
        data = np.exp(rng.normal(3, 1.5, size=256))
        budget = 32
        dist = d_greedy_rel(data, budget, base_leaves=32).max_rel_error(data)
        cent = greedy_rel(data, budget).max_rel_error(data)
        assert dist <= cent * 1.01 + 1e-12

    def test_rel_degenerate_empty_synopsis(self):
        # With values >= 1 and S = 1, the empty synopsis already achieves
        # max-rel 1.0; the distributed algorithm must find it too (this is
        # the non-monotonicity case the cut-error refinement handles).
        data = uniform_data(256, seed=9) + 1.0
        dist = d_greedy_rel(data, 32, base_leaves=32)
        cent = greedy_rel(data, 32)
        assert cent.max_rel_error(data) == pytest.approx(1.0)
        assert dist.max_rel_error(data) <= 1.0 + 1e-12


class TestMechanics:
    def test_budget_respected(self):
        data = uniform_data(256, seed=1)
        for budget in (1, 8, 32, 128):
            synopsis = d_greedy_abs(data, budget, base_leaves=32)
            assert synopsis.size <= budget

    def test_claimed_error_matches_actual(self):
        data = uniform_data(512, seed=2)
        synopsis = d_greedy_abs(data, 64, base_leaves=64)
        assert synopsis.max_abs_error(data) == pytest.approx(
            synopsis.meta["claimed_error"], abs=1e-4
        )

    def test_candidate_count_is_min_r_b_plus_one(self):
        data = uniform_data(256, seed=3)
        # R = 256/32 = 8, B = 32 -> min(8,32)+1 = 9 candidates.
        synopsis = d_greedy_abs(data, 32, base_leaves=32)
        assert synopsis.meta["candidates"] == 9
        # B = 4 < R -> 5 candidates.
        synopsis = d_greedy_abs(data, 4, base_leaves=32)
        assert synopsis.meta["candidates"] == 5

    def test_job_structure(self):
        cluster = SimulatedCluster()
        data = uniform_data(256, seed=4)
        d_greedy_abs(data, 32, cluster, base_leaves=32)
        names = [job.job_name for job in cluster.log.jobs]
        assert names == ["dgreedy-averages", "dgreedy-histograms", "dgreedy-construct"]
        assert cluster.log.driver_seconds > 0

    def test_zero_budget(self):
        data = uniform_data(128, seed=5)
        synopsis = d_greedy_abs(data, 0, base_leaves=16)
        assert synopsis.size == 0

    def test_budget_larger_than_tree(self):
        data = uniform_data(64, seed=6)
        synopsis = d_greedy_abs(data, 64, base_leaves=8)
        assert synopsis.max_abs_error(data) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            d_greedy_abs([1.0, 2.0, 3.0], 1)
        with pytest.raises(InvalidInputError):
            d_greedy_abs(uniform_data(64), -1)
        with pytest.raises(InvalidInputError):
            d_greedy_abs(uniform_data(64), 4, bucket_width=0.0)

    def test_rel_sanity_bound_validated(self):
        with pytest.raises(InvalidInputError):
            d_greedy_rel(uniform_data(64), 8, sanity_bound=0.0)

    def test_base_leaves_clamped_to_data(self):
        data = uniform_data(64, seed=7)
        synopsis = d_greedy_abs(data, 8, base_leaves=1024)  # clamps to 32
        assert synopsis.size <= 8


class TestCandidateGeneration:
    def test_candidates_are_nested_suffixes(self):
        coeffs = haar_transform(uniform_data(8, seed=8))
        run = greedy_abs_order(coeffs)
        candidates = _candidate_incoming_errors(run, 8, budget=8)
        assert len(candidates) == 9
        # Candidate i retains the last i removals; suffixes are nested.
        for a, b in zip(candidates, candidates[1:]):
            assert set(a.retained) <= set(b.retained)
        assert candidates[0].retained == {}
        assert set(candidates[8].retained) == set(range(8))

    def test_incoming_errors_match_reconstruction(self):
        # Candidate i's incoming error at virtual leaf j must equal the
        # reconstruction error of leaf j using only the retained roots.
        data = uniform_data(8, seed=9)
        coeffs = haar_transform(data)
        run = greedy_abs_order(coeffs)
        candidates = _candidate_incoming_errors(run, 8, budget=8)
        from repro.wavelet.error_tree import reconstruct_value

        for candidate in candidates:
            for leaf in range(8):
                approx = reconstruct_value(candidate.retained, leaf, 8)
                exact = reconstruct_value(coeffs, leaf, 8)
                assert candidate.incoming[leaf] == pytest.approx(approx - exact)

    def test_budget_limits_candidates(self):
        coeffs = haar_transform(uniform_data(16, seed=10))
        run = greedy_abs_order(coeffs)
        candidates = _candidate_incoming_errors(run, 16, budget=3)
        assert len(candidates) == 4


class TestBucketizedHistogram:
    def _run(self, data, incoming=0.0):
        coeffs = haar_transform(data)
        coeffs[0] = 0.0
        return greedy_abs_order(
            coeffs, initial_errors=[incoming] * len(data), include_average=False
        )

    def test_counts_cover_every_removal(self):
        run = self._run(uniform_data(16, seed=11))
        _, counts, _, _ = _bucketized_histogram(run, bucket_width=1.0)
        assert counts.dtype == np.int64
        assert int(counts.sum()) == len(run.removals)

    def test_buckets_are_strictly_increasing(self):
        run = self._run(uniform_data(16, seed=12))
        errors, _, _, _ = _bucketized_histogram(run, bucket_width=1.0)
        assert errors.dtype == np.float64
        assert bool(np.all(errors[1:] > errors[:-1]))

    def test_wider_buckets_compact_more(self):
        run = self._run(uniform_data(64, seed=13))
        fine, _, _, _ = _bucketized_histogram(run, bucket_width=1e-9)
        coarse, _, _, _ = _bucketized_histogram(run, bucket_width=100.0)
        assert len(coarse) < len(fine)

    def test_final_error_is_last_actual(self):
        run = self._run(uniform_data(16, seed=14), incoming=5.0)
        *_, final = _bucketized_histogram(run, bucket_width=1.0)
        assert final == run.removals[-1].error_after

    @pytest.mark.parametrize("bucket_width", [1e-9, 0.5, 3.0, 100.0])
    @pytest.mark.parametrize("incoming", [0.0, 4.0])
    def test_matches_scalar_reference(self, bucket_width, incoming):
        run = self._run(uniform_data(64, seed=16), incoming=incoming)
        errors, counts, cuts, final = _bucketized_histogram(run, bucket_width)
        expected, expected_final = scalar_bucketized_histogram(run, bucket_width)
        assert list(zip(errors.tolist(), counts.tolist(), cuts.tolist())) == expected
        assert final == expected_final

    def test_cut_errors_bounded_by_bucket(self):
        # A bucket's cut error is an *actual* state error and can sit far
        # below the bucket's running max, but never above it... except for
        # the very first bucket whose cut is the initial incoming state.
        run = self._run(uniform_data(32, seed=15), incoming=3.0)
        errors, _, cuts, _ = _bucketized_histogram(run, bucket_width=0.5)
        for bucket_error, cut_error in zip(errors[1:], cuts[1:]):
            assert cut_error <= bucket_error + 0.5 + 1e-9


class TestCommunicationCompression:
    def test_histograms_cheaper_than_node_lists(self):
        # The point of ErrHistGreedyAbs: job-1 shuffle volume stays far
        # below one record per (node, candidate) pair.
        # Moderate buckets (the paper's 132.44-vs-132.45 example) plus the
        # running-max compaction collapse most removals into few records.
        data = uniform_data(512, seed=16)
        cluster = SimulatedCluster()
        synopsis = d_greedy_abs(data, 64, cluster, base_leaves=64, bucket_width=50.0)
        histogram_job = cluster.log.jobs[1]
        candidates = synopsis.meta["candidates"]
        naive_records = 511 * candidates  # every node for every candidate
        assert histogram_job.map_output_records < naive_records / 4
        # ... without visibly hurting quality at this bucket width.
        from repro.algos.greedy_abs import greedy_abs

        cent = greedy_abs(data, 64).max_abs_error(data)
        assert synopsis.max_abs_error(data) <= cent * 1.10

    def test_wider_buckets_reduce_shuffle(self):
        data = uniform_data(512, seed=17)
        fine_cluster = SimulatedCluster()
        d_greedy_abs(data, 64, fine_cluster, base_leaves=64, bucket_width=1e-9)
        coarse_cluster = SimulatedCluster()
        d_greedy_abs(data, 64, coarse_cluster, base_leaves=64, bucket_width=50.0)
        fine_bytes = fine_cluster.log.jobs[1].shuffle_bytes
        coarse_bytes = coarse_cluster.log.jobs[1].shuffle_bytes
        assert coarse_bytes < fine_bytes
