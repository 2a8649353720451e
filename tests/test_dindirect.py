"""Tests for DIndirectHaar (distributed Algorithm 2) and its bound jobs."""

import numpy as np
import pytest

from repro.algos.indirect_haar import indirect_haar
from repro.core.dindirect import d_indirect_haar
from repro.core.thresholding import build_synopsis
from repro.exceptions import InvalidInputError
from repro.mapreduce import SimulatedCluster
from repro.wavelet.error_tree import incoming_value
from repro.wavelet.transform import haar_transform
from tests._reference import global_to_local


def uniform_data(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 500, size=n)


class TestIncomingValue:
    def test_paper_figure1_example(self):
        # "the incoming value of c_2 is 7 + 2 = 9" (Section 4).
        retained = {0: 7.0, 1: 2.0}
        assert incoming_value(retained, 2, 8) == pytest.approx(9.0)
        assert incoming_value(retained, 3, 8) == pytest.approx(5.0)

    def test_sparse_ancestors(self):
        retained = {0: 10.0}  # only the average survives
        for root in (2, 3, 4, 7):
            assert incoming_value(retained, root, 8) == pytest.approx(10.0)

    def test_full_path_matches_reconstruction(self):
        data = uniform_data(64, seed=1)
        coeffs = haar_transform(data)
        dense = {i: float(c) for i, c in enumerate(coeffs)}
        # The incoming value of a bottom node equals the average of its
        # two leaves (partial reconstruction down to that node).
        for node in (32, 40, 63):
            lo = (node - 32) * 2
            expected = (data[lo] + data[lo + 1]) / 2
            assert incoming_value(dense, node, 64) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            incoming_value({}, 0, 8)
        with pytest.raises(InvalidInputError):
            incoming_value({}, 8, 8)


class TestGlobalToLocal:
    def test_inside_subtree(self):
        assert global_to_local(3, 3) == 1
        assert global_to_local(3, 6) == 2
        assert global_to_local(3, 7) == 3
        assert global_to_local(3, 12) == 4

    def test_outside_subtree(self):
        assert global_to_local(3, 2) is None
        assert global_to_local(3, 5) is None
        assert global_to_local(3, 1) is None


class TestDIndirectHaarEquivalence:
    @pytest.mark.parametrize("subtree_leaves", [32, 64])
    def test_matches_centralized(self, subtree_leaves):
        data = uniform_data(256, seed=2)
        for budget in (16, 64):
            dist = d_indirect_haar(
                data, budget, delta=2.0, cluster=SimulatedCluster(), subtree_leaves=subtree_leaves
            )
            cent = indirect_haar(data, budget, delta=2.0)
            assert dist.size <= budget
            assert dist.max_abs_error(data) == pytest.approx(
                cent.max_abs_error(data), abs=1e-9
            )

    def test_meta_error_matches_actual(self):
        data = uniform_data(128, seed=3)
        dist = d_indirect_haar(data, 16, delta=1.0, subtree_leaves=32)
        assert dist.max_abs_error(data) == pytest.approx(
            dist.meta["max_abs_error"], abs=1e-9
        )

    def test_beats_conventional(self):
        from repro.algos.conventional import conventional_synopsis

        data = uniform_data(256, seed=4)
        budget = 32
        dist_error = d_indirect_haar(
            data, budget, delta=1.0, subtree_leaves=64
        ).max_abs_error(data)
        conv_error = conventional_synopsis(data, budget).max_abs_error(data)
        assert dist_error <= conv_error + 1e-9

    def test_generous_budget_short_circuits(self):
        data = uniform_data(64, seed=5)
        synopsis = d_indirect_haar(data, 64, delta=1.0, subtree_leaves=16)
        assert synopsis.meta["dp_runs"] == 0
        assert synopsis.max_abs_error(data) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "data, budget, delta, dp_runs",
        [
            # Not exact: the conventional synopsis misses by 3.5, which is
            # within 1e-9 of the series' 1e12 scale.
            ([3, 5, 10, 8, 1e12, 2, 10, 14], 4, 1.0, 3),
            # Exact: seven non-zero coefficients within B = 7, although
            # the reconstruction measures a 1.1e-16 error.
            ([0.6, 0.3, 0, 0, 0.8, 0.9, 0.6, 0.7], 7, 0.01, 0),
        ],
        ids=["large-value", "round-off"],
    )
    def test_drivers_agree_on_an_exact_conventional_synopsis(
        self, data, budget, delta, dp_runs
    ):
        values = np.asarray(data, dtype=np.float64)
        plain, d_plain = (
            build_synopsis(values, budget, name, delta=delta, subtree_leaves=4)
            for name in ("indirect-haar", "dindirect-haar")
        )
        assert d_plain.same_coefficients(plain)
        for synopsis in (plain, d_plain):
            assert synopsis.meta["dp_runs"] == dp_runs

    def test_multiple_jobs_run(self):
        # Bounds (CON + eval + lower) plus the DP probes (Section 4:
        # "multiple distributed jobs of input size N").
        cluster = SimulatedCluster()
        data = uniform_data(256, seed=6)
        synopsis = d_indirect_haar(data, 16, delta=4.0, cluster=cluster, subtree_leaves=64)
        assert cluster.log.job_count >= 3 + synopsis.meta["dp_runs"]

    def test_coarser_delta_runs_fewer_or_equal_row_entries(self):
        data = uniform_data(256, seed=7)
        fine = SimulatedCluster()
        d_indirect_haar(data, 16, delta=1.0, cluster=fine, subtree_leaves=64)
        coarse = SimulatedCluster()
        d_indirect_haar(data, 16, delta=16.0, cluster=coarse, subtree_leaves=64)
        # Communication per probe is O(eps/delta) per sub-tree (Eq. 6).
        fine_bytes = fine.log.shuffle_bytes / max(fine.log.job_count, 1)
        coarse_bytes = coarse.log.shuffle_bytes / max(coarse.log.job_count, 1)
        assert coarse_bytes < fine_bytes

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            d_indirect_haar(np.arange(100, dtype=float), 8, delta=1.0)
        with pytest.raises(InvalidInputError):
            d_indirect_haar(uniform_data(64), -1, delta=1.0)
