"""Tests for IndirectHaar (Algorithm 2) and the conventional baseline."""

import numpy as np
import pytest

from repro.algos.conventional import (
    conventional_synopsis,
    largest_coefficient,
    top_b_indices,
)
from repro.algos.greedy_abs import greedy_abs
from repro.algos.indirect_haar import indirect_haar
from repro.exceptions import InvalidInputError
from repro.wavelet.transform import haar_transform

from tests._reference import brute_force_restricted_optimum

PAPER_DATA = np.array([5, 5, 0, 26, 1, 3, 14, 2], dtype=float)


class TestConventional:
    def test_budget_respected(self):
        for budget in (0, 1, 4, 8):
            assert conventional_synopsis(PAPER_DATA, budget).size <= budget

    def test_retains_most_significant(self):
        # Significances for the paper data: c_0=7 and c_5=6.5 lead.
        synopsis = conventional_synopsis(PAPER_DATA, 2)
        assert set(synopsis.coefficients) == {0, 5}

    def test_l2_optimality_against_bruteforce(self):
        from itertools import combinations

        from repro.wavelet.synopsis import WaveletSynopsis

        rng = np.random.default_rng(21)
        data = rng.integers(0, 100, size=8).astype(float)
        coeffs = haar_transform(data)
        budget = 3
        conventional = conventional_synopsis(data, budget)
        best = min(
            WaveletSynopsis(8, {i: float(coeffs[i]) for i in subset}).l2_error(data)
            for subset in combinations(range(8), budget)
        )
        assert conventional.l2_error(data) == pytest.approx(best, abs=1e-9)

    def test_top_b_indices_deterministic_ties(self):
        coeffs = np.array([1.0, 1.0, 0.0, 0.0])
        assert top_b_indices(coeffs, 1) == [0]

    def test_top_b_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            top_b_indices([1.0], -1)

    def test_zero_coefficients_not_stored(self):
        synopsis = conventional_synopsis(PAPER_DATA, 8)
        assert 4 not in synopsis.coefficients  # c_4 == 0

    def test_largest_coefficient(self):
        coeffs = haar_transform(PAPER_DATA)  # |values| = 7,2,4,3,0,13,1,6
        assert largest_coefficient(coeffs, 1) == 13.0
        assert largest_coefficient(coeffs, 2) == 7.0
        assert largest_coefficient(coeffs, 8) == 0.0
        assert largest_coefficient(coeffs, 100) == 0.0
        with pytest.raises(InvalidInputError):
            largest_coefficient(coeffs, 0)


class TestIndirectHaar:
    def test_budget_respected_and_meta_consistent(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            data = rng.integers(0, 500, size=32).astype(float)
            synopsis = indirect_haar(data, 6, delta=1.0)
            assert synopsis.size <= 6
            assert synopsis.max_abs_error(data) == pytest.approx(
                synopsis.meta["max_abs_error"], abs=1e-9
            )
            assert synopsis.meta["dp_runs"] >= 1

    def test_beats_conventional(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            data = rng.integers(0, 1000, size=32).astype(float)
            budget = 8
            ih_error = indirect_haar(data, budget, delta=1.0).max_abs_error(data)
            conv_error = conventional_synopsis(data, budget).max_abs_error(data)
            assert ih_error <= conv_error + 1e-9

    def test_beats_or_matches_greedy(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            data = rng.integers(0, 1000, size=32).astype(float)
            budget = 8
            ih_error = indirect_haar(data, budget, delta=1.0).max_abs_error(data)
            greedy_error = greedy_abs(data, budget).max_abs_error(data)
            # Fine quantization: optimal unrestricted <= greedy + one quantum.
            assert ih_error <= greedy_error + 1.0 + 1e-9

    def test_near_optimal_against_restricted_bruteforce(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            data = rng.integers(0, 60, size=8).astype(float)
            budget = 3
            ih_error = indirect_haar(data, budget, delta=0.25).max_abs_error(data)
            optimal_restricted, _ = brute_force_restricted_optimum(data, budget)
            assert ih_error <= optimal_restricted + 0.25 + 1e-9

    def test_generous_budget_returns_exact(self):
        synopsis = indirect_haar(PAPER_DATA, 8, delta=0.5)
        assert synopsis.max_abs_error(PAPER_DATA) == 0.0
        assert synopsis.meta["dp_runs"] == 0  # conventional bracket was exact

    def test_coarser_delta_degrades_gracefully(self):
        rng = np.random.default_rng(35)
        data = rng.integers(0, 1000, size=64).astype(float)
        fine = indirect_haar(data, 8, delta=1.0).max_abs_error(data)
        coarse = indirect_haar(data, 8, delta=50.0).max_abs_error(data)
        assert fine <= coarse + 1e-9
