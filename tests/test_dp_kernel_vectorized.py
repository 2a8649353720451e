"""Differential tests: windowed DP combine kernels vs the scalar reference.

The vectorized kernels must match the retained scalar reference
entry-for-entry — counts, errors, choices, and domain bounds — including
the tie-break (smallest ``vl`` / ``z = 0`` wins), infeasible interior
holes, and odd-parity domains.  Randomized rows are generated from seeded
RNGs so failures reproduce.
"""

import math

import numpy as np
import pytest

import repro.algos.minhaarspace as mhs
from repro.algos.minhaarspace import (
    INFEASIBLE_COUNT,
    MRow,
    combine_rows,
    combine_rows_restricted,
    combine_rows_restricted_scalar,
    combine_rows_scalar,
    leaf_row,
    leaf_rows,
    min_haar_space,
    min_haar_space_restricted,
)
from repro.exceptions import InfeasibleErrorBound


def random_row(rng, width: int, holes: bool = False) -> MRow:
    start = int(rng.integers(-width, width + 1))
    counts = rng.integers(0, 8, width).astype(np.int32)
    errors = rng.uniform(0.0, width, width)
    if holes and width > 2:
        mask = rng.random(width) < 0.25
        mask[0] = mask[-1] = False  # keep the fringe feasible
        counts[mask] = INFEASIBLE_COUNT
        errors[mask] = np.inf
    return MRow(
        start=start, counts=counts, errors=errors, choices=np.zeros(width, np.int64)
    )


def assert_rows_identical(got: MRow, expected: MRow):
    assert got.start == expected.start
    assert np.array_equal(got.counts, expected.counts)
    assert np.array_equal(got.errors, expected.errors)
    assert np.array_equal(got.choices, expected.choices)


def both_or_neither(vectorized, scalar):
    """Run two row constructors; both must succeed or both must raise."""
    try:
        expected = scalar()
    except InfeasibleErrorBound:
        with pytest.raises(InfeasibleErrorBound):
            vectorized()
        return None
    return vectorized(), expected


class TestCombineDifferential:
    def test_randomized_rows_match_scalar(self, monkeypatch):
        # Force the windowed kernel even on tiny rows so the whole width
        # range is differential-tested against the scalar loop.
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 0)
        rng = np.random.default_rng(100)
        compared = 0
        for trial in range(400):
            left = random_row(rng, int(rng.integers(1, 120)), holes=trial % 3 == 0)
            right = random_row(rng, int(rng.integers(1, 120)), holes=trial % 3 == 1)
            epsilon = float(rng.uniform(0.5, 60.0))
            outcome = both_or_neither(
                lambda: combine_rows(left, right, epsilon, 1.0),
                lambda: combine_rows_scalar(left, right, epsilon, 1.0),
            )
            if outcome is not None:
                assert_rows_identical(*outcome)
                compared += 1
        assert compared > 200  # most trials must exercise the kernels

    def test_odd_parity_domains(self, monkeypatch):
        # Child domains with odd start/end parities shrink the combined
        # domain by one grid point; every parity combination must agree.
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 0)
        rng = np.random.default_rng(7)
        for left_start in (-3, -2, 2, 3):
            for right_start in (-5, -4, 4, 5):
                for left_width, right_width in ((5, 8), (6, 7), (9, 4), (1, 6)):
                    left = random_row(rng, left_width)
                    right = random_row(rng, right_width)
                    left.start = left_start
                    right.start = right_start
                    outcome = both_or_neither(
                        lambda: combine_rows(left, right, 10.0, 1.0),
                        lambda: combine_rows_scalar(left, right, 10.0, 1.0),
                    )
                    if outcome is not None:
                        assert_rows_identical(*outcome)

    def test_infeasible_fringes_are_trimmed_identically(self, monkeypatch):
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 0)
        rng = np.random.default_rng(13)
        for _ in range(60):
            left = random_row(rng, 24)
            right = random_row(rng, 24)
            # Infeasible bands at both fringes of one child.
            edge = int(rng.integers(1, 8))
            left.errors[:edge] = np.inf
            left.counts[:edge] = INFEASIBLE_COUNT
            left.errors[-edge:] = np.inf
            left.counts[-edge:] = INFEASIBLE_COUNT
            outcome = both_or_neither(
                lambda: combine_rows(left, right, 12.0, 1.0),
                lambda: combine_rows_scalar(left, right, 12.0, 1.0),
            )
            if outcome is not None:
                got, expected = outcome
                assert_rows_identical(got, expected)
                assert np.isfinite(got.errors[0])
                assert np.isfinite(got.errors[-1])

    def test_tiny_rows_use_scalar_fallback_with_same_result(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            left = random_row(rng, int(rng.integers(1, 6)))
            right = random_row(rng, int(rng.integers(1, 6)))
            outcome = both_or_neither(
                lambda: combine_rows(left, right, 4.0, 1.0),
                lambda: combine_rows_scalar(left, right, 4.0, 1.0),
            )
            if outcome is not None:
                assert_rows_identical(*outcome)

    def test_tie_break_picks_smallest_vl(self, monkeypatch):
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 0)
        # All-equal counts and errors: every candidate scores the same, so
        # the scalar loop's first-minimum (smallest vl) must also win in
        # the batched argmin.
        width = 33
        left = MRow(0, np.zeros(width, np.int32), np.full(width, 2.0), np.zeros(width, np.int64))
        right = MRow(0, np.zeros(width, np.int32), np.full(width, 2.0), np.zeros(width, np.int64))
        got = combine_rows(left, right, 16.0, 1.0)
        expected = combine_rows_scalar(left, right, 16.0, 1.0)
        assert_rows_identical(got, expected)


class TestRestrictedDifferential:
    def test_randomized_restricted_match_scalar(self):
        rng = np.random.default_rng(200)
        compared = 0
        for trial in range(300):
            left = random_row(rng, int(rng.integers(1, 80)), holes=trial % 3 == 0)
            right = random_row(rng, int(rng.integers(1, 80)), holes=trial % 3 == 1)
            z_offset = int(rng.integers(-10, 11))
            epsilon = float(rng.uniform(0.5, 40.0))
            outcome = both_or_neither(
                lambda: combine_rows_restricted(left, right, z_offset, epsilon, 1.0),
                lambda: combine_rows_restricted_scalar(left, right, z_offset, epsilon, 1.0),
            )
            if outcome is not None:
                assert_rows_identical(*outcome)
                compared += 1
        assert compared > 150

    def test_non_contiguous_restricted_domains(self):
        # A large z offset makes the two candidates' feasible v-bands
        # disjoint: the union domain has an infeasible interior hole that
        # both implementations must represent identically.
        rng = np.random.default_rng(5)
        for z_offset in (12, -12, 20):
            left = random_row(rng, 8)
            right = random_row(rng, 8)
            left.start = 0
            right.start = 0
            outcome = both_or_neither(
                lambda: combine_rows_restricted(left, right, z_offset, 30.0, 1.0),
                lambda: combine_rows_restricted_scalar(left, right, z_offset, 30.0, 1.0),
            )
            if outcome is not None:
                got, expected = outcome
                assert_rows_identical(got, expected)
                if np.any(~np.isfinite(got.errors)):
                    holes = got.counts[~np.isfinite(got.errors)]
                    assert np.all(holes == INFEASIBLE_COUNT)
                    assert np.all(got.choices[~np.isfinite(got.errors)] == -1)


class TestLeafBatching:
    def test_leaf_rows_match_leaf_row(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(-100.0, 100.0, 257)
        batched = leaf_rows(values, 7.5, 0.5)
        for value, row in zip(values, batched):
            assert_rows_identical(row, leaf_row(float(value), 7.5, 0.5))

    def test_leaf_rows_infeasible_value_raises(self):
        with pytest.raises(InfeasibleErrorBound):
            leaf_rows([0.0, 100.5], 0.2, 1.0)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("n,epsilon", [(256, 25.0), (1024, 40.0)])
    def test_min_haar_space_same_synopsis_scalar_vs_windowed(
        self, monkeypatch, n, epsilon
    ):
        data = np.random.default_rng(n).integers(0, 1000, n).astype(float)
        vectorized = min_haar_space(data, epsilon, 1.0)
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 10**12)
        scalar = min_haar_space(data, epsilon, 1.0)
        assert vectorized.size == scalar.size
        assert vectorized.max_error == scalar.max_error
        assert vectorized.synopsis.coefficients == scalar.synopsis.coefficients

    def test_min_haar_space_restricted_same_synopsis(self, monkeypatch):
        data = np.random.default_rng(9).integers(0, 500, 256).astype(float)
        vectorized = min_haar_space_restricted(data, 60.0, 1.0)
        monkeypatch.setattr(
            mhs, "combine_rows_restricted", combine_rows_restricted_scalar
        )
        scalar = min_haar_space_restricted(data, 60.0, 1.0)
        assert vectorized.size == scalar.size
        assert vectorized.max_error == scalar.max_error
        assert vectorized.synopsis.coefficients == scalar.synopsis.coefficients

    def test_solution_carries_epsilon(self):
        data = np.random.default_rng(4).integers(0, 100, 64).astype(float)
        solution = min_haar_space(data, 15.0, 1.0)
        assert solution.epsilon == 15.0
        restricted = min_haar_space_restricted(data, 25.0, 1.0)
        assert restricted.epsilon == 25.0


# How to force every combine of a solve onto one kernel: the unrestricted
# solve dispatches on SCALAR_FALLBACK_CELLS, the restricted solve calls
# combine_rows_restricted by module name.
UNRESTRICTED_FALLBACK_CELLS = {"scalar": 10**12, "windowed": 0}
RESTRICTED_KERNELS = {"scalar": combine_rows_restricted_scalar}


class TestKernelRegistry:
    """Forcing any one combine kernel trades only time, never output."""

    @pytest.mark.parametrize("kernel", sorted(UNRESTRICTED_FALLBACK_CELLS))
    def test_every_kernel_bit_identical_unrestricted(self, monkeypatch, kernel):
        data = np.random.default_rng(41).integers(0, 500, 256).astype(float)
        reference = min_haar_space(data, 30.0, 0.25)
        monkeypatch.setattr(
            mhs, "SCALAR_FALLBACK_CELLS", UNRESTRICTED_FALLBACK_CELLS[kernel]
        )
        got = min_haar_space(data, 30.0, 0.25)
        assert got.size == reference.size
        assert got.max_error == reference.max_error
        assert got.synopsis.coefficients == reference.synopsis.coefficients

    @pytest.mark.parametrize("kernel", sorted(RESTRICTED_KERNELS))
    def test_every_kernel_bit_identical_restricted(self, monkeypatch, kernel):
        data = np.random.default_rng(43).integers(0, 500, 128).astype(float)
        reference = min_haar_space_restricted(data, 60.0, 0.5)
        monkeypatch.setattr(mhs, "combine_rows_restricted", RESTRICTED_KERNELS[kernel])
        got = min_haar_space_restricted(data, 60.0, 0.5)
        assert got.size == reference.size
        assert got.max_error == reference.max_error
        assert got.synopsis.coefficients == reference.synopsis.coefficients
