"""Differential tests: vectorized DP combine kernels vs the scalar reference.

The vectorized kernels must match the retained scalar reference
entry-for-entry — counts, errors, choices, and domain bounds — including
the tie-break (smallest ``vl`` / ``z = 0`` wins), infeasible interior
holes, and odd-parity domains.  The data-pair kernel must match leaf rows
plus one scalar combine per pair byte for byte, and raise the same
errors.  Randomized rows are generated from seeded RNGs so failures
reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.algos.minhaarspace as mhs
from repro.algos.minhaarspace import (
    INFEASIBLE_COUNT,
    MRow,
    combine_rows,
    combine_rows_scalar,
    compute_data_subtree_rows,
    compute_subtree_rows,
    data_pair_rows,
    leaf_row,
    leaf_rows,
    min_haar_space,
)
from repro.analysis.sanitizer import Sanitizer, activate, deactivate
from repro.exceptions import InfeasibleErrorBound, ReproError
from tests._reference import scalar_data_pair_rows


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
    """Same start (a Python int) and byte-identical columns of one dtype."""
    assert type(got.start) is int and got.start == expected.start
    for name in ("counts", "errors", "choices"):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


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


def assert_same_pair_level(values, epsilon, delta):
    """The kernel returns the oracle's rows byte for byte, or raises its error."""
    try:
        expected = scalar_data_pair_rows(values, epsilon, delta)
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            data_pair_rows(values, epsilon, delta)
        assert str(raised.value) == str(error)
        return
    got = data_pair_rows(values, epsilon, delta)
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert_rows_identical(mine, theirs)


#: Grid-index centres: everyday magnitudes, and 2**51 up to the 2**52 limit.
GRID_CENTRES = st.one_of(
    st.integers(-1000, 1000),
    st.builds(
        lambda sign, gap: sign * (2**52 - 256 - gap),
        st.sampled_from([-1, 1]),
        st.integers(0, 2**51),
    ),
)
#: Offsets of each value from the centre, in grid steps: on the grid,
#: on half steps (the continuous minimiser then falls on a half-integer
#: for odd differences), and anywhere.
GRID_OFFSETS = st.one_of(
    st.integers(-40, 40).map(float),
    st.integers(-80, 80).map(lambda halves: halves / 2),
    st.floats(-40.0, 40.0),
)


@st.composite
def data_pair_inputs(draw):
    delta = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0, 3.0]))
    epsilon = draw(
        st.one_of(
            st.just(0.0),
            st.integers(1, 12).map(lambda steps: steps * delta),
            st.floats(0.0, 12.0),  # rarely a multiple of delta
        )
    )
    centre = draw(GRID_CENTRES)
    count = 2 * draw(st.integers(1, 4))
    offsets = draw(st.lists(GRID_OFFSETS, min_size=count, max_size=count))
    values = np.array([(centre + offset) * delta for offset in offsets])
    return values, epsilon, delta


class TestDataPairDifferential:
    """``data_pair_rows`` against leaf rows plus one scalar combine per pair."""

    @settings(deadline=None, max_examples=300)
    @given(data_pair_inputs())
    @example((np.array([5.0, 5.0]), 1.0, 0.1))  # equal values
    @example((np.array([3.0, 4.0]), 0.0, 1.0))  # single points, opposite parity
    @example((np.array([3.0, 3.0]), 0.0, 1.0))  # epsilon = 0, feasible
    @example((np.array([0.0, 3.0]), 2.0, 1.0))  # minimiser on a half-integer
    @example((np.array([-7.3, -2.1, -40.0, -39.5]), 2.5, 0.3))  # delta does not divide epsilon
    @example((np.array([(2**52 - 40) * 1.0, (2**52 - 45) * 1.0]), 3.0, 1.0))
    @example((np.array([(2**52 - 200) * 0.1, (2**52 - 230) * 0.1]), 0.7, 0.1))
    def test_matches_scalar_reference(self, case):
        values, epsilon, delta = case
        assert_same_pair_level(values, epsilon, delta)

    def test_opposite_parity_points_raise_on_both_sides(self):
        with pytest.raises(InfeasibleErrorBound, match="empty combined domain"):
            scalar_data_pair_rows([3.0, 4.0], 0.0, 1.0)
        with pytest.raises(InfeasibleErrorBound, match="empty combined domain"):
            data_pair_rows([3.0, 4.0], 0.0, 1.0)

    def test_leaf_error_precedes_an_earlier_pairs_empty_domain(self):
        # Pair 0 has an empty combined domain and the last value has no
        # grid point: every leaf row is built before any combine, so the
        # leaf's error wins.
        values = [3.0, 4.0, 1.0, 1.5]
        assert_same_pair_level(values, 0.0, 1.0)
        with pytest.raises(InfeasibleErrorBound, match="no grid point"):
            data_pair_rows(values, 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_overflowing_weight_is_left_to_the_scalar_kernel(self, monkeypatch):
        # 2 * epsilon overflows, so every score that pays a coefficient is
        # inf and the scalar kernel's first minimum is the pairing range's
        # lowest vl, outside any candidate window: those entries go to it.
        calls = []
        scalar = mhs._combine_kernel_scalar

        def counting(*args):
            calls.append(args)
            return scalar(*args)

        values = np.array([-8e307, 8e307, 1e307, -3e307])
        expected = scalar_data_pair_rows(values, 9e307, 1e307)
        monkeypatch.setattr(mhs, "_combine_kernel_scalar", counting)
        got = data_pair_rows(values, 9e307, 1e307)
        assert calls
        for mine, theirs in zip(got, expected):
            assert_rows_identical(mine, theirs)

    def test_blocks_cover_every_pair(self, monkeypatch):
        # One pair per block must give the same level as one block.
        values = np.random.default_rng(3).normal(50.0, 4.0, 64)
        whole = data_pair_rows(values, 6.0, 0.1)
        monkeypatch.setattr(mhs, "_MAX_BLOCK_CELLS", 1)
        for mine, theirs in zip(data_pair_rows(values, 6.0, 0.1), whole):
            assert_rows_identical(mine, theirs)

    def test_subtree_rows_and_sanitizer_digests_match_leaf_row_path(self):
        values = np.round(100.0 + np.cumsum(np.random.default_rng(8).normal(0, 2, 64)))
        digests = []
        for build in (
            lambda: compute_subtree_rows(leaf_rows(values, 6.0, 0.1), 6.0, 0.1),
            lambda: compute_data_subtree_rows(values, 6.0, 0.1),
        ):
            sanitizer = activate(Sanitizer())
            try:
                rows = build()
            finally:
                deactivate()
            digests.append(sanitizer.report()["kernel_rows"])
            assert len(rows) == 64 and rows[0] is None
        assert digests[0] == digests[1]


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("n,epsilon", [(256, 25.0), (1024, 40.0)])
    def test_min_haar_space_same_synopsis_scalar_vs_windowed(
        self, monkeypatch, n, epsilon
    ):
        data = np.random.default_rng(n).integers(0, 1000, n).astype(float)
        vectorized = min_haar_space(data, epsilon, 1.0)
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", 10**12)
        monkeypatch.setattr(mhs, "data_pair_rows", scalar_data_pair_rows)
        scalar = min_haar_space(data, epsilon, 1.0)
        assert vectorized.size == scalar.size
        assert vectorized.max_error == scalar.max_error
        assert vectorized.synopsis.coefficients == scalar.synopsis.coefficients

    def test_solution_carries_epsilon(self):
        data = np.random.default_rng(4).integers(0, 100, 64).astype(float)
        solution = min_haar_space(data, 15.0, 1.0)
        assert solution.epsilon == 15.0


# How to force every combine of a solve onto one kernel: the solve
# dispatches on SCALAR_FALLBACK_CELLS above its bottom level, and builds
# that level with data_pair_rows (which the scalar case swaps for the
# per-pair scalar oracle).
FALLBACK_CELLS = {"scalar": 10**12, "windowed": 0}


class TestKernelRegistry:
    """Forcing any one combine kernel trades only time, never output."""

    @pytest.mark.parametrize("kernel", sorted(FALLBACK_CELLS))
    def test_every_kernel_bit_identical_unrestricted(self, monkeypatch, kernel):
        data = np.random.default_rng(41).integers(0, 500, 256).astype(float)
        reference = min_haar_space(data, 30.0, 0.25)
        monkeypatch.setattr(mhs, "SCALAR_FALLBACK_CELLS", FALLBACK_CELLS[kernel])
        if kernel == "scalar":
            monkeypatch.setattr(mhs, "data_pair_rows", scalar_data_pair_rows)
        got = min_haar_space(data, 30.0, 0.25)
        assert got.size == reference.size
        assert got.max_error == reference.max_error
        assert got.synopsis.coefficients == reference.synopsis.coefficients
