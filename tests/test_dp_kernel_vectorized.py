"""Differential tests: vectorized DP combine kernels vs the scalar reference.

The vectorized kernels must match the retained scalar reference
entry-for-entry — counts, errors, choices, and domain bounds — including
the tie-break (smallest ``vl`` / ``z = 0`` wins), infeasible interior
holes, and odd-parity domains.  The data-pair kernel must match leaf rows
plus one scalar combine per pair byte for byte, and raise the same
errors; so must the level kernel (``combine_level``) against one scalar
combine per node.  Randomized rows are generated from seeded RNGs so
failures reproduce, and kernel-row digests of fixed builds are pinned.
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
    combine_level,
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
from repro.core.dp_framework import dm_haar_space
from repro.exceptions import InfeasibleErrorBound, ReproError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.runtime import LocalRuntime
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
        monkeypatch.setattr(mhs, "_MIN_LEVEL_NODES", 10**12)
        monkeypatch.setattr(mhs, "data_pair_rows", scalar_data_pair_rows)
        scalar = min_haar_space(data, epsilon, 1.0)
        assert vectorized.size == scalar.size
        assert vectorized.max_error == scalar.max_error
        assert vectorized.synopsis.coefficients == scalar.synopsis.coefficients

    def test_solution_carries_epsilon(self):
        data = np.random.default_rng(4).integers(0, 100, 64).astype(float)
        solution = min_haar_space(data, 15.0, 1.0)
        assert solution.epsilon == 15.0


# How to force every combine of a solve onto one kernel: the solve builds
# its bottom level with data_pair_rows (which the scalar case swaps for
# the per-pair scalar oracle), batches every level of at least
# _MIN_LEVEL_NODES nodes through the level kernel, and dispatches the
# rest per node on SCALAR_FALLBACK_CELLS.
KERNEL_SETTINGS = {
    "scalar": {"SCALAR_FALLBACK_CELLS": 10**12, "_MIN_LEVEL_NODES": 10**12},
    "windowed": {"SCALAR_FALLBACK_CELLS": 0, "_MIN_LEVEL_NODES": 10**12},
    "level": {"_MIN_LEVEL_NODES": 1},
}


class TestKernelRegistry:
    """Forcing any one combine kernel trades only time, never output."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_SETTINGS))
    def test_every_kernel_bit_identical_unrestricted(self, monkeypatch, kernel):
        data = np.random.default_rng(41).integers(0, 500, 256).astype(float)
        reference = min_haar_space(data, 30.0, 0.25)
        for name, value in KERNEL_SETTINGS[kernel].items():
            monkeypatch.setattr(mhs, name, value)
        if kernel == "scalar":
            monkeypatch.setattr(mhs, "data_pair_rows", scalar_data_pair_rows)
        got = min_haar_space(data, 30.0, 0.25)
        assert got.size == reference.size
        assert got.max_error == reference.max_error
        assert got.synopsis.coefficients == reference.synopsis.coefficients


def make_row(start: int, counts, errors) -> MRow:
    """A child row from plain sequences (its choices are never read)."""
    counts = np.asarray(counts, dtype=np.int32)
    errors = np.asarray(errors, dtype=np.float64)
    return MRow(start, counts, errors, np.zeros(len(counts), np.int64))


def u_row(rng, width: int, start: int | None = None) -> MRow:
    """A row the level kernel batches: counts that fall to one valley and
    rise again (plateaus allowed), finite errors."""
    if start is None:
        start = int(rng.integers(-width, width + 1))
    steps = rng.integers(0, 3, width)
    valley = int(rng.integers(0, width))
    counts = np.empty(width, dtype=np.int64)
    counts[valley] = steps[valley]
    counts[:valley] = steps[valley] + np.cumsum(steps[:valley][::-1])[::-1]
    counts[valley + 1 :] = steps[valley] + np.cumsum(steps[valley + 1 :])
    return make_row(start, counts, rng.uniform(0.0, 4.0, width))


def per_node_loop(lefts, rights, epsilon, delta):
    """The oracle: one scalar combine per node, in ascending node order."""
    return [combine_rows_scalar(l, r, epsilon, delta) for l, r in zip(lefts, rights)]


def level_with_fallbacks(lefts, rights, epsilon, delta, **constants):
    """``combine_level``'s rows, and the nodes it left to ``combine_rows``.

    ``constants`` override module constants (block budgets, the level
    size) for this one call.
    """
    fallbacks = []
    nodes = {(id(l), id(r)): i for i, (l, r) in enumerate(zip(lefts, rights))}
    per_node = mhs.combine_rows

    def counting(left, right, *args):
        fallbacks.append(nodes[id(left), id(right)])
        return per_node(left, right, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mhs, "combine_rows", counting)
        for name, value in constants.items():
            patch.setattr(mhs, name, value)
        rows = combine_level(lefts, rights, epsilon, delta)
    return rows, fallbacks


def assert_level_matches_loop(lefts, rights, epsilon, delta, **constants):
    """Rows byte-identical to the per-node loop, or the loop's first error.

    Returns the nodes ``combine_level`` left to ``combine_rows``.
    """
    try:
        expected = per_node_loop(lefts, rights, epsilon, delta)
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            level_with_fallbacks(lefts, rights, epsilon, delta, **constants)
        assert str(raised.value) == str(error)
        return None
    got, fallbacks = level_with_fallbacks(lefts, rights, epsilon, delta, **constants)
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert_rows_identical(mine, theirs)
    return fallbacks


def min_pair_count(left: MRow, right: MRow, v: int) -> int:
    """``P[v]``: the least ``cl[vl] + cr[2v − vl]`` over every pairing of ``v``."""
    return min(
        int(left.counts[vl - left.start]) + int(right.counts[2 * v - vl - right.start])
        for vl in range(max(left.start, 2 * v - right.end), min(left.end, 2 * v - right.start) + 1)
    )


#: Errors drawn from a few values (many equal errors), or anywhere.
LEVEL_ERRORS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(0.0, 8.0).map(abs),
    st.sampled_from([0.1, 0.2, 0.3]),  # equal scores at epsilon = 1e15
)


@st.composite
def level_rows(draw):
    """One child row: U-shaped, bumpy, or U-shaped with interior holes."""
    width = draw(st.integers(1, 12))
    start = draw(st.integers(-6, 6))
    kind = draw(st.sampled_from(["u", "u", "u", "u", "bumpy", "holes"]))
    if kind == "bumpy":
        counts = np.array(draw(st.lists(st.integers(0, 4), min_size=width, max_size=width)))
    else:
        steps = draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
        valley = draw(st.integers(0, width - 1))
        counts = np.array(
            [
                steps[valley] + sum(steps[i:valley]) + sum(steps[valley + 1 : i + 1])
                for i in range(width)
            ]
        )
    errors = np.array(draw(st.lists(LEVEL_ERRORS, min_size=width, max_size=width)))
    counts = counts.astype(np.int32)
    if kind == "holes" and width > 2:
        holes = draw(st.lists(st.integers(1, width - 2), min_size=1, max_size=width - 2))
        counts[holes] = INFEASIBLE_COUNT
        errors[holes] = np.inf
    return MRow(start=start, counts=counts, errors=errors, choices=np.zeros(width, np.int64))


@st.composite
def level_inputs(draw):
    nodes = draw(st.integers(1, 10))
    lefts = [draw(level_rows()) for _ in range(nodes)]
    rights = [draw(level_rows()) for _ in range(nodes)]
    epsilon = draw(st.sampled_from([1.0, 4.0, 10.0, 1e15]))
    budgets = draw(
        st.sampled_from([(mhs._LEVEL_BLOCK_ENTRIES, mhs._LEVEL_BLOCK_CELLS), (1, 1), (5, 7)])
    )
    return lefts, rights, epsilon, budgets


class TestLevelKernelDifferential:
    """``combine_level`` against one scalar combine per node."""

    @settings(deadline=None, max_examples=400)
    @given(level_inputs())
    def test_matches_per_node_loop(self, case):
        lefts, rights, epsilon, (entries, cells) = case
        assert_level_matches_loop(
            lefts,
            rights,
            epsilon,
            1.0,
            _MIN_LEVEL_NODES=1,
            _LEVEL_BLOCK_ENTRIES=entries,
            _LEVEL_BLOCK_CELLS=cells,
        )

    def test_u_shaped_levels_are_batched(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lefts = [u_row(rng, int(rng.integers(1, 40))) for _ in range(12)]
            rights = [u_row(rng, int(rng.integers(1, 40))) for _ in range(12)]
            fallbacks = assert_level_matches_loop(lefts, rights, 4.0, 1.0)
            # Only a node with an empty combined domain may fall back.
            if fallbacks is not None:
                for node in fallbacks:
                    with pytest.raises(InfeasibleErrorBound):
                        combine_rows_scalar(lefts[node], rights[node], 4.0, 1.0)

    def test_small_levels_run_per_node(self):
        rng = np.random.default_rng(6)
        lefts = [u_row(rng, 9, start=0) for _ in range(8)]
        rights = [u_row(rng, 9, start=0) for _ in range(8)]
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) == []
        assert assert_level_matches_loop(lefts[:7], rights[:7], 4.0, 1.0) == list(range(7))

    def test_counts_not_u_shaped_and_interior_holes_fall_back(self):
        rng = np.random.default_rng(9)
        lefts = [u_row(rng, 10, start=0) for _ in range(8)]
        rights = [u_row(rng, 10, start=0) for _ in range(8)]
        lefts[2].counts[:] = [0, 2, 0, 2, 0, 2, 0, 2, 0, 2]  # two valleys
        rights[5].counts[4] = INFEASIBLE_COUNT
        rights[5].errors[4] = np.inf
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) == [2, 5]

    def test_odd_parity_and_one_entry_domains(self):
        rng = np.random.default_rng(7)
        lefts, rights = [], []
        for left_start in (-3, -2, 2, 3):
            for right_start in (-5, -4, 4, 5):
                for left_width, right_width in ((5, 8), (6, 7), (9, 4), (1, 6), (1, 1), (2, 1)):
                    lefts.append(u_row(rng, left_width, start=left_start))
                    rights.append(u_row(rng, right_width, start=right_start))
        # Drop the nodes whose domain is empty, which the next test covers.
        keep = [
            i for i, (l, r) in enumerate(zip(lefts, rights))
            if (l.end + r.end) // 2 >= -(-(l.start + r.start) // 2)
        ]
        lefts = [lefts[i] for i in keep]
        rights = [rights[i] for i in keep]
        assert any(len(combine_rows_scalar(l, r, 4.0, 1.0)) == 1 for l, r in zip(lefts, rights))
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) == []

    def test_equal_errors_smallest_vl_wins(self):
        # Every count and error equal: each v's pairings tie, so the first
        # (smallest vl) must win, as in the scalar loop.
        width = 17
        lefts = [make_row(s, [0] * width, [2.0] * width) for s in range(8)]
        rights = [make_row(-s, [0] * width, [2.0] * width) for s in range(8)]
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) == []
        row = combine_level(lefts, rights, 4.0, 1.0)[3]
        outside = [v for v in range(row.start, row.end + 1) if not 3 <= v <= 13]
        assert outside
        for v in outside:
            assert row.choices[v - row.start] == max(3, 2 * v - (-3 + width - 1))

    def test_equal_scores_from_different_errors(self):
        # At epsilon = 1e15 the weight's float spacing is 0.25, so errors
        # 0.2 and 0.3 score alike: the smallest vl wins although its error
        # is the larger one.
        weight = 2 * 1e15 + 1.0 + 1.0
        assert weight + 0.2 == weight + 0.3
        errors = np.array([0.3, 0.2, 0.3, 0.2, 0.3, 0.2])
        lefts = [make_row(0, [0] * 6, np.roll(errors, shift)) for shift in range(8)]
        rights = [make_row(20, [0] * 6, [0.1] * 6) for _ in range(8)]
        assert assert_level_matches_loop(lefts, rights, 1e15, 1.0) == []
        # v = 12 pairs vl = 0..4 with vr = 24..20, every one at count 1.
        row = combine_level(lefts, rights, 1e15, 1.0)[0]
        assert row.choices[12 - row.start] == 0
        assert row.errors[12 - row.start] == 0.3

    def test_zero_pairing_ties_outside_the_count_band(self):
        # Right counts are flat, so P[v] is the left minimum over v's
        # pairings.  At v = 1 (left counts [1, 1, 0, 0, 1]) z = 0 has pair
        # count P + 1 = 1, and the band of pair count P is {2}: z = 0
        # competes from outside it, and wins a score tie as the smaller vl.
        # At v = 3 (left counts [1, 0, 0, 1, 1]) it sits to the band's right
        # and loses a tie.
        cases = [
            ([1, 1, 0, 0, 1], [0.5, 0.5, 0.5, 0.5, 0.5], 1),  # tie: z = 0 wins
            ([1, 1, 0, 0, 1], [0.5, 0.2, 0.7, 0.5, 0.5], 1),  # lower error: z = 0
            ([1, 1, 0, 0, 1], [0.5, 0.9, 0.1, 0.5, 0.5], 1),  # higher error: paid
            ([1, 0, 0, 1, 1], [0.5, 0.5, 0.5, 0.5, 0.5], 3),  # tie: paid wins
            ([1, 0, 0, 1, 1], [0.5, 0.5, 0.7, 0.2, 0.5], 3),  # lower error: z = 0
        ]
        lefts, rights, probes = [], [], []
        for counts, errors, v in cases * 2:
            lefts.append(make_row(0, counts, errors))
            rights.append(make_row(0, [0] * 5, [0.0] * 5))
            probes.append(v)
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) == []
        winners = []
        for left, right, v in zip(lefts, rights, probes):
            least = min_pair_count(left, right, v)
            assert left.counts[v] + right.counts[v] == least + 1
            row = combine_rows_scalar(left, right, 4.0, 1.0)
            winners.append(int(row.choices[v - row.start]) == v)
        assert winners[:5] == [True, True, False, False, True]

    def test_empty_domain_at_a_middle_node_raises_like_the_loop(self):
        rng = np.random.default_rng(11)
        lefts = [u_row(rng, 8, start=0) for _ in range(10)]
        rights = [u_row(rng, 8, start=0) for _ in range(10)]
        # Node 4: single points of opposite parity, an empty domain.
        lefts[4] = make_row(0, [0], [0.0])
        rights[4] = make_row(1, [0], [0.0])
        with pytest.raises(InfeasibleErrorBound, match="empty combined domain"):
            combine_level(lefts, rights, 4.0, 1.0)
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) is None
        # Node 2 (wholly infeasible) fails before node 4 in the loop.
        lefts[2] = make_row(0, [INFEASIBLE_COUNT] * 3, [np.inf] * 3)
        with pytest.raises(InfeasibleErrorBound, match="no feasible incoming value"):
            combine_level(lefts, rights, 4.0, 1.0)
        assert assert_level_matches_loop(lefts, rights, 4.0, 1.0) is None

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_overflowing_weight_falls_back_to_combine_rows(self):
        rng = np.random.default_rng(12)
        lefts = [u_row(rng, 6, start=0) for _ in range(8)]
        rights = [u_row(rng, 6, start=1) for _ in range(8)]
        assert assert_level_matches_loop(lefts, rights, 9e307, 1e307) == list(range(8))

    def test_block_budgets_of_one(self):
        # One entry per block and one band cell per scoring chunk: every
        # node crosses a block edge, and the rows must not change.
        rng = np.random.default_rng(13)
        lefts = [u_row(rng, int(rng.integers(1, 30))) for _ in range(16)]
        rights = [u_row(rng, int(rng.integers(1, 30))) for _ in range(16)]
        whole = combine_level(lefts, rights, 4.0, 1.0)
        assert assert_level_matches_loop(
            lefts, rights, 4.0, 1.0, _LEVEL_BLOCK_ENTRIES=1, _LEVEL_BLOCK_CELLS=1
        ) is not None
        tiny, _ = level_with_fallbacks(
            lefts, rights, 4.0, 1.0, _LEVEL_BLOCK_ENTRIES=1, _LEVEL_BLOCK_CELLS=1
        )
        for mine, theirs in zip(tiny, whole):
            assert_rows_identical(mine, theirs)

    @pytest.mark.parametrize(
        "kind,epsilon,delta",
        [("walk", 6.0, 0.1), ("walk", 6.0, 1.0), ("uniform", 400.0, 1.0)],
    )
    def test_subtree_rows_match_per_node_loop(self, monkeypatch, kind, epsilon, delta):
        rng = np.random.default_rng(17)
        if kind == "walk":
            values = np.round(100.0 + np.cumsum(rng.normal(0.0, 2.0, 256)))
        else:
            values = rng.uniform(0.0, 1000.0, 256)
        batched = compute_data_subtree_rows(values, epsilon, delta)
        monkeypatch.setattr(mhs, "_MIN_LEVEL_NODES", 10**12)
        per_node = compute_data_subtree_rows(values, epsilon, delta)
        for mine, theirs in zip(batched[1:], per_node[1:]):
            assert_rows_identical(mine, theirs)


def kernel_row_digests(build):
    sanitizer = activate(Sanitizer())
    try:
        build()
    finally:
        deactivate()
    return sanitizer.report()["kernel_rows"]


class TestPinnedKernelRows:
    """Kernel-row digests of fixed builds, pinned to the per-node combine.

    The literals were computed with every level combined node by node
    (``combine_rows``), before the level kernel existed; any kernel
    change must reproduce them.
    """

    def test_walk_build_at_rows_120_wide(self):
        walk = np.round(100.0 + np.cumsum(np.random.default_rng(2016).normal(0.0, 2.0, 1024)))
        digests = kernel_row_digests(
            lambda: dm_haar_space(
                walk,
                6.0,
                0.1,
                SimulatedCluster(runtime=LocalRuntime()),
                subtree_leaves=256,
                construct=True,
            )
        )
        assert digests == [
            "018766e234d9d71a22c47f0acaf454f0babdb167b7686c96cea98e87496bf2ad",
            "8cb5e113294c6f61339021952cfaef099624b954462a06d7ca528649ab36b15d",
            "aed1b9c118c5c96fe3c8c28e1375b66433a311ceebb75ba982d1dc61f86dc475",
            "d17df72aed044212d53d23e268cb0f80fbb422e47b17b1055da15e38f458a94f",
            "e582ebba6d721e67f9cb7a0e11b860093365296f4421fc12b440d26cb96f488e",
        ]

    def test_uniform_subtree_at_rows_800_wide(self):
        uniform = np.random.default_rng(2016).uniform(0.0, 1000.0, 256)
        digests = kernel_row_digests(lambda: compute_data_subtree_rows(uniform, 400.0, 1.0))
        assert digests == ["9b3f91dc79ec2e72cfe2b30cb50d09db0578f17d60c99a0f89b11f06b63dda82"]
