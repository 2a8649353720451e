"""Unit tests for error-tree navigation and reconstruction (Section 2.2)."""

import numpy as np
import pytest

from repro.exceptions import InvalidInputError
from repro.wavelet.error_tree import (
    data_path,
    leaf_sign,
    node_children,
    node_leaf_range,
    node_level,
    node_parent,
    reconstruct_range_sum,
    reconstruct_value,
    subtree_nodes,
)
from repro.wavelet.transform import haar_transform

PAPER_DATA = [5, 5, 0, 26, 1, 3, 14, 2]
PAPER_TRANSFORM = haar_transform(PAPER_DATA)


class TestNavigation:
    def test_leaf_ranges(self):
        assert node_leaf_range(0, 8) == (0, 8)
        assert node_leaf_range(1, 8) == (0, 8)
        assert node_leaf_range(2, 8) == (0, 4)
        assert node_leaf_range(3, 8) == (4, 8)
        assert node_leaf_range(4, 8) == (0, 2)
        assert node_leaf_range(7, 8) == (6, 8)

    def test_children(self):
        assert node_children(0, 8) == (1, 1)
        assert node_children(1, 8) == (2, 3)
        assert node_children(3, 8) == (6, 7)
        assert node_children(4, 8) is None
        assert node_children(7, 8) is None
        assert node_children(0, 1) is None

    def test_parent(self):
        assert node_parent(1) == 0
        assert node_parent(2) == 1
        assert node_parent(7) == 3
        with pytest.raises(InvalidInputError):
            node_parent(0)

    def test_parent_child_consistency(self):
        n = 64
        for node in range(1, n):
            children = node_children(node, n)
            if children is not None:
                assert node_parent(children[0]) == node
                assert node_parent(children[1]) == node

    def test_levels(self):
        assert node_level(0) == 0
        assert node_level(1) == 0
        assert node_level(4) == 2

    def test_leaf_range_out_of_bounds(self):
        with pytest.raises(InvalidInputError):
            node_leaf_range(8, 8)


class TestPaths:
    def test_path_of_d5(self):
        # Figure 1: d_5 is reconstructed from c_0, c_1, c_3, c_6.
        assert data_path(5, 8) == [0, 1, 3, 6]

    def test_path_of_d0(self):
        assert data_path(0, 8) == [0, 1, 2, 4]

    def test_path_length(self):
        for n in (1, 2, 8, 64):
            for leaf in (0, n - 1):
                assert len(data_path(leaf, n)) == n.bit_length()

    def test_paths_are_nested_ranges(self):
        n = 32
        for leaf in range(n):
            for node in data_path(leaf, n):
                lo, hi = node_leaf_range(node, n)
                assert lo <= leaf < hi

    def test_out_of_range_leaf(self):
        with pytest.raises(InvalidInputError):
            data_path(8, 8)


class TestSigns:
    def test_root_is_always_positive(self):
        for leaf in range(8):
            assert leaf_sign(0, leaf, 8) == 1

    def test_left_right_split(self):
        # c_1 covers all leaves: first half +, second half -.
        assert [leaf_sign(1, leaf, 8) for leaf in range(8)] == [1, 1, 1, 1, -1, -1, -1, -1]
        # c_6 covers leaves 4,5 only.
        assert [leaf_sign(6, leaf, 8) for leaf in range(8)] == [0, 0, 0, 0, 1, -1, 0, 0]


class TestReconstruction:
    def test_paper_value_d5(self):
        # d_5 = 7 - 2 - 3 - (-1) = 3
        assert reconstruct_value(PAPER_TRANSFORM, 5, 8) == pytest.approx(3.0)

    def test_all_values_recovered(self):
        for leaf, expected in enumerate(PAPER_DATA):
            assert reconstruct_value(PAPER_TRANSFORM, leaf, 8) == pytest.approx(expected)

    def test_sparse_reconstruction(self):
        # Retaining {c_0, c_5, c_3} gives d_5_hat = 7 - 3 = 4 (Section 2.3).
        retained = {0: 7.0, 5: -13.0, 3: -3.0}
        assert reconstruct_value(retained, 5, 8) == pytest.approx(4.0)

    def test_paper_range_sum(self):
        # d(3:6) = 26 + 1 + 3 + 14 = 44 (Section 2.2 example).
        assert reconstruct_range_sum(PAPER_TRANSFORM, 3, 6, 8) == pytest.approx(44.0)

    def test_range_sums_match_bruteforce(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 100, size=16).astype(float)
        coeffs = haar_transform(data)
        for lo in range(16):
            for hi in range(lo, 16):
                expected = data[lo : hi + 1].sum()
                assert reconstruct_range_sum(coeffs, lo, hi, 16) == pytest.approx(expected)

    def test_range_sum_rejects_empty_range(self):
        with pytest.raises(InvalidInputError):
            reconstruct_range_sum(PAPER_TRANSFORM, 5, 3, 8)

    def test_single_point_range(self):
        assert reconstruct_range_sum(PAPER_TRANSFORM, 5, 5, 8) == pytest.approx(3.0)


class TestSubtreeNodes:
    def test_whole_tree(self):
        assert sorted(subtree_nodes(0, 8)) == list(range(8))

    def test_internal_subtree(self):
        assert sorted(subtree_nodes(3, 8)) == [3, 6, 7]

    def test_bottom_node(self):
        assert list(subtree_nodes(7, 8)) == [7]

    def test_subtree_leaf_ranges_are_contained(self):
        n = 32
        for root in range(1, n):
            root_lo, root_hi = node_leaf_range(root, n)
            for node in subtree_nodes(root, n):
                lo, hi = node_leaf_range(node, n)
                assert root_lo <= lo and hi <= root_hi

