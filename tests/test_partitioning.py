"""Tests for the error-tree partitioning schemes (Section 4 / Figure 4)."""

import pytest

from repro.core.partitioning import (
    dp_layers,
    global_subtree_coefficients,
    local_to_global,
    root_base_partition,
)
from repro.exceptions import InvalidInputError
from repro.wavelet.error_tree import node_leaf_range, subtree_nodes
from repro.wavelet.transform import haar_transform


class TestDPLayers:
    def test_layer_count_matches_ceiling(self):
        # ceil(log N / h) layers (Section 4).
        for log_n, h in [(10, 3), (12, 4), (8, 8), (9, 2), (4, 10)]:
            layers = dp_layers(1 << log_n, h)
            assert len(layers) == -(-log_n // h)

    def test_bottom_layer_covers_all_data(self):
        layers = dp_layers(1 << 10, 3)
        bottom = layers[0]
        covered = []
        for spec in bottom.subtrees:
            lo, hi = node_leaf_range(spec.root, 1 << 10)
            covered.append((lo, hi))
        covered.sort()
        assert covered[0][0] == 0 and covered[-1][1] == 1 << 10
        for (_, hi), (lo, _) in zip(covered, covered[1:]):
            assert hi == lo

    def test_all_detail_nodes_covered_exactly_once(self):
        n, h = 1 << 9, 3
        seen = set()
        for layer in dp_layers(n, h):
            for spec in layer.subtrees:
                # Nodes of this sub-tree: spec.root's slice of `height` levels.
                height = spec.leaf_count.bit_length() - 1
                nodes = [
                    node
                    for node in subtree_nodes(spec.root, n)
                    if node.bit_length() - spec.root.bit_length() < height
                ]
                for node in nodes:
                    assert node not in seen
                    seen.add(node)
        assert seen == set(range(1, n))

    def test_top_layer_is_single_subtree_at_root(self):
        layers = dp_layers(1 << 10, 3)
        top = layers[-1]
        assert top.is_top
        assert len(top.subtrees) == 1
        assert top.subtrees[0].root == 1

    def test_child_roots_chain_between_layers(self):
        layers = dp_layers(1 << 10, 3)
        for lower, upper in zip(layers, layers[1:]):
            lower_roots = [spec.root for spec in lower.subtrees]
            chained = [
                root for spec in upper.subtrees for root in spec.child_roots()
            ]
            assert sorted(chained) == sorted(lower_roots)

    def test_single_layer_when_tree_is_shallow(self):
        layers = dp_layers(16, 10)
        assert len(layers) == 1
        assert layers[0].is_bottom and layers[0].is_top

    def test_layer_sizes_follow_eq4_shape(self):
        # Each layer is 2^h times smaller than the one below.
        layers = dp_layers(1 << 12, 4)
        sizes = [len(layer.subtrees) for layer in layers]
        assert sizes == [256, 16, 1]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            dp_layers(100, 3)
        with pytest.raises(InvalidInputError):
            dp_layers(16, 0)
        with pytest.raises(InvalidInputError):
            dp_layers(1, 3)


class TestRootBasePartition:
    def test_paper_size_identity(self):
        # N = R + R * S with S = N/R - 1 (Section 5.3).
        n, base_leaves = 1 << 10, 1 << 6
        root_size, bases = root_base_partition(n, base_leaves)
        s = bases[0].leaf_count - 1
        assert n == root_size + root_size * s
        assert len(bases) == root_size

    def test_base_roots_are_contiguous_level(self):
        root_size, bases = root_base_partition(256, 32)
        assert [spec.root for spec in bases] == list(range(root_size, 2 * root_size))

    def test_bases_cover_all_data(self):
        n = 512
        _, bases = root_base_partition(n, 64)
        ranges = sorted(node_leaf_range(spec.root, n) for spec in bases)
        assert ranges[0][0] == 0 and ranges[-1][1] == n

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            root_base_partition(100, 4)
        with pytest.raises(InvalidInputError):
            root_base_partition(64, 3)
        with pytest.raises(InvalidInputError):
            root_base_partition(64, 64)


class TestLocalGlobalMapping:
    def test_root_maps_to_itself(self):
        assert local_to_global(5, 1) == 5

    def test_children_follow_positional_bits(self):
        assert local_to_global(5, 2) == 10
        assert local_to_global(5, 3) == 11
        assert local_to_global(5, 4) == 20
        assert local_to_global(5, 7) == 23

    def test_rejects_zero_local_index(self):
        with pytest.raises(InvalidInputError):
            local_to_global(5, 0)

    def test_roundtrip_with_global_to_local(self):
        from tests._reference import global_to_local

        for root in (1, 3, 5, 12):
            for local in range(1, 16):
                globl = local_to_global(root, local)
                assert global_to_local(root, globl) == local

    def test_extracted_coefficients_match_slice_transform(self):
        # The local transform of a sub-tree's data slice equals the global
        # coefficients of its sub-tree nodes — the fact every distributed
        # mapper relies on.
        import numpy as np

        rng = np.random.default_rng(17)
        data = rng.uniform(0, 100, size=64)
        coeffs = haar_transform(data)
        n = 64
        for root in (2, 5, 9):
            lo, hi = node_leaf_range(root, n)
            local_transform = haar_transform(data[lo:hi])
            extracted = global_subtree_coefficients(coeffs, root, hi - lo)
            for local_node in range(1, hi - lo):
                assert local_transform[local_node] == pytest.approx(extracted[local_node])
