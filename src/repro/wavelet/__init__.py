"""Haar wavelet substrate: transform, error tree, synopses, and metrics."""

from repro.wavelet.error_tree import (
    ErrorTree,
    data_path,
    incoming_value,
    leaf_sign,
    node_children,
    node_leaf_range,
    node_level,
    node_parent,
    reconstruct_range_sum,
    reconstruct_value,
    subtree_nodes,
)
from repro.wavelet.metrics import (
    DEFAULT_SANITY_BOUND,
    l2_error,
    max_abs_error,
    max_rel_error,
    signed_errors,
)
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.synopsis2d import (
    WaveletSynopsis2D,
    conventional_synopsis_2d,
    greedy_abs_2d,
)
from repro.wavelet.transform2d import (
    haar_transform_2d,
    inverse_haar_transform_2d,
    normalized_significance_2d,
    range_weights,
    reconstruct_cell,
    reconstruct_rectangle_sum,
)
from repro.wavelet.transform import (
    coefficient_level,
    coefficient_levels,
    decomposition_steps,
    haar_basis_vector,
    haar_transform,
    inverse_haar_transform,
    is_power_of_two,
    normalized_significance,
)

__all__ = [
    "ErrorTree",
    "WaveletSynopsis",
    "WaveletSynopsis2D",
    "conventional_synopsis_2d",
    "greedy_abs_2d",
    "haar_transform_2d",
    "inverse_haar_transform_2d",
    "normalized_significance_2d",
    "range_weights",
    "reconstruct_cell",
    "reconstruct_rectangle_sum",
    "DEFAULT_SANITY_BOUND",
    "coefficient_level",
    "coefficient_levels",
    "data_path",
    "decomposition_steps",
    "haar_basis_vector",
    "haar_transform",
    "incoming_value",
    "inverse_haar_transform",
    "is_power_of_two",
    "l2_error",
    "leaf_sign",
    "max_abs_error",
    "max_rel_error",
    "node_children",
    "node_leaf_range",
    "node_level",
    "node_parent",
    "normalized_significance",
    "reconstruct_range_sum",
    "reconstruct_value",
    "signed_errors",
    "subtree_nodes",
]
