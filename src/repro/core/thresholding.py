"""The public facade: one entry point over every thresholding algorithm.

:func:`build_synopsis` dispatches on algorithm name and metric, pads
non-power-of-two inputs, and wires a simulated cluster through the
distributed algorithms.  Downstream users who just want "a good max-error
synopsis of this array" start here; the per-algorithm modules remain
available for finer control.
"""

from __future__ import annotations

from numpy.typing import ArrayLike

from repro.algos.conventional import conventional_synopsis
from repro.algos.greedy_abs import greedy_abs
from repro.algos.greedy_rel import greedy_rel
from repro.algos.indirect_haar import indirect_haar
from repro.core.conventional_dist import (
    con_synopsis,
    h_wtopk_synopsis,
    send_coef_synopsis,
    send_v_synopsis,
)
from repro.core.dgreedy import d_greedy_abs, d_greedy_rel
from repro.core.dindirect import d_indirect_haar
from repro.data.loader import as_finite_series, pad_to_power_of_two
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import FileDataset
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND
from repro.wavelet.synopsis import WaveletSynopsis

__all__ = ["ALGORITHMS", "build_synopsis", "serving_error_target"]

#: Algorithm registry: name -> (metric, distributed?).
ALGORITHMS = {
    "greedy-abs": ("max_abs", False),
    "greedy-rel": ("max_rel", False),
    "indirect-haar": ("max_abs", False),
    "indirect-haar-restricted": ("max_abs", False),
    "conventional": ("l2", False),
    "dgreedy-abs": ("max_abs", True),
    "dgreedy-rel": ("max_rel", True),
    "dindirect-haar": ("max_abs", True),
    "dindirect-haar-restricted": ("max_abs", True),
    "con": ("l2", True),
    "send-v": ("l2", True),
    "send-coef": ("l2", True),
    "h-wtopk": ("l2", True),
}


def serving_error_target(
    data: ArrayLike,
    budget: int,
    delta: float = 1.0,
    rho: float = 0.0,
) -> float:
    """Derive the max-abs error target a serving DP series pins for ``budget``.

    The serving layer's incremental DP rebuild is only an exact replay
    when ``epsilon`` is held fixed across appends (re-running the
    IndirectHaar search after each append would re-probe different
    epsilons and invalidate every cached M-row).  This runs the
    centralized search once at registration time and returns the winning
    probe's epsilon; the degenerate case where the conventional synopsis
    is already exact falls back to ``delta`` (always feasible there).
    """
    values = pad_to_power_of_two(data)
    synopsis = indirect_haar(values, budget, delta, rho=rho)
    return float(synopsis.meta.get("epsilon", delta))


def build_synopsis(
    data: ArrayLike | FileDataset,
    budget: int,
    algorithm: str = "dgreedy-abs",
    cluster: SimulatedCluster | None = None,
    delta: float = 1.0,
    sanity_bound: float = DEFAULT_SANITY_BOUND,
    subtree_leaves: int = 1024,
    pad: bool = True,
    rho: float = 0.0,
    layer_plan: str | None = None,
) -> WaveletSynopsis:
    """Build a ``budget``-coefficient wavelet synopsis of ``data``.

    Parameters
    ----------
    data:
        One-dimensional, non-empty sequence of finite values; anything
        else raises :class:`~repro.exceptions.InvalidInputError`.
        Non-power-of-two lengths are zero-padded when ``pad`` is True
        (queries on indices past the original length return the padding).
        A :class:`~repro.mapreduce.hdfs.FileDataset` keeps the input on
        disk (out-of-core); only the sub-tree partitioned greedy
        algorithms (``dgreedy-abs``/``dgreedy-rel``) support it — every
        other driver materializes the full array.  Its values are not
        checked here (that would read the whole file).
    budget:
        Maximum number of retained coefficients ``B``.
    algorithm:
        One of :data:`ALGORITHMS`.  The default ``"dgreedy-abs"`` is the
        paper's fastest max-error algorithm.
    cluster:
        Simulated cluster for the distributed algorithms (a default
        40-map-slot cluster is created when omitted); its log ends up in
        ``synopsis.meta["cluster"]`` where the algorithm records one.
    delta:
        Quantization step for the DP-based algorithms (quality knob).
    sanity_bound:
        The ``S`` of the relative error metric.
    subtree_leaves:
        Sub-tree size for the distributed partitionings.
    rho:
        Coarsening knob of the approximate DP tier (DP-based algorithms
        only).  ``0`` is the exact DP; ``rho > 0`` trades an error
        inflation of at most ``(1 + rho)`` for narrower M-rows — see
        :func:`repro.algos.minhaarspace.approx_params`.
    layer_plan:
        Band schedule for the distributed DP algorithms
        (``dindirect-haar`` variants): ``"auto"`` for the adaptive
        planner, ``"h=K"`` / ``"H1,H2,..."`` (optionally ``"@driver"``)
        for an explicit schedule, or ``None`` for the classic uniform
        ``subtree_leaves`` decomposition.  Plans only change *where* DP
        work runs, never the synopsis — every plan is bit-identical at
        ``rho = 0``.  Rejected for algorithms without a distributed DP.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidInputError(
            f"unknown algorithm {algorithm!r}; choose one of {sorted(ALGORITHMS)}"
        )
    if layer_plan is not None and algorithm not in (
        "dindirect-haar",
        "dindirect-haar-restricted",
    ):
        raise InvalidInputError(
            f"layer_plan applies only to the distributed DP algorithms, not {algorithm!r}"
        )
    if isinstance(data, FileDataset):
        if algorithm not in ("dgreedy-abs", "dgreedy-rel"):
            raise InvalidInputError(
                f"algorithm {algorithm!r} materializes the full data array and "
                "cannot run on a FileDataset; use dgreedy-abs or dgreedy-rel"
            )
        cluster = cluster or SimulatedCluster()
        if algorithm == "dgreedy-abs":
            return d_greedy_abs(data, budget, cluster, base_leaves=subtree_leaves)
        return d_greedy_rel(
            data, budget, sanity_bound, cluster, base_leaves=subtree_leaves
        )
    values = pad_to_power_of_two(data) if pad else as_finite_series(data)

    if algorithm == "greedy-abs":
        return greedy_abs(values, budget)
    if algorithm == "greedy-rel":
        return greedy_rel(values, budget, sanity_bound)
    if algorithm == "indirect-haar":
        return indirect_haar(values, budget, delta, rho=rho)
    if algorithm == "indirect-haar-restricted":
        return indirect_haar(values, budget, delta, restricted=True, rho=rho)
    if algorithm == "conventional":
        return conventional_synopsis(values, budget)

    cluster = cluster or SimulatedCluster()
    if algorithm == "dgreedy-abs":
        return d_greedy_abs(values, budget, cluster, base_leaves=subtree_leaves)
    if algorithm == "dgreedy-rel":
        return d_greedy_rel(
            values, budget, sanity_bound, cluster, base_leaves=subtree_leaves
        )
    if algorithm == "dindirect-haar":
        return d_indirect_haar(
            values,
            budget,
            delta,
            cluster,
            subtree_leaves,
            rho=rho,
            layer_plan=layer_plan,
        )
    if algorithm == "dindirect-haar-restricted":
        return d_indirect_haar(
            values,
            budget,
            delta,
            cluster,
            subtree_leaves,
            restricted=True,
            rho=rho,
            layer_plan=layer_plan,
        )
    if algorithm == "con":
        return con_synopsis(values, budget, cluster, split_size=subtree_leaves)
    if algorithm == "send-v":
        return send_v_synopsis(values, budget, cluster, split_size=subtree_leaves)
    if algorithm == "send-coef":
        return send_coef_synopsis(values, budget, cluster, block_size=subtree_leaves)
    return h_wtopk_synopsis(values, budget, cluster, block_size=subtree_leaves)
