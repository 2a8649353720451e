"""The DP parallelization framework of Section 4 (Algorithm 1).

MinHaarSpace's per-node state is an *M-row* built from its two child
rows, so this driver distributes it:

1. the error tree is cut into bands of sub-trees by a
   :class:`~repro.core.partitioning.LayerPlan` — the classic fixed
   height ``h``, an explicit per-layer schedule, or the adaptive
   planner's pick (:func:`repro.core.layer_planner.plan_layers_auto`);
   the top band may be *driver-resident*, running inside the driver's
   finalize step instead of paying a MapReduce round per pass;
2. one MapReduce job per layer, bottom-up: each map task runs the DP over
   its sub-tree (straight from raw data at the bottom layer,
   :func:`~repro.algos.minhaarspace.compute_data_subtree_rows`; from the
   previous layer's emitted root rows above,
   :func:`~repro.algos.minhaarspace.compute_subtree_rows`) and emits
   ``(parent sub-tree, (root, M-row))`` — the ``(j, M[j])`` key-values
   of the paper; the shuffle regroups rows under the next layer's
   sub-trees, preserving locality;
3. the driver finalizes at the root, then a top-down pass of jobs re-enters
   each sub-tree to select coefficients (the "additional step" of
   Section 4), forwarding each sub-tree leaf's chosen incoming value to
   the layer below.

The framework's communication per layer is exactly Eq. 5 —
``|Layer_i|`` rows of ``max |M[j]|`` bytes — because the rows themselves
are what is shuffled.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.minhaarspace import (
    DualSolution,
    MRow,
    approx_params,
    compute_data_subtree_rows,
    compute_subtree_rows,
    finalize_root,
    min_haar_space,
    traceback_subtree,
)
from repro.exceptions import InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.serde import record_size
from repro.core.partitioning import (
    Layer,
    LayerPlan,
    dirty_subtrees,
    local_to_global,
    parse_layer_plan,
)
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import is_power_of_two

__all__ = [
    "LAYER_RECORD_OVERHEAD",
    "DPRowCache",
    "LayeredDPDriver",
    "dm_haar_space",
    "resolve_layer_plan",
]


@dataclass
class _BottomUpResult:
    top_row: MRow
    row_store: dict[tuple[int, int], list]


@dataclass(frozen=True)
class _SubtreeTraceback:
    """One sub-tree's top-down output and the incoming value it came from.

    ``coefficients`` are the ``(global node, value)`` pairs it selected;
    ``child_incomings`` the ``(child sub-tree root, incoming value)``
    pairs it forwarded to the layer below (none at the bottom layer).
    """

    incoming: int
    coefficients: list[tuple[int, float]]
    child_incomings: list[tuple[int, int]]


@dataclass
class DPRowCache:
    """Per-sub-tree DP state retained across incremental rebuilds.

    ``rows`` is the driver-side row store keyed ``(layer index, sub-tree
    root)`` — the same mapping :meth:`LayeredDPDriver.bottom_up` has
    always filled; ``emits`` keeps each sub-tree's upward emission, its
    root M-row, under the same key.  Both are pure functions of the
    sub-tree's data and the DP parameters, so a cached entry is
    bit-identical to what a from-scratch run would recompute —
    the exactness argument of the serving layer's incremental rebuild
    (docs/SERVING.md).  Entries for sub-trees marked dirty are simply
    overwritten; beyond :meth:`clear` on a full reset (e.g. when ``N``
    grows), the only invalidation is of ``tracebacks``.

    ``tracebacks`` keeps each distributed sub-tree's last top-down
    output under the same key.  It is a pure function of the sub-tree's
    rows and its incoming value, so :meth:`LayeredDPDriver.bottom_up`
    drops the entries of the sub-trees it recomputes, and
    :meth:`LayeredDPDriver.top_down` reuses an entry whose incoming value
    is unchanged.
    """

    rows: dict[tuple[int, int], list[MRow | None]] = field(default_factory=dict)
    emits: dict[tuple[int, int], MRow] = field(default_factory=dict)
    tracebacks: dict[tuple[int, int], _SubtreeTraceback] = field(default_factory=dict)

    def clear(self) -> None:
        """Drop all cached state (the next build recomputes everything)."""
        self.rows.clear()
        self.emits.clear()
        self.tracebacks.clear()


#: Serde bytes of one bottom-up layer record beyond its M-row payload:
#: key (parent int) + value-tuple framing + sub-tree root int.  The
#: Eq. 6 byte budgets (:mod:`repro.observe.bounds`) and the layer
#: planner's shuffle cost price each record with it.
LAYER_RECORD_OVERHEAD = record_size(0, (0,))


class _BottomUpLayerJob(MapReduceJob):
    """One stage of Algorithm 1: run the DP over each sub-tree in parallel.

    Map input: one split per sub-tree holding either raw data (bottom
    layer) or the child root rows delivered by the previous stage.  The
    map side caches the full row set for the later top-down pass (the
    stand-in for persisting to HDFS) and emits the local root's row keyed
    by the *parent* sub-tree.
    """

    #: Map tasks write the driver-side row store (the HDFS-persistence
    #: stand-in), so this job must run in the driver process.
    process_safe = False

    #: Per-layer instances share one role: the Eq. 6 bound checker keys
    #: on this label and matches layers by the per-instance ``name``.
    stage_label = "dp.bottom_up"

    def __init__(
        self,
        epsilon: float,
        delta: float,
        layer: Layer,
        row_store: dict[tuple[int, int], list[MRow | None]],
        parent_leaf_count: int,
    ) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.layer = layer
        self.row_store = row_store
        self.parent_leaf_count = parent_leaf_count
        self.name = f"dp-layer-{layer.index}"
        self.num_reducers = 0

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        spec = split.meta["spec"]
        if self.layer.is_bottom:
            rows = compute_data_subtree_rows(split.values, self.epsilon, self.delta)
        else:
            rows = compute_subtree_rows(split.meta["child_rows"], self.epsilon, self.delta)
        self.row_store[(self.layer.index, spec.root)] = rows
        root_row = rows[1] if len(rows) > 1 else rows[0]
        parent = spec.root // self.parent_leaf_count if not self.layer.is_top else 0
        yield parent, (spec.root, root_row)


class _TopDownLayerJob(MapReduceJob):
    """Coefficient selection: re-enter each sub-tree with its incoming value.

    Each map task also records its sub-tree's output in the driver-side
    ``tracebacks`` store, for :meth:`LayeredDPDriver.top_down` to reuse.
    """

    #: Reads the driver-side row store filled by the bottom-up pass and
    #: writes the driver-side traceback store.
    process_safe = False

    stage_label = "dp.traceback"

    def __init__(self, delta: float, layer: Layer, cache: DPRowCache) -> None:
        self.delta = delta
        self.layer = layer
        self.cache = cache
        self.name = f"dp-traceback-{layer.index}"
        self.num_reducers = 0

    def map(self, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        spec = split.meta["spec"]
        incoming = split.meta["incoming"]
        key = (self.layer.index, spec.root)
        assignments, leaf_incomings = traceback_subtree(
            self.cache.rows[key], incoming, self.delta
        )
        coefficients = [
            (local_to_global(spec.root, local_node), value)
            for local_node, value in assignments.items()
        ]
        child_incomings = (
            [] if self.layer.is_bottom else list(zip(spec.child_roots(), leaf_incomings))
        )
        self.cache.tracebacks[key] = _SubtreeTraceback(incoming, coefficients, child_incomings)
        for coefficient in coefficients:
            yield "coef", coefficient
        for child_incoming in child_incomings:
            yield "incoming", child_incoming


class LayeredDPDriver:
    """Runs MinHaarSpace at ``(epsilon, delta)`` over the whole error tree.

    The decomposition comes from a :class:`~repro.core.partitioning.LayerPlan`
    — pass ``plan`` explicitly (the adaptive planner's output, or any
    hand-written schedule); without one, the classic fixed-height
    decomposition derived from ``subtree_leaves`` is used.  A plan whose
    top band is *driver-resident* runs that band's single ``c_1``
    sub-tree inside the driver (both passes), saving one MapReduce round
    each way; the computation is the same row/traceback call a map task
    would have made, so synopses are bit-identical whatever the plan.
    ``epsilon`` and ``delta`` are the DP's own parameters, already
    resolved by :func:`~repro.algos.minhaarspace.approx_params`.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        cluster: SimulatedCluster,
        subtree_leaves: int = 1024,
        plan: LayerPlan | None = None,
    ) -> None:
        if delta <= 0:
            raise InvalidInputError("delta must be strictly positive")
        if not is_power_of_two(subtree_leaves) or subtree_leaves < 2:
            raise InvalidInputError("subtree_leaves must be a power of two >= 2")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.cluster = cluster
        self.subtree_leaves = subtree_leaves
        self.plan = plan

    def _plan(self, n: int) -> LayerPlan:
        if self.plan is not None:
            if self.plan.n != n:
                raise InvalidInputError(
                    f"layer plan is for N={self.plan.n}, but the data has N={n}"
                )
            return self.plan
        height = min(self.subtree_leaves.bit_length() - 1, n.bit_length() - 1)
        return LayerPlan.uniform(n, height)

    def bottom_up(
        self,
        data: np.ndarray,
        cache: DPRowCache | None = None,
        dirty_range: tuple[int, int] | None = None,
    ) -> _BottomUpResult:
        """Algorithm 1: compute every sub-tree's rows, return the top row.

        ``cache`` carries per-sub-tree state across calls (the serving
        layer's incremental rebuild); ``dirty_range`` restricts the work
        to the sub-trees overlapping the half-open leaf range — every
        other sub-tree's rows and upward emission are read from the
        cache, which must then hold a complete prior build of the same
        plan and DP parameters.  Without either argument the behavior is
        the classic full build (and bit-identical to it in every mode:
        cached entries are pure functions of sub-tree data).
        """
        values = np.asarray(data, dtype=np.float64)
        n = int(values.shape[0])
        plan = self._plan(n)
        self.cluster.log.meta["layer_plan"] = plan.describe()
        layers = plan.layers()
        if cache is None:
            cache = DPRowCache()
        row_store = cache.rows
        if dirty_range is None:
            dirty_layers = [layer.subtrees for layer in layers]
        else:
            dirty_layers = dirty_subtrees(plan, dirty_range[0], dirty_range[1])
        for layer, dirty in zip(layers, dirty_layers):
            for spec in dirty:
                cache.tracebacks.pop((layer.index, spec.root), None)

        bottom = layers[0]
        leaf_count = bottom.subtrees[0].leaf_count
        splits: list[InputSplit] = []
        for i, spec in enumerate(dirty_layers[0]):
            start = (spec.root - (1 << (spec.root.bit_length() - 1))) * leaf_count
            splits.append(
                InputSplit(
                    split_id=i,
                    offset=start,
                    values=values[start : start + leaf_count],
                    meta={"spec": spec},
                )
            )

        for layer in layers:
            if not plan.is_distributed(layer.index):
                return self._driver_bottom_up(layer, cache)
            if layer.is_top:
                parent_leaf_count = 1
            else:
                parent_leaf_count = layers[layer.index + 1].subtrees[0].leaf_count
            job = _BottomUpLayerJob(
                self.epsilon, self.delta, layer, row_store, parent_leaf_count
            )
            result = self.cluster.run_job(job, splits)
            for _parent, (child_root, row) in result.output:
                cache.emits[(layer.index, child_root)] = row
            if layer.is_top:
                top_row = cache.emits[(layer.index, layer.subtrees[0].root)]
                return _BottomUpResult(top_row=top_row, row_store=row_store)
            next_layer = layers[layer.index + 1]
            if not plan.is_distributed(next_layer.index):
                # The driver-resident band reads the cached emissions.
                continue
            # Regroup emitted rows under the next layer's dirty sub-trees
            # (clean children come from the cache's prior emissions).
            splits = []
            for i, spec in enumerate(dirty_layers[next_layer.index]):
                child_rows = [cache.emits[(layer.index, root)] for root in spec.child_roots()]
                splits.append(
                    InputSplit(
                        split_id=i,
                        offset=0,
                        values=np.empty(0),
                        meta={"spec": spec, "child_rows": child_rows},
                    )
                )
        raise AssertionError("a layer plan always terminates in a top band")

    def _driver_bottom_up(self, layer: Layer, cache: DPRowCache) -> _BottomUpResult:
        """Run the driver-resident top band: same DP call, no MapReduce round."""
        spec = layer.subtrees[0]
        child_rows = [cache.emits[(layer.index - 1, root)] for root in spec.child_roots()]
        with self.cluster.driver():
            rows = compute_subtree_rows(child_rows, self.epsilon, self.delta)
        cache.rows[(layer.index, spec.root)] = rows
        top_row = rows[1] if len(rows) > 1 else rows[0]
        assert top_row is not None
        return _BottomUpResult(top_row=top_row, row_store=cache.rows)

    def top_down(
        self, data_length: int, cache: DPRowCache, root_incoming: int
    ) -> dict[int, float]:
        """Select the synopsis coefficients layer by layer, top to bottom.

        ``cache`` holds the rows :meth:`bottom_up` filled.  A distributed
        sub-tree whose cached traceback was entered with the same incoming
        value runs no map task: its cached coefficients and child incoming
        values are used, so an incremental rebuild re-enters only the
        sub-trees it recomputed and those whose incoming value changed.
        """
        plan = self._plan(data_length)
        layers = plan.layers()
        assignments: dict[int, float] = {}
        incomings: dict[int, int] = {1: root_incoming}
        for layer in reversed(layers):
            if not plan.is_distributed(layer.index):
                # Driver-resident top band: traceback in the driver.
                spec = layer.subtrees[0]
                with self.cluster.driver():
                    local_assignments, leaf_incomings = traceback_subtree(
                        cache.rows[(layer.index, spec.root)], incomings[spec.root], self.delta
                    )
                for local_node, value in local_assignments.items():
                    assignments[local_to_global(spec.root, local_node)] = float(value)
                incomings = {}
                for child_root, child_incoming in zip(spec.child_roots(), leaf_incomings):
                    incomings[int(child_root)] = int(child_incoming)
                continue
            splits = []
            reused = []
            for spec in layer.subtrees:
                incoming = incomings[spec.root]
                cached = cache.tracebacks.get((layer.index, spec.root))
                if cached is not None and cached.incoming == incoming:
                    reused.append(cached)
                    continue
                splits.append(
                    InputSplit(
                        split_id=len(splits),
                        offset=0,
                        values=np.empty(0),
                        meta={"spec": spec, "incoming": incoming},
                    )
                )
            incomings = {}
            if splits:
                result = self.cluster.run_job(_TopDownLayerJob(self.delta, layer, cache), splits)
                for kind, payload in result.output:
                    if kind == "coef":
                        node, value = payload
                        assignments[int(node)] = float(value)
                    else:
                        child_root, child_incoming = payload
                        incomings[int(child_root)] = int(child_incoming)
            for entry in reused:
                assignments.update(entry.coefficients)
                incomings.update(entry.child_incomings)
        return assignments

    def solve(
        self,
        data: ArrayLike,
        construct: bool = True,
        cache: DPRowCache | None = None,
        dirty_range: tuple[int, int] | None = None,
    ) -> tuple[int, float, dict[int, float]]:
        """Both passes: bottom-up, ``c_0`` in the driver, then top-down.

        Returns ``(size, error, coefficients)``.  ``coefficients`` holds
        the selected synopsis (``c_0`` under index 0 when kept), or
        nothing when ``construct`` is False, which skips the top-down
        pass.  ``cache`` and ``dirty_range`` are passed to
        :meth:`bottom_up`.  Both passes run in one runtime session.
        """
        values = np.asarray(data, dtype=np.float64)
        if cache is None:
            cache = DPRowCache()
        with self.cluster.runtime.session():
            result = self.bottom_up(values, cache, dirty_range)
            with self.cluster.driver():
                size, error, chosen = finalize_root(
                    result.top_row, self.epsilon, self.delta
                )
            coefficients: dict[int, float] = {}
            if construct:
                if chosen != 0:
                    coefficients[0] = chosen * self.delta
                coefficients.update(self.top_down(len(values), cache, chosen))
        return size, error, coefficients


def resolve_layer_plan(
    layer_plan: LayerPlan | str | None,
    n: int,
    epsilon: float,
    delta: float,
    cluster: SimulatedCluster,
    rho: float = 0.0,
) -> LayerPlan | None:
    """Resolve a ``--layer-plan``-style argument into a concrete plan.

    ``None`` stays ``None`` (the driver falls back to the classic
    ``subtree_leaves`` decomposition); ``"auto"`` invokes the adaptive
    planner against the cluster's cost model; any other string goes
    through :func:`~repro.core.partitioning.parse_layer_plan`.
    """
    if layer_plan is None or isinstance(layer_plan, LayerPlan):
        return layer_plan
    if layer_plan.strip().lower() == "auto":
        from repro.core.layer_planner import plan_layers_auto

        return plan_layers_auto(n, epsilon, delta, cluster.config, rho=rho)
    return parse_layer_plan(layer_plan, n)


def dm_haar_space(
    data: ArrayLike,
    epsilon: float,
    delta: float,
    cluster: SimulatedCluster | None = None,
    subtree_leaves: int = 1024,
    construct: bool = True,
    rho: float = 0.0,
    layer_plan: LayerPlan | str | None = None,
) -> DualSolution:
    """DMHaarSpace: the distributed MinHaarSpace (Section 4).

    Semantically identical to :func:`repro.algos.minhaarspace.min_haar_space`
    — the framework shuffles exact M-rows, so counts, errors, and the
    selected synopsis all match the centralized run.  ``construct=False``
    skips the top-down pass (enough for the probes of the binary search).

    ``rho > 0`` runs the whole layered DP at the coarsened
    :func:`~repro.algos.minhaarspace.approx_params` grid — every shipped
    M-row shrinks accordingly, and the Eq. 6 checker
    (:func:`repro.observe.bounds.check_dmhaarspace_trace`) budgets with
    the same coarsened parameters.

    ``layer_plan`` overrides the fixed-``subtree_leaves`` banding: a
    :class:`~repro.core.partitioning.LayerPlan`, a spec string
    (``"h=K"`` / ``"H1,H2,..."``, optionally ``@driver``), or ``"auto"``
    to let :func:`~repro.core.layer_planner.plan_layers_auto` pick the
    minimum-predicted-makespan schedule for this cluster.  Any plan
    yields a bit-identical synopsis at ``rho = 0`` — it only changes how
    the same exact DP is scheduled.
    """
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    n = int(values.shape[0])
    cluster = cluster or SimulatedCluster()
    nominal_delta = delta
    epsilon_dp, delta = approx_params(epsilon, delta, n, rho)
    if n == 1:
        with cluster.driver():
            return min_haar_space(values, epsilon, delta, rho=rho)

    plan = resolve_layer_plan(layer_plan, n, epsilon, nominal_delta, cluster, rho=rho)
    driver = LayeredDPDriver(epsilon_dp, delta, cluster, subtree_leaves, plan=plan)
    size, error, coefficients = driver.solve(values, construct)
    synopsis = WaveletSynopsis(
        n=n,
        coefficients=coefficients,
        meta={
            "algorithm": "DMHaarSpace",
            "epsilon": epsilon,
            "delta": delta,
            "rho": rho,
            "max_abs_error": error,
            "constructed": construct,
            "layer_plan": driver._plan(n).describe(),
        },
    )
    return DualSolution(size=size, max_error=error, synopsis=synopsis, epsilon=epsilon)
