"""Analytical communication bounds, checked against measured traces.

The paper's scalability argument is analytical: each stage of the layered
DP ships ``O(N * max|M[j]| / 2^h)`` bytes (Eq. 6), and DGreedyAbs's
error-bucketed histograms bound what a base sub-tree may emit.  This
module turns both arguments into *checkable predictions*: from the run
parameters alone (no execution) it computes a per-stage byte budget under
the serde model, and :func:`check_dmhaarspace_trace` /
:func:`check_dgreedy_trace` assert a measured trace
(:meth:`repro.mapreduce.cluster.RunLog.trace`) stays within it.

Eq. 6 derivation, concretized to our serde model
------------------------------------------------

A layer of height ``h`` over an ``N``-point tree has ``N / 2^h``
sub-trees at the bottom (fewer above — Eq. 4), and each bottom-up layer
job emits exactly **one record per sub-tree**: ``(parent, (root,
M-row))``, i.e. a fixed per-record overhead (``record_size(0, (0,))``,
:data:`~repro.core.dp_framework.LAYER_RECORD_OVERHEAD`) plus one
serialized :class:`~repro.algos.minhaarspace.MRow`.  A row over incoming values
``v`` with ``|v - data| <= epsilon`` on a ``delta`` grid spans at most
``floor(2*epsilon/delta) + 2`` grid points, and
:func:`~repro.algos.minhaarspace.combine_rows` only ever *halves and
intersects* domains, so no row in the tree is ever wider than that leaf
worst case.  Hence per layer::

    bytes(layer) <= |subtrees(layer)| * (OVERHEAD + MRow(W_max) bytes)
    W_max = floor(2*epsilon/delta') + 2,  delta' = effective_delta(...)

which is exactly Eq. 6's ``O(N * max|M[j]| / 2^h)`` with the constants
filled in.  The checker recomputes ``delta'`` the same way
:func:`~repro.core.dp_framework.dm_haar_space` does, so the prediction
uses the grid the run actually used.

DGreedyAbs histogram bound
--------------------------

Job 1 emits one record per (base sub-tree, distinct incoming error,
reducer): the run's histogram as columns plus the ids of the candidates
it serves.  Take ``R = N / s`` sub-trees of ``s`` leaves,
``C = min(R, B) + 1`` candidates and ``r`` reducers:

* candidate ``k`` goes to reducer ``k * r // C``, so each reducer owns a
  contiguous range of the nested candidates.  A sub-tree's incoming
  error changes only when a candidate adds one of its ``log2 R + 1``
  root-path nodes, so the candidates split into at most ``log2 R + 2``
  runs of equal error, and the ``r - 1`` range boundaries cut them into
  at most ``P = min(C, log2 R + 1 + r)`` records;
* the candidate ids of one sub-tree's records total ``C``;
* a record holds at most ``s - 1`` buckets (one per removable detail
  coefficient; the average slot belongs to the root sub-tree).

Hence::

    bytes(job 1) <= R * (P * (rec + (s - 1) * bucket) + C * id)

with ``rec``, ``bucket`` and ``id`` (44, 24 and 8 bytes) read off
:func:`repro.mapreduce.serde.record_size` on template records, so the
bound tracks the serde model by construction.  The reducer count ``r``
comes from the traced job's reduce stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.algos.minhaarspace import MRow, max_row_entries
from repro.core.dp_framework import LAYER_RECORD_OVERHEAD
from repro.core.partitioning import LayerPlan, parse_layer_plan, root_base_partition
from repro.exceptions import InvalidInputError
from repro.mapreduce.serde import record_size
from repro.mapreduce.tracing import job_emitted_bytes

__all__ = [
    "BoundCheck",
    "LayerBound",
    "check_dgreedy_trace",
    "check_dmhaarspace_trace",
    "dgreedy_histogram_bound",
    "dmhaarspace_layer_bounds",
]

@dataclass(frozen=True)
class LayerBound:
    """The Eq. 6 prediction for one bottom-up layer job."""

    index: int
    job_name: str
    subtrees: int
    #: Smallest possible emission: one record per sub-tree, 1-entry rows.
    bytes_floor: int
    #: Eq. 6 budget: one record per sub-tree, worst-case-width rows.
    bytes_bound: int


def dmhaarspace_layer_bounds(
    n: int,
    subtree_leaves: int,
    epsilon: float,
    delta: float,
    rho: float = 0.0,
    plan: LayerPlan | None = None,
) -> list[LayerBound]:
    """Eq. 6 per-layer byte budgets for a :func:`dm_haar_space` run.

    Mirrors :class:`~repro.core.dp_framework.LayeredDPDriver`: the same
    layer decomposition and the same effective (or, at ``rho > 0``,
    coarsened) ``delta``, so bound ``i`` lines up with the traced job
    ``dp-layer-i``.  ``plan`` budgets a variable-height
    :class:`~repro.core.partitioning.LayerPlan` (Eq. 6 generalizes
    band-by-band: a band whose roots sit at level ``u`` ships ``2^u``
    records); without one, the classic ``subtree_leaves`` decomposition
    is assumed.  A driver-resident top band launches no job and ships
    nothing, so it produces no bound row.
    """
    if n < 2:
        raise InvalidInputError("Eq. 6 bounds need at least a 2-point tree")
    if plan is None:
        height = min(subtree_leaves.bit_length() - 1, n.bit_length() - 1)
        plan = LayerPlan.uniform(n, height)
    elif plan.n != n:
        raise InvalidInputError(f"layer plan is for N={plan.n}, not N={n}")
    entries = max_row_entries(epsilon, delta, n, rho)
    per_record_bound = LAYER_RECORD_OVERHEAD + MRow.sized(entries)
    per_record_floor = LAYER_RECORD_OVERHEAD + MRow.sized(1)
    bounds = []
    for layer in plan.layers():
        if not plan.is_distributed(layer.index):
            continue
        count = len(layer.subtrees)
        bounds.append(
            LayerBound(
                index=layer.index,
                job_name=f"dp-layer-{layer.index}",
                subtrees=count,
                bytes_floor=count * per_record_floor,
                bytes_bound=count * per_record_bound,
            )
        )
    return bounds


def _histogram_record_size(ids: int, buckets: int) -> int:
    """Serde bytes of one job-1 record serving ``ids`` candidates."""
    key = (0, 0, 0)  # (reducer, sub-tree, first candidate id)
    value = (
        np.zeros(ids, dtype=np.int64),
        np.zeros(buckets, dtype=np.float64),
        np.zeros(buckets, dtype=np.int64),
        np.zeros(buckets, dtype=np.float64),
        0.0,
    )
    return record_size(key, value)


#: Job-1 record framing, and the bytes each bucket and candidate id adds.
_HISTOGRAM_RECORD = _histogram_record_size(0, 0)
_HISTOGRAM_BUCKET = _histogram_record_size(0, 1) - _HISTOGRAM_RECORD
_HISTOGRAM_ID = _histogram_record_size(1, 0) - _HISTOGRAM_RECORD


def dgreedy_histogram_bound(n: int, base_leaves: int, budget: int, reducers: int) -> int:
    """Histogram-compression byte budget for DGreedyAbs's job 1.

    See the module docstring for the derivation; record sizes come from
    the serde model applied to template records, so the bound and the
    measurement can never drift apart silently.
    """
    r, _ = root_base_partition(n, base_leaves)
    candidates = min(r, budget) + 1
    records = min(candidates, r.bit_length() + reducers)  # log2 R + 1 + reducers
    per_record = _HISTOGRAM_RECORD + (base_leaves - 1) * _HISTOGRAM_BUCKET
    return r * (records * per_record + candidates * _HISTOGRAM_ID)


@dataclass(frozen=True)
class BoundCheck:
    """One stage's measured bytes against its analytical budget."""

    job_name: str
    stage_label: str
    measured_bytes: int
    bound_bytes: int

    @property
    def ok(self) -> bool:
        return self.measured_bytes <= self.bound_bytes

    @property
    def utilization(self) -> float:
        """Measured bytes as a fraction of the budget (diagnostic)."""
        if self.bound_bytes == 0:
            return math.inf if self.measured_bytes else 0.0
        return self.measured_bytes / self.bound_bytes


def _jobs_by_label(trace: dict[str, Any], stage_label: str) -> list[dict[str, Any]]:
    return [
        job for job in trace.get("jobs", []) if job.get("stage_label") == stage_label
    ]


def check_dmhaarspace_trace(
    trace: dict[str, Any],
    n: int,
    subtree_leaves: int,
    epsilon: float,
    delta: float,
    rho: float = 0.0,
    plan: LayerPlan | None = None,
) -> list[BoundCheck]:
    """Check every traced bottom-up DP layer against its Eq. 6 budget.

    Returns one :class:`BoundCheck` per ``dp.bottom_up`` job in the
    trace.  A binary-search driver runs several bottom-up passes per
    invocation; each pass's layer jobs are checked against the bound for
    their layer index (matched by job name).  Raises when the trace has
    no bottom-up jobs — a silent pass on an empty selection would make
    the assertion meaningless.  Pass the ``rho`` the run was built with:
    coarsened runs are budgeted with the coarsened Eq. 6 parameters, no
    slack.

    The layer decomposition is resolved in precedence order: an explicit
    ``plan`` argument, then the ``layer_plan`` the traced run recorded in
    its ``meta`` document (every DP run records its resolved plan, so
    traces are self-describing), then the classic ``subtree_leaves``
    decomposition.
    """
    if plan is None:
        recorded = trace.get("meta", {}).get("layer_plan")
        if recorded is not None:
            plan = parse_layer_plan(str(recorded), n)
    by_name = {
        bound.job_name: bound
        for bound in dmhaarspace_layer_bounds(
            n, subtree_leaves, epsilon, delta, rho, plan=plan
        )
    }
    jobs = _jobs_by_label(trace, "dp.bottom_up")
    if not jobs:
        raise InvalidInputError("trace contains no dp.bottom_up jobs to check")
    checks = []
    for job in jobs:
        name = str(job.get("name", ""))
        if name not in by_name:
            raise InvalidInputError(
                f"traced job {name!r} matches no layer of an N={n} decomposition"
            )
        checks.append(
            BoundCheck(
                job_name=name,
                stage_label="dp.bottom_up",
                measured_bytes=job_emitted_bytes(job),
                bound_bytes=by_name[name].bytes_bound,
            )
        )
    return checks


def _reduce_tasks(job: dict[str, Any]) -> int:
    """The number of reduce tasks a traced job ran."""
    for stage in job.get("stages", []):
        if stage.get("name") == "reduce":
            return len(stage.get("tasks", []))
    return 0


def check_dgreedy_trace(
    trace: dict[str, Any], n: int, base_leaves: int, budget: int
) -> list[BoundCheck]:
    """Check DGreedyAbs's histogram job(s) against the emission budget."""
    jobs = _jobs_by_label(trace, "dgreedy.histograms")
    if not jobs:
        raise InvalidInputError("trace contains no dgreedy.histograms jobs to check")
    return [
        BoundCheck(
            job_name=str(job.get("name", "")),
            stage_label="dgreedy.histograms",
            measured_bytes=job_emitted_bytes(job),
            bound_bytes=dgreedy_histogram_bound(
                n, base_leaves, budget, _reduce_tasks(job)
            ),
        )
        for job in jobs
    ]
