"""Meta-test: every concrete job satisfies the process-safety contract.

A job is either

* ``process_safe`` (the default) — :class:`~repro.mapreduce.process.ProcessPoolRuntime`
  ships it to worker processes, so it must pickle (the *class* by
  reference, which a class defined inside a function cannot, and a
  representative *instance*), and its tasks must not pass state to one
  another through the job or a module global, which a worker's copy
  would lose; or
* ``process_safe = False`` — it shares driver-side state and runs through
  the in-process fallback.  Those jobs must be the known, documented set,
  and the fallback path itself is exercised here end to end.

The contract is checked by running it: every distributed algorithm
builds one series on the local runtime and on a two-worker process pool,
and the two runs must give the same synopsis and the same canonical
trace.  Over all of them the runs must cover every concrete job's stage
label, so no job escapes the comparison.

New concrete job classes fail this test until they are added to the
instance registry below — by design, so the pickling contract is decided
at review time rather than discovered in a worker traceback.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from functools import lru_cache
from typing import Any

import numpy as np
import pytest

import repro
from repro.core.conventional_dist import (
    _ConJob,
    _HWTopkRound,
    _SendCoefJob,
    _SendVJob,
)
from repro.core.dgreedy import (
    _AbsEngine,
    _AverageJob,
    _Candidate,
    _ConstructJob,
    _HistogramJob,
)
from repro.core.dindirect import _EvaluateSynopsisJob, _LowerBoundJob
from repro.core.dp_framework import _BottomUpLayerJob, _TopDownLayerJob, dm_haar_space
from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.mapreduce import (
    LocalRuntime,
    MapReduceJob,
    ProcessPoolRuntime,
    SimulatedCluster,
    canonical_trace,
)


def _import_all_repro_modules() -> None:
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # executable entry points parse sys.argv on import
        importlib.import_module(info.name)


def _concrete_job_classes() -> set[type[MapReduceJob]]:
    _import_all_repro_modules()
    found: set[type[MapReduceJob]] = set()
    frontier = [MapReduceJob]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            frontier.append(sub)
            if "map" in sub.__dict__:
                found.add(sub)
    return found


def _candidate() -> _Candidate:
    return _Candidate(index=1, retained={0: 7.0}, incoming=np.zeros(2))


#: One representative, fully-constructed instance per process-safe job class.
PROCESS_SAFE_INSTANCES: dict[type[MapReduceJob], MapReduceJob] = {
    _ConJob: _ConJob(8, 4, 4),
    _SendVJob: _SendVJob(8, 4),
    _SendCoefJob: _SendCoefJob(8, 4),
    _HWTopkRound: _HWTopkRound(8, 4, "candidates", candidates={1, 2}),
    _LowerBoundJob: _LowerBoundJob(8, 4, 4),
    _EvaluateSynopsisJob: _EvaluateSynopsisJob(8, {1: 3.0}, 4),
    _HistogramJob: _HistogramJob(_AbsEngine(), [_candidate()], 4, 1e-6, 2),
    _ConstructJob: _ConstructJob(_AbsEngine(), _candidate(), 0.0, 1e-6, 8),
    _AverageJob: _AverageJob(),
}

#: Jobs that share driver-side state and therefore run in-process only.
KNOWN_DRIVER_STATE_JOBS = {_BottomUpLayerJob, _TopDownLayerJob}


def test_every_concrete_job_is_classified():
    concrete = {
        cls
        for cls in _concrete_job_classes()
        if cls.__module__.startswith("repro.")
    }
    unclassified = concrete - set(PROCESS_SAFE_INSTANCES) - KNOWN_DRIVER_STATE_JOBS
    assert not unclassified, (
        "new concrete job classes must be registered in "
        "tests/test_job_process_safety.py (process-safe + picklable, or in the "
        f"known driver-state set): {sorted(c.__qualname__ for c in unclassified)}"
    )


def test_every_concrete_job_declares_a_stage_label():
    # The tracing subsystem groups jobs by their algorithm role; a job
    # without a stage label is invisible to the bound checkers and the
    # per-stage communication roll-ups, so declaring one is mandatory.
    concrete = {
        cls for cls in _concrete_job_classes() if cls.__module__.startswith("repro.")
    }
    unlabeled = sorted(
        cls.__qualname__
        for cls in concrete
        if not getattr(cls, "stage_label", "")
    )
    assert not unlabeled, (
        "every concrete MapReduceJob must declare a non-empty stage_label "
        f"ClassVar (see repro.mapreduce.job): {unlabeled}"
    )


@pytest.mark.parametrize(
    "cls", sorted(PROCESS_SAFE_INSTANCES, key=lambda c: c.__qualname__)
)
def test_process_safe_job_class_pickles(cls):
    # Pickling the class itself verifies it is defined at module level —
    # the exact failure mode of a job class created inside a function.
    assert pickle.loads(pickle.dumps(cls)) is cls


@pytest.mark.parametrize(
    "cls", sorted(PROCESS_SAFE_INSTANCES, key=lambda c: c.__qualname__)
)
def test_process_safe_job_instance_round_trips(cls):
    job = PROCESS_SAFE_INSTANCES[cls]
    assert job.process_safe, f"{cls.__qualname__} is registered as process-safe"
    clone = pickle.loads(pickle.dumps(job))
    assert type(clone) is cls
    assert clone.name == job.name
    assert clone.num_reducers == job.num_reducers


@pytest.mark.parametrize(
    "cls", sorted(KNOWN_DRIVER_STATE_JOBS, key=lambda c: c.__qualname__)
)
def test_driver_state_jobs_opt_out(cls):
    assert cls.process_safe is False
    assert "process_safe" in cls.__dict__, "opt-out must be explicit on the class"


def test_driver_state_jobs_run_via_in_process_fallback():
    # The layered DP jobs (process_safe=False) must produce identical
    # results under the process runtime (which falls back in-process for
    # them) and the plain local runtime.
    rng = np.random.default_rng(11)
    data = rng.integers(0, 20, size=64).astype(np.float64)
    local = dm_haar_space(
        data, 4.0, 1.0, SimulatedCluster(runtime=LocalRuntime()), subtree_leaves=8
    )
    pooled = dm_haar_space(
        data,
        4.0,
        1.0,
        SimulatedCluster(runtime=ProcessPoolRuntime(max_workers=2)),
        subtree_leaves=8,
    )
    assert pooled.size == local.size
    assert pooled.max_error == local.max_error
    assert pooled.synopsis.coefficients == local.synopsis.coefficients


#: Every distributed algorithm of the facade.
DISTRIBUTED_ALGORITHMS = sorted(
    name for name, (_, distributed) in ALGORITHMS.items() if distributed
)

#: One fixed series of four 64-leaf splits: longer than one split, so
#: DIndirectHaar runs its distributed bound jobs, and its DP runs a
#: distributed bottom band and a traceback below the top.  Values stay
#: well away from 0, so DGreedyRel keeps coefficients too.
SERIES = np.random.default_rng(7).integers(100, 200, size=256).astype(np.float64)
SPLIT_LEAVES = 64
BUDGET = 16

#: Wall-clock fields of ``meta.cluster``: the only ones allowed to differ.
TIMING_FIELDS = ("simulated_seconds", "driver_seconds")


@lru_cache(maxsize=None)
def _build(algorithm: str, runtime: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(synopsis dict without timings, canonical trace)`` of one build."""
    cluster = SimulatedCluster(
        runtime=LocalRuntime() if runtime == "local" else ProcessPoolRuntime(max_workers=2)
    )
    synopsis = build_synopsis(
        SERIES, BUDGET, algorithm, cluster, subtree_leaves=SPLIT_LEAVES
    ).to_dict()
    meta = synopsis["meta"]
    if "cluster" in meta:
        meta["cluster"] = {
            key: value
            for key, value in meta["cluster"].items()
            if key not in TIMING_FIELDS
        }
    return synopsis, canonical_trace(cluster.log.trace())


@pytest.mark.parametrize("algorithm", DISTRIBUTED_ALGORITHMS)
def test_algorithm_gives_same_output_on_both_runtimes(algorithm):
    # A process-safe job whose class cannot be pickled fails here on the
    # pool; one whose tasks hand state to a later task through the job
    # (or a module global) sees it in the driver but not in a worker, so
    # the synopsis or the trace differs.
    local_synopsis, local_trace = _build(algorithm, "local")
    pooled_synopsis, pooled_trace = _build(algorithm, "process")
    assert pooled_synopsis == local_synopsis
    assert pooled_trace == local_trace


def test_differential_covers_every_concrete_job():
    seen = {
        job["stage_label"]
        for algorithm in DISTRIBUTED_ALGORITHMS
        for runtime in ("local", "process")
        for job in _build(algorithm, runtime)[1]["jobs"]
    }
    declared = {
        cls.stage_label
        for cls in _concrete_job_classes()
        if cls.__module__.startswith("repro.")
    }
    assert seen == declared
