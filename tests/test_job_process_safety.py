"""Meta-test: every concrete job satisfies the process-safety contract.

A job is either

* ``process_safe`` (the default) — it must be picklable, since
  :class:`~repro.mapreduce.process.ProcessPoolRuntime` ships it to worker
  processes.  Both the *class* (module-level, importable — the failure
  mode of the historical ``_AverageJob``-inside-a-function bug) and a
  representative *instance* must survive a pickle round trip; or
* ``process_safe = False`` — it shares driver-side state and runs through
  the in-process fallback.  Those jobs must be the known, documented set,
  and the fallback path itself is exercised here end to end.

New concrete job classes fail this test until they are added to the
instance registry below — by design, so the pickling contract is decided
at review time rather than discovered in a worker traceback.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil

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
from repro.mapreduce import (
    LocalRuntime,
    MapReduceJob,
    ProcessPoolRuntime,
    SimulatedCluster,
    is_process_safe,
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
    assert is_process_safe(job), f"{cls.__qualname__} is registered as process-safe"
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


def test_static_pickle_verdicts_agree_with_runtime_registry():
    # The whole-program analyzer re-derives process-safety transitively
    # (call-graph walk from each job's task methods) instead of trusting
    # the declared flag.  Its verdicts must agree with this file's
    # runtime registry class by class: every job that actually pickle
    # round-trips is statically proven safe, and every documented
    # driver-state job is statically refuted — a disagreement in either
    # direction means the static model or the registry has drifted.
    from pathlib import Path

    from repro.analysis.pickling import job_pickle_verdicts
    from repro.analysis.project import build_index

    repo_src = Path(__file__).resolve().parent.parent / "src"
    verdicts = job_pickle_verdicts(build_index([repo_src]))
    by_name = {
        qualname.rsplit(".", 1)[-1]: verdict for qualname, verdict in verdicts.items()
    }

    runtime_names = {
        cls.__name__ for cls in PROCESS_SAFE_INSTANCES
    } | {cls.__name__ for cls in KNOWN_DRIVER_STATE_JOBS}
    assert set(by_name) == runtime_names, (
        "the static analyzer and the runtime registry must classify the "
        f"same set of concrete jobs; static-only={set(by_name) - runtime_names} "
        f"runtime-only={runtime_names - set(by_name)}"
    )

    for cls in PROCESS_SAFE_INSTANCES:
        verdict = by_name[cls.__name__]
        assert verdict.process_safe, (
            f"{cls.__qualname__} pickle round-trips at runtime but the static "
            f"walk claims otherwise: {verdict.evidence}"
        )
        assert verdict.declared is True
    for cls in KNOWN_DRIVER_STATE_JOBS:
        verdict = by_name[cls.__name__]
        assert not verdict.process_safe, (
            f"{cls.__qualname__} is documented driver-state but the static "
            "walk found no evidence why — document or fix"
        )
        assert verdict.declared is False


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
