"""A process-pool runtime: tasks run in isolated worker processes.

:class:`ProcessPoolRuntime` executes a job's map (and reduce) tasks on a
``concurrent.futures.ProcessPoolExecutor``.  Each worker is its own
interpreter, so tasks share no memory — the stand-in for the paper's
Hadoop containers, which share only the shuffle — and pure-Python stages
(the greedy engine replays of DGreedyAbs, the traceback walks) run in
parallel despite the GIL.

One pool serves one build.  The first process-safe stage inside a
:meth:`~ProcessPoolRuntime.session` starts it, every later map and
reduce stage of the session reuses it, and the outermost session's exit
shuts it down and joins its workers, on success and on error.  So a
build pays the workers' start-up once, and their CPU time is in the
driver's ``RUSAGE_CHILDREN`` as soon as the build returns.  A worker
keeps its module globals across the tasks and stages of one build; each
task still gets its own unpickled copy of the job.

Outputs are byte-identical to
:class:`~repro.mapreduce.runtime.LocalRuntime`: the same split-order
collection contract, with task bodies shipped as module-level functions
over picklable ``(job, split)`` state.  Two things need care across the
process boundary:

* **Driver-side shared state.**  Some jobs are closures over mutable
  driver state (the layered DP's jobs read and write the driver's row
  store from their map tasks).  Such jobs declare ``process_safe = False``
  and are executed in-process via the inherited ``LocalRuntime`` hooks —
  correct, just not parallel.  Jobs default to ``process_safe = True``.
* **Failure injection.**  A :class:`~repro.mapreduce.runtime.FailureInjector`
  derives each task's draws from its label, so it ships to the workers
  as three plain fields and fails the same attempts as in the driver,
  regardless of worker count or completion order.
* **A dead worker.**  A worker that dies mid-task breaks the whole pool.
  The stage raises :class:`~repro.exceptions.JobFailedError` naming the
  job, and the broken pool is dropped, so the next stage starts a fresh
  one.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any

from repro.exceptions import InvalidInputError, JobFailedError
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import (
    FailureInjector,
    LocalRuntime,
    MapTaskResult,
    run_map_task,
    run_reduce_task,
    run_task_attempts,
)
from repro.mapreduce.shuffle import ShuffleConfig
from repro.mapreduce.tracing import TaskSpan

__all__ = ["ProcessPoolRuntime", "default_process_count"]


def default_process_count() -> int:
    """Process count for :class:`ProcessPoolRuntime` when none is given.

    One worker per available core, clamped to [2, 16]: the floor keeps
    actual concurrency on single-core CI boxes, and the cap bounds the
    cost of full-interpreter workers (fork/spawn cost, per-process numpy
    state, pickled task traffic).
    """
    return max(2, min(16, os.cpu_count() or 2))


def _run_map_task_in_worker(
    args: tuple[MapReduceJob, InputSplit, str, FailureInjector | None],
) -> tuple[MapTaskResult, TaskSpan]:
    """Module-level worker body (bound methods don't pickle).

    The returned :class:`~repro.mapreduce.tracing.TaskSpan` is the span
    fragment the driver stitches into the job's trace — built by the same
    ``run_task_attempts`` every runtime uses, so the fragment's shape is
    identical whether the task ran here or in the driver.
    """
    job, split, task_label, injector = args
    return run_task_attempts(lambda: run_map_task(job, split), task_label, injector)


def _run_reduce_task_in_worker(
    args: tuple[MapReduceJob, list[tuple[Any, Any]], str, FailureInjector | None],
) -> tuple[list[tuple[Any, Any]], TaskSpan]:
    job, partition, task_label, injector = args
    return run_task_attempts(
        lambda: run_reduce_task(job, partition), task_label, injector
    )


class ProcessPoolRuntime(LocalRuntime):
    """Runs map/reduce tasks on a process pool, one pool per build.

    Jobs (and their splits/outputs) must be picklable; jobs that share
    driver-side state opt out with ``process_safe = False`` and fall back
    to in-process execution.  Task timing is measured inside the worker,
    so the simulated cluster prices the same per-task seconds it would
    see from ``LocalRuntime`` (modulo interference noise).

    Sessions may nest and may be entered from several threads at once
    (a serving store shares one cluster across its shards): a lock
    guards the session depth and the pool, and the pool lives until the
    last open session exits.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        failure_injector: FailureInjector | None = None,
        shuffle: ShuffleConfig | str | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = default_process_count()
        if (
            not isinstance(max_workers, int)
            or isinstance(max_workers, bool)
            or max_workers < 1
        ):
            raise InvalidInputError(
                f"max_workers must be an integer >= 1, got {max_workers!r}"
            )
        super().__init__(failure_injector, shuffle)
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._depth = 0
        self._pool: ProcessPoolExecutor | None = None

    @contextmanager
    def session(self) -> Iterator[None]:
        """Scope one build; its process-safe stages share one worker pool.

        The pool starts lazily, at the first stage that needs it, so a
        build of process-unsafe jobs starts none.  The outermost exit
        waits for the running tasks and joins the workers.
        """
        with self._lock:
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                pool = None
                if self._depth == 0:
                    pool, self._pool = self._pool, None
            if pool is not None:
                # No cancel_futures: a failed stage's pool.map has already
                # cancelled its queued tasks, and on CPython 3.11 that flag
                # hangs shutdown once a task has failed to pickle.
                pool.shutdown(wait=True)

    @contextmanager
    def _stage_pool(self, job: MapReduceJob) -> Iterator[ProcessPoolExecutor]:
        """The session's pool for one stage of ``job``, started on first use.

        A pool that a dead worker broke is discarded, so the next stage
        starts a fresh one, and the stage fails with ``JobFailedError``.
        """
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            pool = self._pool
        try:
            yield pool
        except BrokenProcessPool as error:
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=True)
            raise JobFailedError(f"job {job.name}: a pool worker died") from error

    def _execute_map_tasks(
        self, job: MapReduceJob, splits: list[InputSplit]
    ) -> Iterator[tuple[MapTaskResult, TaskSpan]]:
        if not job.process_safe:
            yield from super()._execute_map_tasks(job, splits)
            return
        work = [
            (job, split, f"{job.name}/map-{split.split_id}", self.failure_injector)
            for split in splits
        ]
        with self._stage_pool(job) as pool:
            yield from pool.map(_run_map_task_in_worker, work)

    def _execute_reduce_tasks(
        self, job: MapReduceJob, partitions: list[list[tuple[Any, Any]]]
    ) -> list[tuple[list[tuple[Any, Any]], TaskSpan]]:
        if not job.process_safe:
            return super()._execute_reduce_tasks(job, partitions)
        work = [
            (job, partition, f"{job.name}/reduce-{reducer_id}", self.failure_injector)
            for reducer_id, partition in enumerate(partitions)
        ]
        with self._stage_pool(job) as pool:
            return list(pool.map(_run_reduce_task_in_worker, work))
