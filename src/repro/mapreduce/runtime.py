"""Execution engine for MapReduce jobs.

The runtime executes a job in-process, task by task, and *measures* each
task's CPU time.  It does not try to be a real cluster: parallelism is
reintroduced afterwards by :mod:`repro.mapreduce.cluster`, which schedules
the measured task times onto a configurable number of slots.  This split —
real computation, simulated placement — is what lets a laptop reproduce the
scaling *shapes* of a 9-node Hadoop deployment (see DESIGN.md §3).

:class:`LocalRuntime` is also the template the process runtime extends:
:meth:`LocalRuntime.run` owns everything order-sensitive (counters, shuffle
accounting, partitioning, split-order collection, span stitching) and
delegates only the *execution* of the task batch to
:meth:`LocalRuntime._execute_map_tasks` /
:meth:`LocalRuntime._execute_reduce_tasks`.  ``ProcessPoolRuntime``
overrides just those two hooks, which is how both runtimes stay
byte-identical on deterministic jobs — and emit schema-identical traces
(:mod:`repro.mapreduce.tracing`): every task attempt is timed inside
:func:`run_task_attempts`, which returns a picklable
:class:`~repro.mapreduce.tracing.TaskSpan` fragment the driver assembles
into the job's span tree.  A task runs either sequentially in the driver
or in an isolated worker process; two tasks never share an address space
while they run.

The per-task work itself lives in module-level functions
(:func:`run_map_task`, :func:`run_reduce_task`, :func:`run_task_attempts`)
so a process-pool worker can import and run them — bound methods of a
runtime holding live state would not pickle.

Failure injection (`FailureInjector`) emulates task attempts: a failed
attempt is retried up to ``max_attempts`` times, as Hadoop's ApplicationMaster
would, and the wasted attempt time is charged to the task.  Retried
attempts appear as child :class:`~repro.mapreduce.tracing.AttemptSpan`
records of their task span, never as duplicate tasks.
"""

from __future__ import annotations

import time
import zlib
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.sanitizer import current as sanitizer_current
from repro.exceptions import JobFailedError
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.job import MapReduceJob, reduce_order
from repro.mapreduce.serde import records_size
from repro.mapreduce.shuffle import ShuffleBase, ShuffleConfig, make_shuffle
from repro.mapreduce.tracing import AttemptSpan, JobSpan, StageSpan, TaskSpan

__all__ = [
    "FailureInjector",
    "JobResult",
    "LocalRuntime",
    "MapTaskResult",
    "run_map_task",
    "run_reduce_task",
    "run_task_attempts",
]


class FailureInjector:
    """Randomly fails task attempts to exercise the retry machinery.

    Each task draws from its own generator, seeded with
    ``(seed ^ crc32(task label)) & 0xFFFFFFFF``.  Task labels are stable
    (job name plus split or reducer id), so a configuration fails exactly
    the same attempts on every runtime, whatever the worker count or the
    order in which tasks complete.
    """

    def __init__(self, probability: float, seed: int = 0, max_attempts: int = 4) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError("failure probability must be in [0, 1)")
        if not isinstance(max_attempts, int) or max_attempts < 1:
            raise ValueError("max_attempts must be an integer >= 1")
        self.probability = probability
        self.seed = seed
        self.max_attempts = max_attempts

    def attempt_failures(self, task_label: str) -> Iterator[bool]:
        """Whether each successive attempt of the task ``task_label`` fails."""
        rng = np.random.default_rng(
            (self.seed ^ zlib.crc32(task_label.encode())) & 0xFFFFFFFF
        )
        while True:
            yield bool(rng.random() < self.probability)


@dataclass
class JobResult:
    """Everything a job run produced, plus per-task measurements."""

    job_name: str
    output: list[tuple[Any, Any]]
    counters: Counters
    map_task_seconds: list[float]
    reduce_task_seconds: list[float]
    shuffle_bytes: int
    map_output_records: int
    #: Filled in by the cluster model: simulated wall-clock of this job.
    simulated_seconds: float = 0.0
    #: Per-reducer outputs, in partition order (useful for debugging).
    reducer_outputs: list[list[tuple[Any, Any]]] = field(default_factory=list)
    #: The job's span tree (always built by the runtime; None only on
    #: hand-constructed results, e.g. in cost-model unit tests).
    trace: JobSpan | None = None
    #: Spill accounting from the external shuffle (empty on the in-memory
    #: path).  Deliberately *not* folded into ``counters`` or the trace:
    #: external and in-memory runs of the same job must stay bit-identical
    #: on both (the runtime-equivalence differential tests pin this).
    shuffle_stats: dict[str, int] = field(default_factory=dict)


def _hashable(key: Any) -> Any:
    """Map a key to something usable as a dict key for combining."""
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


def apply_combiner(
    job: MapReduceJob, output: list[tuple[Any, Any]]
) -> list[tuple[Any, Any]]:
    """Group one map task's output by key and run the job's combiner."""
    grouped: dict[Any, list[tuple[Any, Any]]] = defaultdict(list)
    for key, value in output:
        grouped[_hashable(key)].append((key, value))
    combined: list[tuple[Any, Any]] = []
    for pairs in grouped.values():
        key = pairs[0][0]
        combined.extend(job.combine(key, [value for _, value in pairs]))
    return combined


@dataclass
class MapTaskResult:
    """One map task's output plus its pre-combine emission accounting.

    ``map_records``/``map_bytes`` describe what the *map function* emitted
    before the combiner ran — the combine stage's input.  When no combiner
    runs, ``map_bytes`` is None and the driver reuses the shuffle-byte
    total it computes anyway (identical by definition), keeping the
    no-combiner hot path free of a second sizing pass.
    """

    output: list[tuple[Any, Any]]
    map_records: int
    map_bytes: int | None


def run_map_task(job: MapReduceJob, split: InputSplit) -> MapTaskResult:
    """One map task: map a split, then combine locally if configured."""
    output = list(job.map(split))
    if not job.use_combiner:
        return MapTaskResult(output=output, map_records=len(output), map_bytes=None)
    # Serializing the pre-combine emission is part of the task's real
    # work on Hadoop (map output is materialized before the combiner),
    # so measuring it inside the timed region is faithful.
    map_bytes = records_size(output)
    combined = apply_combiner(job, output)
    return MapTaskResult(output=combined, map_records=len(output), map_bytes=map_bytes)


def run_reduce_task(
    job: MapReduceJob, partition: list[tuple[Any, Any]]
) -> list[tuple[Any, Any]]:
    """One reduce task: sort the partition, then reduce it whole."""
    return list(job.reduce_partition(reduce_order(job, partition)))


def run_task_attempts(
    task_callable: Callable[[], Any],
    task_label: str,
    injector: FailureInjector | None = None,
) -> tuple[Any, TaskSpan]:
    """Run one task with retries; return ``(result, task span)``.

    The span records every attempt (failed ones included) so traces show
    retries as child spans.  Its ``wall_seconds`` — the sum over attempts
    — is the task time the cluster model prices, exactly as before.
    """
    failures = injector.attempt_failures(task_label) if injector is not None else None
    span = TaskSpan(name=task_label)
    attempts = 0
    max_attempts = injector.max_attempts if injector is not None else 1
    while True:
        attempts += 1
        start = time.perf_counter()
        failed = failures is not None and next(failures)
        if not failed:
            result = task_callable()
            span.attempts.append(
                AttemptSpan(
                    index=attempts,
                    wall_seconds=time.perf_counter() - start,
                    failed=False,
                )
            )
            return result, span
        # A failed attempt burns its full runtime before dying (the task
        # is executed and its output discarded — Hadoop's failure mode is
        # a task lost near completion, not one rejected at submission).
        # This is what makes injected failures visible to the straggler
        # model: the retried task occupies its slot for every attempt, so
        # a speculative backup (priced from the clean attempt) can win.
        task_callable()
        span.attempts.append(
            AttemptSpan(
                index=attempts, wall_seconds=time.perf_counter() - start, failed=True
            )
        )
        if attempts >= max_attempts:
            raise JobFailedError(f"task {task_label} failed after {attempts} attempts")


class LocalRuntime:
    """Runs jobs in-process with per-task timing and attempt retries.

    Every :class:`JobResult` carries its span tree in ``trace``; a
    :class:`~repro.mapreduce.cluster.RunLog` renders the spans of a
    whole run as one trace document.
    """

    def __init__(
        self,
        failure_injector: FailureInjector | None = None,
        shuffle: ShuffleConfig | str | None = None,
    ) -> None:
        self.failure_injector = failure_injector
        if isinstance(shuffle, str):
            shuffle = ShuffleConfig(mode=shuffle)
        self.shuffle = shuffle

    @contextmanager
    def session(self) -> Iterator[None]:
        """Scope one build: every job run inside it shares its resources.

        Each distributed algorithm runs its jobs inside one session, and
        :meth:`run` opens one around every job, so a bare ``run`` is a
        one-job build.  Sessions nest: an inner one (a bound job, a probe)
        joins the outermost.  The in-process runtime holds nothing, so
        here a session does nothing.
        """
        yield

    def _execute_map_tasks(
        self, job: MapReduceJob, splits: list[InputSplit]
    ) -> Iterator[tuple[MapTaskResult, TaskSpan]]:
        """Run every map task; yield ``(result, span)`` in split order.

        A lazy iterator, not a list: the driver consumes each task's
        output as it arrives (feeding it into the shuffle, which may
        spill it to disk), so whole-job map output is never required to
        be resident at once.
        """
        for split in splits:
            yield run_task_attempts(
                lambda split=split: run_map_task(job, split),
                f"{job.name}/map-{split.split_id}",
                self.failure_injector,
            )

    def _execute_reduce_tasks(
        self, job: MapReduceJob, partitions: list[list[tuple[Any, Any]]]
    ) -> list[tuple[list[tuple[Any, Any]], TaskSpan]]:
        """Run every reduce task; return ``(output, span)`` in partition order."""
        return [
            run_task_attempts(
                lambda partition=partition: run_reduce_task(job, partition),
                f"{job.name}/reduce-{reducer_id}",
                self.failure_injector,
            )
            for reducer_id, partition in enumerate(partitions)
        ]

    def run(self, job: MapReduceJob, splits: list[InputSplit]) -> JobResult:
        """Execute ``job`` over ``splits`` and return its :class:`JobResult`.

        Reduce jobs route their map output through the configured shuffle
        (:mod:`repro.mapreduce.shuffle`): each task's output is accounted
        and handed over as soon as the task finishes, then released, so
        with the external shuffle the driver never holds the whole map
        output resident.  The shuffle is always closed — spill files are
        deleted even when a task exhausts its attempts and the job aborts.
        The job runs inside :meth:`session`, so its map and reduce stages
        share whatever the session holds.
        """
        counters = Counters()
        with self.session():
            shuffle = None if job.num_reducers == 0 else make_shuffle(self.shuffle, job)
            try:
                return self._run_with_shuffle(job, splits, counters, shuffle)
            finally:
                if shuffle is not None:
                    shuffle.close()

    def _run_with_shuffle(
        self,
        job: MapReduceJob,
        splits: list[InputSplit],
        counters: Counters,
        shuffle: ShuffleBase | None,
    ) -> JobResult:
        map_task_seconds: list[float] = []
        map_spans: list[TaskSpan] = []
        all_map_output: list[tuple[Any, Any]] = []  # map-only jobs
        input_records = 0
        map_records = 0  # pre-combine emission
        map_bytes = 0
        map_output_records = 0  # post-combine records entering the shuffle
        shuffle_bytes = 0  # post-combine: what actually crosses the wire
        # Generator first in the zip: after the last task, the next() that
        # stops the zip also resumes the generator and runs it to its end,
        # so no hook is left suspended inside its stage.
        for (task, span), split in zip(self._execute_map_tasks(job, splits), splits):
            task_bytes = records_size(task.output)
            input_records += len(split)
            counters.increment("map.input_records", len(split))
            counters.increment("map.output_records", len(task.output))
            if job.use_combiner:
                counters.increment("combine.input_records", task.map_records)
                counters.increment("combine.output_records", len(task.output))
            span.records_out = task.map_records
            span.bytes_out = task.map_bytes if task.map_bytes is not None else task_bytes
            map_records += task.map_records
            map_bytes += span.bytes_out
            map_output_records += len(task.output)
            shuffle_bytes += task_bytes
            map_spans.append(span)
            map_task_seconds.append(span.wall_seconds)
            if shuffle is None:
                all_map_output.extend(task.output)
            else:
                shuffle.add_records(task.output, task_bytes)
                task.output = []  # the shuffle owns the records now
        counters.increment("shuffle.bytes", shuffle_bytes)

        stages = [
            StageSpan(
                name="map",
                records_in=input_records,
                records_out=map_records,
                bytes_out=map_bytes,
                tasks=map_spans,
            )
        ]
        if job.use_combiner:
            stages.append(
                StageSpan(
                    name="combine",
                    records_in=map_records,
                    records_out=map_output_records,
                    bytes_out=shuffle_bytes,
                )
            )
        # The shuffle stage always carries the wire volume: shuffled bytes
        # for reduce jobs, HDFS-written output bytes for map-only jobs.
        stages.append(
            StageSpan(
                name="shuffle",
                records_in=map_output_records,
                records_out=map_output_records,
                bytes_out=shuffle_bytes,
            )
        )

        if shuffle is None:
            # Map-only jobs still pay to write their output (HDFS), so the
            # emitted bytes count as communication volume.
            return self._finish(
                job,
                JobResult(
                    job_name=job.name,
                    output=all_map_output,
                    counters=counters,
                    map_task_seconds=map_task_seconds,
                    reduce_task_seconds=[],
                    shuffle_bytes=shuffle_bytes,
                    map_output_records=map_output_records,
                ),
                stages,
            )

        partitions = shuffle.partitions()
        sanitizer = sanitizer_current()
        if sanitizer is not None:
            # Hash what the reducers consume: the memory shuffle hands over
            # emission order, the external one an already-sorted stream.
            sanitizer.observe_partitions(
                job.name, [reduce_order(job, partition) for partition in partitions]
            )
        reduce_results = self._execute_reduce_tasks(job, partitions)
        reduce_task_seconds = [span.wall_seconds for _, span in reduce_results]
        reducer_outputs = [output for output, _ in reduce_results]
        reduce_spans: list[TaskSpan] = []
        final_output: list[tuple[Any, Any]] = []
        reduce_bytes = 0
        for partition, (output, span) in zip(partitions, reduce_results):
            counters.increment("reduce.input_records", len(partition))
            counters.increment("reduce.output_records", len(output))
            span.records_out = len(output)
            span.bytes_out = records_size(output)
            reduce_bytes += span.bytes_out
            reduce_spans.append(span)
            final_output.extend(output)
        stages.append(
            StageSpan(
                name="reduce",
                records_in=map_output_records,
                records_out=len(final_output),
                bytes_out=reduce_bytes,
                tasks=reduce_spans,
            )
        )

        return self._finish(
            job,
            JobResult(
                job_name=job.name,
                output=final_output,
                counters=counters,
                map_task_seconds=map_task_seconds,
                reduce_task_seconds=reduce_task_seconds,
                shuffle_bytes=shuffle_bytes,
                map_output_records=map_output_records,
                reducer_outputs=reducer_outputs,
                shuffle_stats=dict(shuffle.stats),
            ),
            stages,
        )

    def _finish(
        self, job: MapReduceJob, result: JobResult, stages: list[StageSpan]
    ) -> JobResult:
        """Attach the span tree to the result."""
        result.trace = JobSpan(name=job.name, stage_label=job.stage_label, stages=stages)
        sanitizer = sanitizer_current()
        if sanitizer is not None:
            sanitizer.observe_job_output(job.name, result.output)
        return result
