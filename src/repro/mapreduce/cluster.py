"""The simulated Hadoop cluster: slots, startup overheads, and bandwidth.

The paper's platform is a 9-machine Hadoop 2.6 cluster: 8 slaves with 5 map
slots and 2 reduce slots each (40 map / 16 reduce slots total).  We keep the
*placement semantics* of that platform and replace its hardware with a cost
model:

* every task occupies one slot for its **measured** runtime plus a fixed
  task startup overhead (Hadoop container launch);
* each job pays a fixed job startup overhead (job submission, scheduling);
* the shuffle transfers its accounted bytes at a fixed bandwidth.

The simulated wall-clock of a job is then::

    job_startup + makespan(map tasks, map_slots)
                + shuffle_bytes / bandwidth
                + makespan(reduce tasks, reduce_slots)

``makespan`` places tasks one by one on the earliest-available slot (FIFO,
exactly Hadoop's default behaviour for a single job).  This reproduces the
paper's structural results: flat runtimes while the cluster has spare slots,
linear growth once tasks serialize (Fig. 5c/5d), overhead-dominated small
partitions (Fig. 5a), and halved capacity ⇒ doubled runtime.

``ClusterConfig(speculation=True)`` swaps in :func:`speculative_makespan`:
Hadoop's straggler policy, where a task running well past the completed
quantile gets a backup attempt on an otherwise-idle slot and the first
finisher wins.  Backups exist only in this pricing layer — results are
bit-identical — and surface in the trace as ``speculative`` attempt
spans plus ``speculation.*`` job counters.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import MemoryBudgetExceeded
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.process import ProcessPoolRuntime
from repro.mapreduce.runtime import JobResult, LocalRuntime
from repro.mapreduce.shuffle import ShuffleConfig
from repro.mapreduce.tracing import TRACE_SCHEMA_VERSION, AttemptSpan, StageSpan

__all__ = [
    "ClusterConfig",
    "RUNTIMES",
    "SimulatedCluster",
    "MemoryModel",
    "BackupAttempt",
    "SpeculativeSchedule",
    "make_runtime",
    "makespan",
    "speculative_makespan",
    "price_log",
]

#: Named runtimes selectable from the CLI / experiment configs.  See
#: docs/ALGORITHMS.md ("Choosing a runtime") for when each wins.
RUNTIMES: dict[str, type[LocalRuntime]] = {
    "local": LocalRuntime,
    "process": ProcessPoolRuntime,
}


def make_runtime(
    name: str, shuffle: ShuffleConfig | str | None = None
) -> LocalRuntime:
    """Instantiate a runtime by registry name (default configuration).

    ``shuffle`` selects the shuffle discipline (a mode name or a full
    :class:`~repro.mapreduce.shuffle.ShuffleConfig`); None keeps the
    in-memory default.
    """
    try:
        runtime_cls = RUNTIMES[name]
    except KeyError:
        options = ", ".join(sorted(RUNTIMES))
        raise ValueError(f"unknown runtime {name!r} (choose from: {options})") from None
    return runtime_cls(shuffle=shuffle)


def makespan(task_seconds: list[float], slots: int) -> float:
    """FIFO makespan of ``task_seconds`` on ``slots`` identical slots."""
    if not task_seconds:
        return 0.0
    if slots <= 0:
        raise ValueError("slot count must be positive")
    finish_times = [0.0] * min(slots, len(task_seconds))
    heapq.heapify(finish_times)
    for seconds in task_seconds:
        earliest = heapq.heappop(finish_times)
        heapq.heappush(finish_times, earliest + seconds)
    return max(finish_times)


@dataclass
class BackupAttempt:
    """One speculative backup launched by :func:`speculative_makespan`.

    ``occupied_seconds`` is how long the backup held its slot: its full
    duration when it won, or the time until its primary finished (the
    cancel point) when it lost.  ``primary_occupied_seconds`` mirrors the
    primary's slot occupancy up to *its* cancel point when the backup won.
    """

    task_index: int
    start_seconds: float
    occupied_seconds: float = 0.0
    won: bool = False
    primary_occupied_seconds: float = 0.0


@dataclass
class SpeculativeSchedule:
    """Result of one speculative stage placement."""

    seconds: float
    backups: list[BackupAttempt] = field(default_factory=list)


def speculative_makespan(
    tasks: list[tuple[float, float]],
    slots: int,
    quantile: float = 0.75,
    slowdown: float = 1.5,
    min_completed: int = 3,
) -> SpeculativeSchedule:
    """Event-driven FIFO placement with Hadoop-style straggler backups.

    ``tasks`` holds ``(total_seconds, backup_seconds)`` per task:
    ``total_seconds`` is the primary attempt chain's slot occupancy
    (failed attempts included) and ``backup_seconds`` what a fresh
    re-execution costs (the last clean attempt).  A backup launches only
    when the pending queue is empty and a slot is idle — speculation
    never delays primary work, exactly Hadoop's policy — and only for a
    task that has run longer than ``slowdown`` times the ``quantile`` of
    completed-attempt durations, with at least ``min_completed`` tasks
    finished.  First finisher wins; the loser is canceled at that moment
    and charged for the slot it held.  Without eligible stragglers the
    schedule is identical to :func:`makespan` over the totals.
    """
    if not tasks:
        return SpeculativeSchedule(0.0)
    if slots <= 0:
        raise ValueError("slot count must be positive")
    count = len(tasks)
    free = slots
    next_pending = 0
    # attempt id -> [task_index, is_backup, start, alive]
    attempts: list[list[Any]] = []
    events: list[tuple[float, int, int]] = []
    primary_of: list[int | None] = [None] * count
    backup_of: list[int | None] = [None] * count
    running: list[bool] = [False] * count
    completed: list[float] = []
    records: dict[int, BackupAttempt] = {}
    seq = 0

    def launch(task_index: int, is_backup: bool, now: float) -> None:
        nonlocal free, seq
        duration = tasks[task_index][1] if is_backup else tasks[task_index][0]
        attempt_id = len(attempts)
        attempts.append([task_index, is_backup, now, True])
        heapq.heappush(events, (now + duration, seq, attempt_id))
        seq += 1
        free -= 1
        if is_backup:
            backup_of[task_index] = attempt_id
            records[task_index] = BackupAttempt(task_index, now)
        else:
            primary_of[task_index] = attempt_id
            running[task_index] = True

    timer_pending = False

    def threshold() -> float | None:
        if len(completed) < max(1, min_completed):
            return None
        ordered = sorted(completed)
        rank = min(len(ordered) - 1, int(quantile * len(ordered)))
        return slowdown * ordered[rank]

    def candidates(cut: float) -> list[tuple[float, int]]:
        """Running primaries without a backup: ``(eligible_at, task)``."""
        out: list[tuple[float, int]] = []
        for task_index in range(count):
            if not running[task_index] or backup_of[task_index] is not None:
                continue
            primary_id = primary_of[task_index]
            if primary_id is None:
                continue
            out.append((attempts[primary_id][2] + cut, task_index))
        return out

    def speculate(now: float) -> None:
        if next_pending < count:
            return
        cut = threshold()
        if cut is None:
            return
        while free > 0:
            eligible = [
                (at, task_index)
                for at, task_index in candidates(cut)
                if now >= at
            ]
            if not eligible:
                return
            # Most-overdue first (earliest eligibility time == longest
            # running); ties break on the lower task index.
            eligible.sort()
            launch(eligible[0][1], True, now)

    def schedule_timer(now: float) -> None:
        # Re-examine stragglers when the first candidate crosses the
        # eligibility cut — completions alone would miss a straggler that
        # outlives every other task in its stage.
        nonlocal timer_pending, seq
        if timer_pending or free <= 0 or next_pending < count:
            return
        cut = threshold()
        if cut is None:
            return
        future = [at for at, _ in candidates(cut) if at > now]
        if future:
            heapq.heappush(events, (min(future), seq, -1))
            seq += 1
            timer_pending = True

    while free > 0 and next_pending < count:
        launch(next_pending, False, 0.0)
        next_pending += 1

    finish = 0.0
    while events:
        now, _, attempt_id = heapq.heappop(events)
        if attempt_id < 0:
            timer_pending = False
            speculate(now)
            schedule_timer(now)
            continue
        task_index, is_backup, start, alive = attempts[attempt_id]
        if not alive:
            continue
        attempts[attempt_id][3] = False
        free += 1
        finish = max(finish, now)
        running[task_index] = False
        completed.append(now - start)
        sibling_id = primary_of[task_index] if is_backup else backup_of[task_index]
        if sibling_id is not None and attempts[sibling_id][3]:
            attempts[sibling_id][3] = False
            free += 1
            record = records[task_index]
            if is_backup:
                record.won = True
                record.occupied_seconds = now - start
                record.primary_occupied_seconds = now - attempts[sibling_id][2]
            else:
                record.occupied_seconds = now - attempts[sibling_id][2]
        while free > 0 and next_pending < count:
            launch(next_pending, False, now)
            next_pending += 1
        speculate(now)
        schedule_timer(now)
    backups = [records[task_index] for task_index in sorted(records)]
    return SpeculativeSchedule(finish, backups)


@dataclass
class ClusterConfig:
    """Knobs of the simulated platform (defaults mirror the paper's cluster).

    Startup overheads are expressed in the same unit as measured task times.
    Our scaled-down tasks run for milliseconds where Hadoop's ran for tens
    of seconds, so the defaults keep Hadoop's *ratio* of startup overhead to
    typical task time rather than its absolute seconds.
    """

    map_slots: int = 40
    reduce_slots: int = 16
    task_startup_seconds: float = 0.004
    job_startup_seconds: float = 0.02
    shuffle_bytes_per_second: float = 64e6
    #: Hadoop-style speculative execution: when a stage has no pending
    #: tasks left and idle slots, launch backup attempts against
    #: stragglers, as :func:`speculative_makespan` defines them (its
    #: ``quantile``/``slowdown``/``min_completed`` defaults).  Backups
    #: consume a slot for as long as they run and appear as speculative
    #: attempt spans in the trace; the first finisher wins.
    speculation: bool = False

    def scaled(self, **overrides: Any) -> "ClusterConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)


@dataclass
class RunLog:
    """Accumulated history of one algorithm invocation on the cluster."""

    jobs: list[JobResult] = field(default_factory=list)
    driver_seconds: float = 0.0
    #: Run-level annotations (e.g. the DP's resolved ``layer_plan``) —
    #: carried into the trace document so checkers are self-describing.
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        return self.driver_seconds + sum(job.simulated_seconds for job in self.jobs)

    @property
    def shuffle_bytes(self) -> int:
        return sum(job.shuffle_bytes for job in self.jobs)

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    def as_dict(self) -> dict[str, Any]:
        return {
            "simulated_seconds": self.simulated_seconds,
            "driver_seconds": self.driver_seconds,
            "shuffle_bytes": self.shuffle_bytes,
            "jobs": self.job_count,
        }

    def trace(self) -> dict[str, Any]:
        """The run's trace document (``schema`` versioned, JSON-ready).

        Assembled from the ``JobResult.trace`` spans the runtime attached
        to every executed job, with the cluster's priced simulated times
        included.  Jobs without a span (hand-constructed results) are
        skipped.
        """
        spans = (job.trace for job in self.jobs)
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "driver_seconds": self.driver_seconds,
            "meta": dict(self.meta),
            "jobs": [span.to_dict() for span in spans if span is not None],
        }


class SimulatedCluster:
    """Runs jobs through :class:`LocalRuntime` and prices their placement."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        runtime: LocalRuntime | str | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        if isinstance(runtime, str):
            runtime = make_runtime(runtime)
        self.runtime = runtime or LocalRuntime()
        self.log = RunLog()

    def reset(self) -> None:
        """Start a fresh run log (call between algorithm invocations)."""
        self.log = RunLog()

    def _stage_task_times(self, stage: StageSpan) -> list[tuple[float, float]]:
        """Per-task ``(total, backup)`` durations for speculative placement.

        ``total`` is the primary attempt chain's slot occupancy (failed
        attempts included) and ``backup`` what a fresh re-execution costs
        — the last clean attempt's measured time.  Speculative attempt
        spans written by an earlier pricing are excluded, so re-pricing a
        logged run (:func:`price_log`) never double-counts backups.
        """
        startup = self.config.task_startup_seconds
        times: list[tuple[float, float]] = []
        for task in stage.tasks:
            real = [a for a in task.attempts if not a.speculative]
            total = sum(a.wall_seconds for a in real)
            clean = next(
                (a.wall_seconds for a in reversed(real) if not a.failed), total
            )
            times.append((total + startup, clean + startup))
        return times

    def _stage_schedule(
        self, result: JobResult, stage_name: str
    ) -> SpeculativeSchedule | None:
        """Speculative placement of one stage, or None when not applicable."""
        cfg = self.config
        if not cfg.speculation or result.trace is None:
            return None
        stage = result.trace.stage(stage_name)
        if stage is None or not stage.tasks:
            return None
        slots = cfg.map_slots if stage_name == "map" else cfg.reduce_slots
        return speculative_makespan(self._stage_task_times(stage), slots)

    def _stage_prices(self, result: JobResult) -> dict[str, float]:
        """Per-stage simulated seconds of one executed job."""
        cfg = self.config
        prices = {
            "map": makespan(
                [t + cfg.task_startup_seconds for t in result.map_task_seconds],
                cfg.map_slots,
            ),
            "shuffle": result.shuffle_bytes / cfg.shuffle_bytes_per_second,
            "reduce": makespan(
                [t + cfg.task_startup_seconds for t in result.reduce_task_seconds],
                cfg.reduce_slots,
            ),
        }
        if cfg.speculation:
            for stage_name in ("map", "reduce"):
                schedule = self._stage_schedule(result, stage_name)
                if schedule is not None:
                    prices[stage_name] = schedule.seconds
        return prices

    def job_simulated_seconds(self, result: JobResult) -> float:
        """Price one executed job under the cluster's cost model.

        With ``speculation`` enabled (and a trace present), the map and
        reduce stages are placed by :func:`speculative_makespan` instead
        of plain :func:`makespan` — backup attempts occupy slots and the
        first finisher wins, so the result is never above the
        non-speculative placement.
        """
        prices = self._stage_prices(result)
        return (
            self.config.job_startup_seconds
            + prices["map"]
            + prices["shuffle"]
            + prices["reduce"]
        )

    def run_job(self, job: MapReduceJob, splits: list[InputSplit]) -> JobResult:
        """Execute ``job`` and append it (with simulated time) to the log."""
        result = self.runtime.run(job, splits)
        result.simulated_seconds = self.job_simulated_seconds(result)
        self._price_trace(result)
        self.log.jobs.append(result)
        return result

    def _price_trace(self, result: JobResult) -> None:
        """Write the cost model's per-stage prices into the job's span.

        The span's measured fields (wall seconds, bytes) come from the
        runtime; the *simulated* seconds are a property of this cluster's
        configuration, so they are filled in at pricing time.  The combine
        stage is free — combining runs inside the map tasks, whose time it
        is already part of.

        With speculation enabled, every backup the scheduler launched is
        appended to its task as a *speculative* attempt span (losers
        flagged ``canceled``, and the primary attempt flagged when the
        backup won), and the job's counters record
        ``speculation.backups_launched`` / ``speculation.backups_won``.
        """
        span = result.trace
        if span is None:
            return
        span.simulated_seconds = result.simulated_seconds
        prices = self._stage_prices(result)
        for stage in span.stages:
            stage.simulated_seconds = prices.get(stage.name, 0.0)
        if not self.config.speculation:
            return
        for stage_name in ("map", "reduce"):
            schedule = self._stage_schedule(result, stage_name)
            if schedule is None:
                continue
            stage = span.stage(stage_name)
            assert stage is not None
            for backup in schedule.backups:
                task = stage.tasks[backup.task_index]
                if backup.won:
                    for attempt in reversed(task.attempts):
                        if not attempt.speculative and not attempt.failed:
                            attempt.canceled = True
                            break
                task.attempts.append(
                    AttemptSpan(
                        index=len(task.attempts) + 1,
                        wall_seconds=backup.occupied_seconds,
                        failed=False,
                        speculative=True,
                        canceled=not backup.won,
                    )
                )
                result.counters.increment("speculation.backups_launched")
                if backup.won:
                    result.counters.increment("speculation.backups_won")

    @contextmanager
    def driver(self) -> Iterator[None]:
        """Time a block of centralized driver-side work.

        Driver work runs on the master node and is charged at face value
        (no slot contention).  The paper's DGreedyAbs runs GreedyAbs on the
        root sub-tree this way.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.log.driver_seconds += time.perf_counter() - start

    @property
    def simulated_seconds(self) -> float:
        """Simulated wall-clock of everything logged since the last reset."""
        return self.log.simulated_seconds


def price_log(log: RunLog, config: ClusterConfig) -> float:
    """Re-price a recorded run under a different cluster configuration.

    The cost model is a pure function of the measured task times and the
    configuration, so the *same* workload can be placed on clusters of
    different capacities without re-executing — the noise-free way to
    produce "vs number of parallel tasks" sweeps (Figures 5c/5d).
    """
    pricer = SimulatedCluster(config)
    return log.driver_seconds + sum(
        pricer.job_simulated_seconds(job) for job in log.jobs
    )


class MemoryModel:
    """Per-machine memory constraint for *centralized* algorithms.

    The paper reports that GreedyAbs and IndirectHaar could not run past
    17M points within 8 GB.  Benchmarks use this model to reproduce those
    "did not run" cells: an algorithm declares its estimated working set
    and the model raises :class:`MemoryBudgetExceeded` when it doesn't fit.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.budget_bytes = int(budget_bytes)

    def charge(self, required_bytes: int, algorithm: str = "") -> None:
        """Raise :class:`MemoryBudgetExceeded` if the request does not fit."""
        if required_bytes > self.budget_bytes:
            raise MemoryBudgetExceeded(required_bytes, self.budget_bytes, algorithm)

    def fits(self, required_bytes: int) -> bool:
        """Return True when ``required_bytes`` fits in the budget."""
        return required_bytes <= self.budget_bytes
