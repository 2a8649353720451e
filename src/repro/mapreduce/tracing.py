"""Structured stage-level tracing for MapReduce job runs.

Every job run produces one span tree::

    job ─┬─ stage "map"     ─┬─ task "job/map-0" ─┬─ attempt 1 (failed)
         │                   └─ task "job/map-1"  └─ attempt 2
         ├─ stage "combine"  (only when the job uses a combiner)
         ├─ stage "shuffle"  (bytes that cross the wire; simulated time)
         └─ stage "reduce"  ─── task "job/reduce-0" ── attempt 1

The span tree is the *observability contract* of the runtime layer: both
runtimes (``LocalRuntime`` and ``ProcessPoolRuntime``) emit the same tree
for the same job because task spans are built inside
:func:`repro.mapreduce.runtime.run_task_attempts` — the one code path
every task attempt goes through — and returned to the driver as
picklable fragments that :meth:`LocalRuntime.run` stitches into stages
in split/partition order.  Retried attempts appear as *child
spans* of their task, never as duplicate tasks.

Wall time is measured; simulated time is filled in afterwards by
:class:`repro.mapreduce.cluster.SimulatedCluster` when the job is priced.
Byte counts use the deterministic serde model
(:mod:`repro.mapreduce.serde`), so traces are comparable across hosts.

The JSON rendering (:meth:`repro.mapreduce.cluster.RunLog.trace`) is
versioned with a top-level ``schema`` field; ``docs/OBSERVABILITY.md``
documents every field, and the golden-schema test pins the key sets.
:func:`canonical_trace` strips the timing fields and normalizes task
order, which is how the runtime-equivalence tests compare traces across
execution engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "AttemptSpan",
    "TaskSpan",
    "StageSpan",
    "JobSpan",
    "canonical_trace",
    "job_emitted_bytes",
]

#: Version of the trace JSON layout.  Bump when a field is added, removed,
#: or changes meaning; the golden-schema test pins the current shape.
#: Schema 2 added the ``speculative``/``canceled`` attempt flags and the
#: top-level ``meta`` document (layer plan of DP runs).
TRACE_SCHEMA_VERSION = 2


@dataclass
class AttemptSpan:
    """One task attempt: retries of a failed task are siblings, not copies.

    ``speculative`` marks a *backup* attempt the simulated scheduler
    launched against a straggling task — those exist only in the pricing
    model (the runtime executed the task once), so their ``wall_seconds``
    is simulated slot occupancy, not measured time, and they are excluded
    from the task's wall total.  ``canceled`` marks the attempt that lost
    the race once its duplicate finished (a losing backup, or the
    original attempt when the backup won).
    """

    index: int
    wall_seconds: float
    failed: bool
    speculative: bool = False
    canceled: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "attempt",
            "index": self.index,
            "wall_seconds": self.wall_seconds,
            "failed": self.failed,
            "speculative": self.speculative,
            "canceled": self.canceled,
        }


@dataclass
class TaskSpan:
    """One map or reduce task, with its attempt history.

    Built inside ``run_task_attempts`` (so every runtime produces it the
    same way) and shipped back to the driver as a picklable fragment;
    the driver fills ``records_out``/``bytes_out`` from the task output
    it already walks for shuffle accounting.
    """

    name: str
    attempts: list[AttemptSpan] = field(default_factory=list)
    records_out: int = 0
    bytes_out: int = 0

    @property
    def wall_seconds(self) -> float:
        """Total *measured* attempt time, failed attempts included.

        Speculative backup attempts are excluded: they are simulated by
        the pricing model, not executed, so counting them would
        double-charge re-pricing (``price_log``) and inflate measured
        wall totals.
        """
        return sum(
            attempt.wall_seconds
            for attempt in self.attempts
            if not attempt.speculative
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "task",
            "name": self.name,
            "records_out": self.records_out,
            "bytes_out": self.bytes_out,
            "wall_seconds": self.wall_seconds,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }


@dataclass
class StageSpan:
    """One pipeline stage of a job: map, combine, shuffle, or reduce.

    ``bytes_out`` is the stage's serialized output volume under the serde
    model.  For the ``shuffle`` stage it is exactly what crosses the wire
    (post-combine); for map-only jobs the shuffle stage records the bytes
    written to HDFS, matching ``JobResult.shuffle_bytes``.  ``combine``
    and ``shuffle`` carry no tasks of their own: combining runs inside
    the map tasks, and the shuffle is priced, not executed.
    """

    name: str
    records_in: int = 0
    records_out: int = 0
    bytes_out: int = 0
    simulated_seconds: float = 0.0
    tasks: list[TaskSpan] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        return sum(task.wall_seconds for task in self.tasks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "stage",
            "name": self.name,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "bytes_out": self.bytes_out,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "tasks": [task.to_dict() for task in self.tasks],
        }


@dataclass
class JobSpan:
    """The root span of one executed job."""

    name: str
    stage_label: str
    stages: list[StageSpan] = field(default_factory=list)
    simulated_seconds: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return sum(stage.wall_seconds for stage in self.stages)

    def stage(self, name: str) -> StageSpan | None:
        """Return the stage span called ``name``, or None when absent."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "job",
            "name": self.name,
            "stage_label": self.stage_label,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "stages": [stage.to_dict() for stage in self.stages],
        }


#: Fields dropped by :func:`canonical_trace`: everything time-valued.
_TIMING_FIELDS = frozenset({"wall_seconds", "simulated_seconds", "driver_seconds"})


def canonical_trace(trace: dict[str, Any]) -> dict[str, Any]:
    """The runtime-independent projection of a trace document.

    Strips every timing field (wall and simulated seconds differ between
    runs and runtimes) and sorts each stage's tasks by name (the process
    runtime may interleave task *execution*; collection order is already
    deterministic, but the comparison must not rely on it).  Two runs of
    the same job on any runtimes are equivalent iff their canonical
    traces are equal — including attempt counts and failure flags.
    """

    def strip(node: Any) -> Any:
        if isinstance(node, dict):
            cleaned = {
                key: strip(value)
                for key, value in node.items()
                if key not in _TIMING_FIELDS
            }
            if isinstance(cleaned.get("tasks"), list):
                cleaned["tasks"] = sorted(
                    cleaned["tasks"], key=lambda task: str(task.get("name", ""))
                )
            return cleaned
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    result: dict[str, Any] = strip(trace)
    return result


def job_emitted_bytes(job: dict[str, Any]) -> int:
    """Bytes this job put on the wire, read from its span dict.

    The ``shuffle`` stage records post-combine serialized bytes for
    shuffled jobs and the HDFS-written output bytes for map-only jobs, so
    it is the communication volume in both cases (and matches
    ``JobResult.shuffle_bytes``).
    """
    for stage in job.get("stages", []):
        if stage.get("name") == "shuffle":
            return int(stage.get("bytes_out", 0))
    return 0
