"""The shuffle layer: in-memory partitioning or spill-to-disk external sort.

The runtime registry gained interchangeable *execution* engines in PR 3;
this module does the same for the *shuffle*.  Two disciplines, selected
by :class:`ShuffleConfig` (CLI ``--shuffle {memory,external}``):

* :class:`MemoryShuffle` — today's behaviour: every partition is a
  resident python list, appended in map-output order.  Zero overhead,
  memory proportional to the whole shuffle volume.
* :class:`ExternalShuffle` — Hadoop's external sort: map output is
  buffered per partition up to ``buffer_bytes`` (charged under the serde
  *model*, so the knob means the same thing the Eq. 6 budgets do), then
  each partition's buffer is stable-sorted by the job's sort key and
  spilled as one columnar record batch (:func:`repro.mapreduce.serde.
  encode_batch`) — a *run file*.  Reduce input is the k-way merge of a
  partition's run files plus its unspilled tail, produced in final
  sorted order.  Driver memory is bounded by ``buffer_bytes`` plus one
  reduce partition (the reducer-memory side of Afrati et al.'s
  replication-rate vs reducer-memory trade-off; the replication-rate
  side is unchanged — the external path moves exactly the same records).

Bit-identity with the in-memory path is a theorem, not an aspiration:

* runs are filled in global emission order and spilled chronologically,
  so every record of run ``r`` precedes every record of run ``r+1`` in
  emission order;
* each run is *stable*-sorted by ``job.sort_key`` (reversed when the job
  sorts descending), so ties within a run stay in emission order;
* :func:`heapq.merge` is stable across its inputs (ties resolve to the
  earliest iterable), so merging runs chronologically yields exactly
  ``sorted(partition, key=sort_key, reverse=...)`` of the in-memory
  partition — and re-sorting an already-sorted list with the same stable
  sort (which :func:`~repro.mapreduce.runtime.run_reduce_task` does) is
  the identity.

Run files live in a private per-job directory created inside
``spill_dir`` (or a system temp directory) on first spill and removed by
:meth:`ShuffleBase.close` — which the runtime calls in a ``finally``, so
failed task attempts, exhausted retries, and job aborts never leave
orphaned spill files behind (tested in ``test_job_process_safety.py``).
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import InvalidInputError
from repro.mapreduce.job import MapReduceJob, reduce_order
from repro.mapreduce.serde import decode_batch, encode_batch

__all__ = [
    "DEFAULT_BUFFER_BYTES",
    "SHUFFLE_MODES",
    "ExternalShuffle",
    "MemoryShuffle",
    "ShuffleBase",
    "ShuffleConfig",
    "make_shuffle",
]

#: Default in-memory buffer of the external shuffle, in serde-model bytes.
DEFAULT_BUFFER_BYTES = 64 << 20

#: Shuffle disciplines selectable from the CLI / experiment configs.
SHUFFLE_MODES = ("memory", "external")


@dataclass(frozen=True)
class ShuffleConfig:
    """Knobs of the shuffle layer.

    ``buffer_bytes`` bounds the *modeled* size of buffered map output
    before a spill; ``spill_dir`` hosts the per-job run directories (a
    system temp directory when None).  Both are ignored in memory mode.
    """

    mode: str = "memory"
    spill_dir: str | None = None
    buffer_bytes: int = DEFAULT_BUFFER_BYTES

    def __post_init__(self) -> None:
        if self.mode not in SHUFFLE_MODES:
            options = ", ".join(SHUFFLE_MODES)
            raise InvalidInputError(
                f"unknown shuffle mode {self.mode!r} (choose from: {options})"
            )
        if (
            not isinstance(self.buffer_bytes, int)
            or isinstance(self.buffer_bytes, bool)
            or self.buffer_bytes <= 0
        ):
            raise InvalidInputError(
                "shuffle buffer_bytes must be a positive integer, "
                f"got {self.buffer_bytes!r}"
            )


class ShuffleBase:
    """One job run's shuffle: fed task by task, drained partition by partition."""

    def __init__(self, job: MapReduceJob) -> None:
        self.job = job
        self.num_reducers = job.num_reducers
        #: Spill accounting (external mode only; empty for memory mode so
        #: in-memory and external runs keep bit-identical counters/traces).
        self.stats: dict[str, int] = {}

    def add_records(self, records: list[tuple[Any, Any]], modeled_bytes: int) -> None:
        """Accept one map task's (post-combine) output, in emission order.

        ``modeled_bytes`` is the output's serde-model total
        (:func:`repro.mapreduce.serde.records_size`), which the driver has
        already computed for its own accounting.
        """
        raise NotImplementedError

    def partitions(self) -> list[list[tuple[Any, Any]]]:
        """Materialize every reduce partition, in partition order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release buffers and delete any spill files/directories."""


class MemoryShuffle(ShuffleBase):
    """Resident-list partitioning — byte-for-byte the historical behaviour."""

    def __init__(self, job: MapReduceJob) -> None:
        super().__init__(job)
        self._partitions: list[list[tuple[Any, Any]]] = [
            [] for _ in range(self.num_reducers)
        ]

    def add_records(self, records: list[tuple[Any, Any]], modeled_bytes: int) -> None:
        partition = self.job.partition
        for key, value in records:
            self._partitions[partition(key, self.num_reducers)].append((key, value))

    def partitions(self) -> list[list[tuple[Any, Any]]]:
        return self._partitions

    def close(self) -> None:
        self._partitions = []


class ExternalShuffle(ShuffleBase):
    """Bounded-buffer external sort: sorted runs on disk, k-way merge back."""

    def __init__(self, job: MapReduceJob, config: ShuffleConfig) -> None:
        super().__init__(job)
        self.config = config
        self._buffers: list[list[tuple[Any, Any]]] = [
            [] for _ in range(self.num_reducers)
        ]
        self._buffered_bytes = 0
        #: Chronological run files per partition.
        self._runs: list[list[Path]] = [[] for _ in range(self.num_reducers)]
        self._run_dir: Path | None = None
        self.stats = {
            "spills": 0,
            "spilled_records": 0,
            "spilled_bytes_modeled": 0,
            "spilled_bytes_encoded": 0,
            "run_files": 0,
            "merged_runs_max": 0,
        }

    def _ensure_run_dir(self) -> Path:
        if self._run_dir is None:
            parent = self.config.spill_dir
            if parent is not None:
                Path(parent).mkdir(parents=True, exist_ok=True)
            self._run_dir = Path(
                tempfile.mkdtemp(prefix=f"shuffle-{self.job.name}-", dir=parent)
            )
        return self._run_dir

    def add_records(self, records: list[tuple[Any, Any]], modeled_bytes: int) -> None:
        partition = self.job.partition
        for record in records:
            self._buffers[partition(record[0], self.num_reducers)].append(record)
        self._buffered_bytes += modeled_bytes
        if self._buffered_bytes >= self.config.buffer_bytes:
            self._spill()

    def _spill(self) -> None:
        """Flush every non-empty partition buffer as one sorted run file."""
        run_dir = self._ensure_run_dir()
        spilled = False
        for partition_id, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            spilled = True
            run_index = len(self._runs[partition_id])
            path = run_dir / f"p{partition_id:05d}-run{run_index:05d}.rprb"
            encoded = encode_batch(reduce_order(self.job, buffer))
            path.write_bytes(encoded)
            self._runs[partition_id].append(path)
            self.stats["spilled_records"] += len(buffer)
            self.stats["spilled_bytes_encoded"] += len(encoded)
            self.stats["run_files"] += 1
            self._buffers[partition_id] = []
        if spilled:
            self.stats["spills"] += 1
            self.stats["spilled_bytes_modeled"] += self._buffered_bytes
        self._buffered_bytes = 0

    def partitions(self) -> list[list[tuple[Any, Any]]]:
        sort_key = self.job.sort_key
        merged: list[list[tuple[Any, Any]]] = []
        for partition_id in range(self.num_reducers):
            runs: list[list[tuple[Any, Any]]] = [
                decode_batch(path.read_bytes())
                for path in self._runs[partition_id]
            ]
            tail = reduce_order(self.job, self._buffers[partition_id])
            if tail:
                runs.append(tail)
            self.stats["merged_runs_max"] = max(
                self.stats["merged_runs_max"], len(runs)
            )
            merged.append(
                list(
                    heapq.merge(
                        *runs,
                        key=lambda record: sort_key(record[0]),
                        reverse=self.job.sort_descending,
                    )
                )
            )
            self._buffers[partition_id] = []
        return merged

    def close(self) -> None:
        self._buffers = []
        self._runs = []
        if self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)
            self._run_dir = None


def make_shuffle(config: ShuffleConfig | None, job: MapReduceJob) -> ShuffleBase:
    """Instantiate the configured shuffle for one job run."""
    if config is None or config.mode == "memory":
        return MemoryShuffle(job)
    return ExternalShuffle(job, config)
