"""Job abstractions for the MapReduce runtime.

A :class:`MapReduceJob` mirrors the Hadoop programming model the paper's
algorithms were written against:

* one **map task** per input split (the paper's mappers process whole
  sub-trees, so task-level granularity is the natural unit here);
* a **shuffle** that partitions map output by key, then sorts each
  reducer's partition by ``sort_key``;
* one **reduce task** per partition, seeing keys in sorted order.

Jobs that need Hadoop's "whole sorted partition" pattern (the paper's
``combineResults`` walks all key-values of its partition in error order)
override :meth:`MapReduceJob.reduce_partition` instead of
:meth:`MapReduceJob.reduce`.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Iterator
from typing import Any, ClassVar

from repro.mapreduce.hdfs import InputSplit

__all__ = ["MapReduceJob", "reduce_order", "stable_partition"]


def stable_partition(key: Any, num_reducers: int) -> int:
    """Deterministic default partitioner (CRC32 of the key's repr).

    Python's built-in ``hash`` is randomized for strings across processes;
    a CRC of the canonical repr keeps job placement reproducible.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % num_reducers


class MapReduceJob:
    """Base class for jobs; subclasses override ``map`` and ``reduce``."""

    #: Human-readable job name (shows up in job logs and reports).
    name: str = "job"

    #: Number of reduce tasks. ``0`` means a map-only job.
    num_reducers: int = 1

    #: Sort the keys of each reduce partition in descending order when True.
    sort_descending: bool = False

    #: Whether the job may be shipped to a worker process: picklable at
    #: module level, with no driver-side shared state read or written by
    #: its task methods.  Jobs that do share driver state (the layered DP
    #: jobs) declare ``process_safe = False`` and run in-process.  The
    #: process runtime reads this flag; the cross-runtime differential in
    #: ``tests/test_job_process_safety.py`` checks it by running every
    #: distributed algorithm on both runtimes.
    process_safe: ClassVar[bool] = True

    #: Algorithm-stage label for traces, e.g. ``"dgreedy.histograms"`` —
    #: the stable identity of the *role* a job plays in its algorithm,
    #: where :attr:`name` may carry per-instance detail (layer index,
    #: round number).  Every concrete job must declare one (meta-tested);
    #: the bound checkers in :mod:`repro.observe.bounds` select stages by
    #: this label.
    stage_label: ClassVar[str] = ""

    def map(self, split: InputSplit) -> Iterable[tuple[Any, Any]]:
        """Process one input split; yield ``(key, value)`` pairs."""
        raise NotImplementedError

    def combine(self, key: Any, values: list[Any]) -> Iterable[tuple[Any, Any]]:
        """Optional map-side combiner; default is the identity."""
        for value in values:
            yield key, value

    #: Set True when :meth:`combine` is overridden, to enable the map-side pass.
    use_combiner: bool = False

    def partition(self, key: Any, num_reducers: int) -> int:
        """Route ``key`` to a reducer; default is a stable hash."""
        return stable_partition(key, num_reducers)

    def sort_key(self, key: Any) -> Any:
        """Key used for the shuffle sort; default sorts on the key itself."""
        return key

    def reduce(self, key: Any, values: list[Any]) -> Iterable[tuple[Any, Any]]:
        """Process one key group; yield output ``(key, value)`` pairs."""
        raise NotImplementedError

    def reduce_partition(self, records: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        """Process a whole sorted reduce partition.

        ``records`` is the list of ``(key, value)`` pairs of this partition
        sorted by ``sort_key``.  The default groups consecutive equal keys
        and delegates to :meth:`reduce`.
        """
        index = 0
        total = len(records)
        while index < total:
            key = records[index][0]
            values: list[Any] = []
            while index < total and records[index][0] == key:
                values.append(records[index][1])
                index += 1
            yield from self.reduce(key, values)


def reduce_order(
    job: MapReduceJob, records: list[tuple[Any, Any]]
) -> list[tuple[Any, Any]]:
    """``records`` in the order ``job``'s reducer consumes them.

    A stable sort by ``job.sort_key`` (reversed when the job sorts
    descending), so equal keys keep their emission order.  Both shuffles
    deliver a partition that this sort leaves unchanged
    (:mod:`repro.mapreduce.shuffle`).
    """
    return sorted(
        records,
        key=lambda record: job.sort_key(record[0]),
        reverse=job.sort_descending,
    )
