"""A small MapReduce engine: the Hadoop substrate of the reproduction.

Real computation, simulated placement: jobs execute in-process with
per-task timing; :class:`SimulatedCluster` then schedules the measured
task times onto a configurable slot pool with Hadoop-like startup and
shuffle costs.  See DESIGN.md §3 for why this substitution preserves the
paper's experimental shapes.
"""

from repro.mapreduce.cluster import (
    RUNTIMES,
    BackupAttempt,
    ClusterConfig,
    MemoryModel,
    SimulatedCluster,
    SpeculativeSchedule,
    make_runtime,
    makespan,
    price_log,
    speculative_makespan,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import (
    FileDataset,
    FileSplit,
    InputSplit,
    aligned_splits,
    block_splits,
)
from repro.mapreduce.job import MapReduceJob, stable_partition
from repro.mapreduce.process import ProcessPoolRuntime
from repro.mapreduce.runtime import FailureInjector, JobResult, LocalRuntime
from repro.mapreduce.serde import (
    decode_batch,
    encode_batch,
    estimate_size,
    record_size,
    records_size,
)
from repro.mapreduce.shuffle import (
    DEFAULT_BUFFER_BYTES,
    SHUFFLE_MODES,
    ExternalShuffle,
    MemoryShuffle,
    ShuffleConfig,
    make_shuffle,
)
from repro.mapreduce.tracing import (
    TRACE_SCHEMA_VERSION,
    JobSpan,
    StageSpan,
    TaskSpan,
    canonical_trace,
    job_emitted_bytes,
)

__all__ = [
    "BackupAttempt",
    "ClusterConfig",
    "Counters",
    "DEFAULT_BUFFER_BYTES",
    "ExternalShuffle",
    "FailureInjector",
    "FileDataset",
    "FileSplit",
    "InputSplit",
    "JobResult",
    "JobSpan",
    "LocalRuntime",
    "MapReduceJob",
    "MemoryModel",
    "MemoryShuffle",
    "ProcessPoolRuntime",
    "RUNTIMES",
    "SHUFFLE_MODES",
    "ShuffleConfig",
    "SimulatedCluster",
    "SpeculativeSchedule",
    "StageSpan",
    "TaskSpan",
    "TRACE_SCHEMA_VERSION",
    "aligned_splits",
    "block_splits",
    "canonical_trace",
    "decode_batch",
    "encode_batch",
    "estimate_size",
    "job_emitted_bytes",
    "make_runtime",
    "make_shuffle",
    "makespan",
    "price_log",
    "speculative_makespan",
    "record_size",
    "records_size",
    "stable_partition",
]
