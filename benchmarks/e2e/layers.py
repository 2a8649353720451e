"""Per-layer tracing for the traced benchmark run.

:class:`LayerTracer` wraps the public functions listed in :data:`TRACED`
for the duration of a ``with`` block and records one span per call:
name, start, end, parent span and workload op id.  The wrapper replaces
the attribute on *every* loaded ``repro.*`` module and class that holds
the original object, so ``from x import f`` bindings are caught as well,
and every replacement is restored on exit.

Only calls made by the benchmark's own process are recorded.  Process
pool workers inherit the wrappers through ``fork``; there the wrapper
calls straight through, and the workers' time is read from the task
spans the MapReduce runtime already records.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (the traced process runs its calls on one
thread), so the self times of all spans, including the root span the
benchmark opens around its timed phase, add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: Wrapped public functions: (layer metric prefix, module, attribute,
#: counter that sums the function's return value or None).
TRACED: list[tuple[str, str, str, str | None]] = [
    ("core.d_greedy_abs", "repro.core.dgreedy", "d_greedy_abs", None),
    ("core.dm_haar_space", "repro.core.dp_framework", "dm_haar_space", None),
    ("mapreduce.run_job", "repro.mapreduce.cluster", "SimulatedCluster.run_job", None),
    ("mapreduce.record_size", "repro.mapreduce.serde", "record_size", None),
    ("algos.leaf_rows", "repro.algos.minhaarspace", "leaf_rows", None),
    ("algos.combine_rows", "repro.algos.minhaarspace", "combine_rows", None),
    ("algos.traceback_subtree", "repro.algos.minhaarspace", "traceback_subtree", None),
    (
        "algos.GreedyAbsTree.run_to_exhaustion",
        "repro.algos.greedy_abs",
        "GreedyAbsTree.run_to_exhaustion",
        None,
    ),
    ("core.base_subtree_greedy", "repro.core.dgreedy", "base_subtree_greedy", None),
    ("core.root_subtree_greedy", "repro.core.dgreedy", "root_subtree_greedy", None),
    ("wavelet.haar_transform", "repro.wavelet.transform", "haar_transform", None),
    (
        "wavelet.inverse_haar_transform",
        "repro.wavelet.transform",
        "inverse_haar_transform",
        None,
    ),
    ("serving.append", "repro.serving.store", "ShardedSynopsisStore.append", None),
    ("serving.batch", "repro.serving.store", "ShardedSynopsisStore.batch", None),
    (
        "serving.GreedyMaintainer.build",
        "repro.serving.incremental",
        "GreedyMaintainer.build",
        None,
    ),
    ("serving.reconstruct_segment", "repro.serving.cache", "reconstruct_segment", None),
    (
        "serving.ReconstructionCache.invalidate",
        "repro.serving.cache",
        "ReconstructionCache.invalidate",
        "serving.invalidated_segments",
    ),
    ("analysis.stable_digest", "repro.analysis.sanitizer", "stable_digest", None),
]

ROOT_SPAN = "workload"


def _resolve(module_name: str, attribute: str) -> Any:
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    # Read class attributes from __dict__: getattr would return a bound
    # or static view, not the function object the class holds.
    return vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)


def _holders(original: Any) -> list[tuple[Any, str]]:
    """Every (repro module or class, attribute) bound to ``original``."""
    found: list[tuple[Any, str]] = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
            elif isinstance(value, type) and value.__module__ == module_name:
                found.extend(
                    (value, name) for name, member in vars(value).items() if member is original
                )
    return found


class LayerTracer:
    """Span recorder over the :data:`TRACED` functions (a context manager)."""

    def __init__(self) -> None:
        self.names = [entry[0] for entry in TRACED] + [ROOT_SPAN]
        self._root_id = len(self.names) - 1
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.calls = [0] * len(self.names)
        self.self_seconds = [0.0] * len(self.names)
        self.counters: dict[str, float] = {}
        #: Workload op the next spans belong to (-1 outside any op).
        self.op = -1
        self._stack: list[list[float]] = []  # [span index, child seconds]
        self._root_index = -1
        self._pid = os.getpid()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name_id: int) -> None:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(int(self._stack[-1][0]) if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(time.perf_counter())

    def _exit(self) -> None:
        now = time.perf_counter()
        index, child_seconds = self._stack.pop()
        span = int(index)
        self.end[span] = now
        duration = now - self.start[span]
        name_id = self.name_id[span]
        self.calls[name_id] += 1
        self.self_seconds[name_id] += duration - child_seconds
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, original: Callable[..., Any], name_id: int, counter: str | None) -> Any:
        pid = self._pid

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid:  # a forked pool worker: not traced
                return original(*args, **kwargs)
            self._enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self.counters[counter] = self.counters.get(counter, 0) + result
            return result

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for name_id, (_, module_name, attribute, counter) in enumerate(TRACED):
            original = _resolve(module_name, attribute)
            wrapper = self._wrap(original, name_id, counter)
            for owner, key in _holders(original):
                self._restore.append((owner, key, original))
                setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- the root span ------------------------------------------------------

    def open_root(self) -> None:
        """Open the span that covers the whole timed phase."""
        self.op = -1
        self._root_index = len(self.start)
        self._enter(self._root_id)

    def close_root(self) -> float:
        """Close the root span; return its duration in seconds."""
        self.op = -1
        self._exit()
        return self.end[self._root_index] - self.start[self._root_index]

    # -- results ------------------------------------------------------------

    def unattributed_seconds(self) -> float:
        """Self time of the root span: time inside no wrapped call."""
        return self.self_seconds[self._root_id]

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s"}}`` for every wrapped function."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_seconds[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans (columnar) and the self-time table as JSON."""
        document = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op_id.tolist(),
            },
            "self_time": self.self_time_table(),
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
