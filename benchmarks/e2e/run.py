"""End-to-end benchmark: measured wall-clock, latency and memory per workload.

Usage (from the repository root; the program is imported from ``src/``)::

    python3 benchmarks/e2e/run.py --workload build-greedy --seed 7
    python3 benchmarks/e2e/run.py --workload serve-hot --trace 1 --spans traces
    python3 benchmarks/e2e/run.py --seed 7 --runs 10 --out results.jsonl

With one ``--workload`` and one run, the workload runs in this process:
it is set up ``SETUP_REPEATS`` times, then its operation runs in a closed
loop (one client, the next operation starts when the previous one has
returned) for ``--seconds``, and every output is checked.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Any failed operation makes the exit code 1.  Times are
CPU times at a fixed reference host speed (``hostspeed.py``); the raw
figures, unscaled CPU times and wall times, are printed as JSON on a
line of their own, starting with ``RAW_PREFIX``, above the result.

``--trace 1`` runs half of ``--seconds`` untraced and, after one more
set-up, half with the wrappers of ``layers.py`` installed, and reports
per-operation layer figures; ``--spans DIR`` also writes the spans to
``DIR/<workload>.spans.json``.

Any other selection (no ``--workload``, several, or ``--runs`` above 1)
runs every (run, workload) pair in a fresh subprocess of this script,
with seeds ``seed``, ``seed + 1``, ..., and appends one JSON record per
pair to ``--out`` for ``compare.py``: the result and the raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from hostspeed import MIN_SAMPLES, HostSpeed, lap, mark
from layers import ROOT_SPAN, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Tracebacks printed per phase; later failures are only counted.
MAX_TRACEBACKS = 3

#: Start of the output line that holds the raw (unscaled) figures.  A raw
#: figure named after a metric is its unscaled CPU time; ``wall.<metric>``
#: is the same figure taken from wall-clock time.
RAW_PREFIX = "raw (unscaled): "

#: Children's peak RSS (KiB) when this process started.  Linux keeps the
#: figure across exec, so children a launcher reaped show up in it.
CHILDREN_RSS_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def load_spec() -> dict[str, Any]:
    spec: dict[str, Any] = json.loads(SPEC_PATH.read_text())
    return spec


def import_workloads() -> dict[str, Any]:
    """Import the program from ``src/`` and return the workload classes."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program is missing: no {src / 'repro' / '__init__.py'}")
    sys.path.insert(0, str(src))
    import repro
    from workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: repro was imported from {repro.__file__}, not {src}")
    return WORKLOADS


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Phase:
    """One closed-loop timed phase."""

    #: Wall time of the timed part of each successful op, in seconds.
    latencies: list[float] = field(default_factory=list)
    #: CPU time of each of those timed parts, in seconds.
    cpu: list[float] = field(default_factory=list)
    #: ``perf_counter`` interval around each successful op.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    begin: float = 0.0
    end: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def scaled_cpu(self, speed: HostSpeed) -> np.ndarray:
        """CPU time of each op in reference-speed seconds (hostspeed.py)."""
        return np.asarray(
            [cpu * speed.scale(begin, end) for cpu, (begin, end) in zip(self.cpu, self.intervals)]
        )

    def scaled_wall(self, speed: HostSpeed) -> float:
        """The phase's wall time in reference-speed seconds."""
        return (self.end - self.begin) * speed.scale(self.begin, self.end)


def run_phase(
    workload: Any, seconds: float, first_op: int, speed: HostSpeed, tracer: Any = None
) -> Phase:
    """Run operations back to back for ``seconds`` (at least one).

    Between operations, outside any operation's timing, the host-speed
    reference loop is sampled about every ``hostspeed.EVERY_S`` seconds.
    """
    phase = Phase()
    phase.begin = time.perf_counter()
    deadline = phase.begin + seconds
    while phase.attempted == 0 or time.perf_counter() < deadline:
        index = first_op + phase.attempted
        if tracer is not None:
            tracer.op = index
        begin = time.perf_counter()
        try:
            latency, cpu = workload.op(index)
        except Exception:  # a raised error or a failed check: count it, go on
            phase.failed += 1
            if phase.failed <= MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            continue
        phase.latencies.append(latency)
        phase.cpu.append(cpu)
        phase.intervals.append((begin, time.perf_counter()))
        speed.maybe_sample()
    phase.end = time.perf_counter()
    speed.sample(MIN_SAMPLES)
    return phase


def finish_checks(workload: Any) -> int:
    """Run the workload's untimed end checks; return the failure count."""
    try:
        workload.finish()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    return 0


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    """Percentile in ms; 0 when no operation succeeded (the run has failed)."""
    return float(np.percentile(seconds, q)) * 1e3 if seconds.size else 0.0


def end_to_end_metrics(
    speed: HostSpeed, setup_s: float, phase: Phase, raw: dict[str, float]
) -> dict[str, tuple[float, int]]:
    """``{name: (value, samples)}`` for the ``end_to_end`` metrics.

    Adds the unscaled CPU and wall percentiles and the phase's host
    scale to ``raw``.
    """
    scaled = phase.scaled_cpu(speed)
    samples = len(phase.latencies)
    for q in (50, 75):
        raw[f"op_cpu_p{q}_ms"] = percentile_ms(np.asarray(phase.cpu), q)
        raw[f"wall.op_cpu_p{q}_ms"] = percentile_ms(np.asarray(phase.latencies), q)
    raw["host_scale"] = speed.scale(phase.begin, phase.end)
    return {
        "setup_s": (setup_s, SETUP_REPEATS),
        "op_cpu_p50_ms": (percentile_ms(scaled, 50), samples),
        "op_cpu_p75_ms": (percentile_ms(scaled, 75), samples),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def layer_metrics(
    speed: HostSpeed,
    tracer: Any,
    traced: Phase,
    untraced: Phase,
    root_s: float,
    layer: dict[str, float],
    raw: dict[str, float],
) -> dict[str, tuple[float, int]]:
    """``{name: (value, samples)}`` for the ``per_layer`` metrics, per op.

    Span times are wall times (spans do not read CPU clocks, so that
    they add up to ``traced.op_ms``) scaled with the traced phase's
    median reference-loop time; ``trace_overhead_ratio`` compares the
    two phases' wall times scaled the same way.
    ``untraced.op_cpu_p50_ms`` is measured like ``op_cpu_p50_ms``.
    ``mapreduce.simulated_ms`` is the cost model's price as the model
    reports it.  Adds the untraced phase's unscaled CPU and wall medians
    and the traced phase's host scale to ``raw``.
    """
    ops = traced.attempted
    scale = speed.scale(traced.begin, traced.end)
    ms = scale * 1e3 / ops
    per_op: dict[str, float] = {}
    for name, row in tracer.self_time_table().items():
        if name == ROOT_SPAN:
            continue
        per_op[f"{name}.calls"] = row["calls"] / ops
        per_op[f"{name}.self_ms"] = row["self_s"] * ms
    for name in (
        "mapreduce.jobs",
        "mapreduce.shuffle_bytes",
        "mapreduce.map_output_records",
        "mapreduce.failed_attempts",
        "serving.cache_evictions",
    ):
        per_op[name] = layer.get(name, 0.0) / ops
    per_op["serving.invalidated_segments"] = (
        tracer.counters.get("serving.invalidated_segments", 0) / ops
    )
    for name in ("map_task", "reduce_task"):
        per_op[f"mapreduce.{name}_ms"] = layer.get(f"mapreduce.{name}_s", 0.0) * ms
    per_op["mapreduce.simulated_ms"] = layer.get("mapreduce.simulated_s", 0.0) * 1e3 / ops
    hits = layer.get("serving.cache_hits", 0.0)
    lookups = hits + layer.get("serving.cache_misses", 0.0)
    per_op["serving.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    total = layer.get("serving.total_subtrees", 0.0)
    per_op["serving.reused_subtree_ratio"] = (
        layer.get("serving.reused_subtrees", 0.0) / total if total else 0.0
    )
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    grown = children > CHILDREN_RSS_AT_START
    per_op["mapreduce.worker_peak_rss_mb"] = children / 1024.0 if grown else 0.0
    per_op["unattributed_ms"] = tracer.unattributed_seconds() * ms
    per_op["traced.op_ms"] = root_s * ms
    per_op["traced.ops"] = float(ops)
    per_op["trace_overhead_ratio"] = (traced.scaled_wall(speed) / ops) / (
        untraced.scaled_wall(speed) / untraced.attempted
    )
    per_op["untraced.op_cpu_p50_ms"] = percentile_ms(untraced.scaled_cpu(speed), 50)
    raw["untraced.op_cpu_p50_ms"] = percentile_ms(np.asarray(untraced.cpu), 50)
    raw["wall.untraced.op_cpu_p50_ms"] = percentile_ms(np.asarray(untraced.latencies), 50)
    raw["host_scale"] = scale
    measured = {name: (value, ops) for name, value in per_op.items()}
    measured["untraced.op_cpu_p50_ms"] = (per_op["untraced.op_cpu_p50_ms"], len(untraced.cpu))
    return measured


def check_attribution(tracer: Any, root_s: float) -> None:
    """Wrapped self times plus unattributed time must add up to the root."""
    attributed = sum(row["self_s"] for row in tracer.self_time_table().values())
    if abs(attributed - root_s) > 0.01 * root_s:
        raise RuntimeError(f"self times add up to {attributed:.4f} s of {root_s:.4f} s")


def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Run one workload in this process and print its result."""
    speed = HostSpeed()
    speed.sample(MIN_SAMPLES)
    start = mark()
    workloads = import_workloads()
    laps = [(start[0], *lap(start))]  # (begin, wall, CPU)
    speed.sample(MIN_SAMPLES)

    workload = workloads[args.workload[0]](args.seed)
    for _ in range(SETUP_REPEATS):
        start = mark()
        workload.setup()
        laps.append((start[0], *lap(start)))
        speed.sample(MIN_SAMPLES)

    if not args.trace:
        phase = run_phase(workload, args.seconds, 0, speed)
        failed = phase.failed + finish_checks(workload)
        attempted = phase.attempted
    else:
        untraced = run_phase(workload, args.seconds / 2, 0, speed)
        # Start the traced half from a set-up too, so that serve-append's
        # store has room for it and does not start over under the tracer.
        workload.setup()
        before = workload.counters()
        with LayerTracer() as tracer:
            tracer.open_root()
            traced = run_phase(workload, args.seconds / 2, untraced.attempted, speed, tracer)
            root_s = tracer.close_root()
        after = workload.counters()
        check_attribution(tracer, root_s)
        if args.spans:
            tracer.write(Path(args.spans) / f"{workload.name}.spans.json")
        failed = untraced.failed + traced.failed + finish_checks(workload)
        attempted = untraced.attempted + traced.attempted

    # Import of the program plus the median set-up.
    scaled = [cpu * speed.scale(begin, begin + wall) for begin, wall, cpu in laps]
    setup_s = scaled[0] + statistics.median(scaled[1:])
    raw = {
        "setup_s": laps[0][2] + statistics.median(cpu for _, _, cpu in laps[1:]),
        "wall.setup_s": laps[0][1] + statistics.median(wall for _, wall, _ in laps[1:]),
    }
    if not args.trace:
        measured = end_to_end_metrics(speed, setup_s, phase, raw)
        wanted = spec["end_to_end"]
    else:
        layer = {key: after[key] - before.get(key, 0.0) for key in after}
        measured = layer_metrics(speed, tracer, traced, untraced, root_s, layer, raw)
        wanted = spec["per_layer"]

    metrics = {}
    for entry in wanted:
        value, samples = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{workload.name:14s} {entry['name']:46s} {value:14.6g} {entry['unit']:9s} n={samples}")
    print(RAW_PREFIX + json.dumps(raw))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def machine() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_many(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Run each (run, workload) pair in a fresh subprocess of this script."""
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    failures = 0
    for run in range(args.runs):
        seed = args.seed + run
        for name in names:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            if args.spans:
                command += ["--spans", args.spans]
            child = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):  # no result line: the run crashed
                result = None
            if child.returncode != 0 or result is None:
                failures += 1
                print(f"{name} seed {seed}: exit code {child.returncode}", file=sys.stderr)
                if result is None:
                    continue
            raw = [json.loads(line[len(RAW_PREFIX) :]) for line in lines if line.startswith(RAW_PREFIX)]
            record = {
                "workload": name,
                "seed": seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": machine(),
                "raw": raw[-1] if raw else {},
                "result": result,
            }
            if args.out:
                with open(args.out, "a", encoding="utf-8") as out:
                    out.write(json.dumps(record) + "\n")
    print(json.dumps({"runs": args.runs, "workloads": names, "failed_runs": failures}))
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="directory for <workload>.spans.json (with --trace 1)")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="append one JSON record per run to this file")
    args = parser.parse_args(argv)
    if args.workload and len(args.workload) == 1 and args.runs == 1 and not args.out:
        return run_workload(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
