"""Compare benchmark result sets against the bounds in BENCHMARK.json.

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl [B.jsonl]

Each file holds the records ``run.py --out`` appends, one JSON object per
(workload, seed) run.  For every workload the script first prints each
set's run count, operations attempted and failed, and runs whose result
reads ``correct: false``.  Then, for every workload and metric, it prints
the run count, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median.  An end-to-end metric other than ``setup_s`` whose spread exceeds
its bound is marked ``WIDE``.

With a second set it also prints the change of the median from A to B,
signed so that a positive change is a worsening, and marks the pairing
``ok`` when the two medians agree within the metric's bound.

Bounds apply to the reported times, which are CPU times scaled to a
reference host speed (hostspeed.py).  A last table gives the medians of
the raw figures each record keeps beside its result: the unscaled CPU
time under the metric's own name, and the wall-clock figure as
``wall.<metric>``.  With two sets it puts the change of each raw median
(B against A) next to the change of the reported metric's; a larger
``host_scale`` means the host ran faster.  A pairing whose raw and
reported medians both move by at least ``DIRECTION_MIN`` but in
opposite directions is marked ``DIR``: the correction may hide a change
there (work the program leaves running between operations slows the
reference loop; a wait that is not CPU time leaves CPU time as it is).
``DIR`` is for reading; raw times also carry the host's noise.

The exit code is 1 when any set has a failed operation or an incorrect
run, when B has more failed operations than A, or when any end-to-end
pairing is ``WIDE`` or out of bound.  Per-layer metrics (records of
``--trace 1`` runs) have no bound and are printed for reading only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Smallest relative move of a median that counts as a direction.
DIRECTION_MIN = 0.01


@dataclass
class ResultSet:
    """One result file, grouped by workload."""

    #: ``{(workload, metric): [value per run]}``.
    values: dict[tuple[str, str], list[float]] = field(default_factory=lambda: defaultdict(list))
    #: ``{(workload, raw figure): [value per run]}``.
    raw: dict[tuple[str, str], list[float]] = field(default_factory=lambda: defaultdict(list))
    #: ``{workload: Counter(runs, attempted, failed, incorrect)}``.
    tally: dict[str, Counter[str]] = field(default_factory=lambda: defaultdict(Counter))


def load_runs(path: str) -> ResultSet:
    found = ResultSet()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        workload, result = record["workload"], record["result"]
        tally = found.tally[workload]
        tally["runs"] += 1
        tally["attempted"] += int(result["attempted"])
        tally["failed"] += int(result["failed"])
        tally["incorrect"] += 0 if result["correct"] else 1
        for metric, entry in result["metrics"].items():
            found.values[(workload, metric)].append(float(entry["value"]))
        for name, value in record.get("raw", {}).items():
            found.raw[(workload, name)].append(float(value))
    return found


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def change(medians: list[float | None], better: str) -> float | None:
    """Relative change from A to B, positive = worse; None without both."""
    if len(medians) != 2 or None in medians or not medians[0]:
        return None
    a, b = medians
    assert a is not None and b is not None
    delta = (b - a) / a
    return -delta if better == "higher" else delta


def print_failures(workloads: list[str], sets: list[ResultSet]) -> int:
    """Print the operation tallies; return the count of failing checks."""
    bad = 0
    print(f"{'workload':13s}" + "".join(f" | {label}: runs attempted failed incorrect" for label in "AB"[: len(sets)]))
    for workload in workloads:
        tallies = [found.tally.get(workload, Counter()) for found in sets]
        if not any(tallies):
            continue
        row = f"{workload:13s}"
        flags = []
        for tally in tallies:
            row += f" | {tally['runs']:7d} {tally['attempted']:9d} {tally['failed']:6d} {tally['incorrect']:9d}"
            if tally["failed"] or tally["incorrect"]:
                flags.append("FAILED")
        if len(tallies) == 2 and tallies[1]["failed"] > tallies[0]["failed"]:
            flags.append("MORE-FAILED")
        bad += bool(flags)
        print(row + ("  " + " ".join(flags) if flags else ""))
    print()
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="RESULTS.jsonl")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    spec = json.loads(SPEC_PATH.read_text())
    metrics: dict[str, dict[str, Any]] = {
        entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]
    }
    workloads = [entry["name"] for entry in spec["workloads"]]
    sets = [load_runs(path) for path in args.sets]

    bad = print_failures(workloads, sets)
    scaled_change: dict[tuple[str, str], float | None] = {}
    header = f"{'workload':13s} {'metric':44s} {'unit':8s} {'bound':>5s}"
    for label in "AB"[: len(sets)]:
        header += f" | {label}:n {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
    print(header + (" | change" if len(sets) == 2 else ""))
    for workload in workloads:
        for name, entry in metrics.items():
            runs = [found.values.get((workload, name)) for found in sets]
            if not any(runs):
                continue
            bound = entry.get("bound")
            row = f"{workload:13s} {name:44s} {entry['unit']:8s} "
            row += f"{bound:5.2f}" if bound is not None else f"{'-':>5s}"
            medians: list[float | None] = []
            flags = []
            for values in runs:
                if not values:
                    row += " |   0" + " " * 44
                    medians.append(None)
                    continue
                median, q1, q3, spread = summary(values)
                medians.append(median)
                row += f" | {len(values):3d} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.2%}"
                if bound is not None and name != "setup_s" and spread > bound:
                    flags.append("WIDE")
            moved = change(medians, entry["better"])
            scaled_change[(workload, name)] = moved
            if moved is not None:
                row += f" | {moved:+7.2%}"
                if bound is not None:
                    flags.append("ok" if abs(moved) <= bound else "OUT")
            if "WIDE" in flags or "OUT" in flags:
                bad += 1
            print(row + ("  " + " ".join(flags) if flags else ""))

    raw_names = sorted({name for found in sets for (_, name) in found.raw})
    if raw_names:
        print()
        header = f"{'workload':13s} {'raw (unscaled)':44s}"
        header += "".join(f" | {label}:n {'median':>11s}" for label in "AB"[: len(sets)])
        print(header + (" | raw change | reported change" if len(sets) == 2 else ""))
    for workload in workloads:
        for name in raw_names:
            runs = [found.raw.get((workload, name)) for found in sets]
            if not any(runs):
                continue
            row = f"{workload:13s} {name:44s}"
            medians = []
            for values in runs:
                medians.append(statistics.median(values) if values else None)
                row += f" | {len(values or []):3d} {medians[-1] or 0.0:11.5g}"
            raw_moved = change(medians, "lower")  # every raw time is lower-better
            if raw_moved is not None:
                row += f" | {raw_moved:+10.2%}"
                scaled = scaled_change.get((workload, name.removeprefix("wall.")))
                if scaled is not None:
                    row += f" | {scaled:+15.2%}"
                    if min(abs(raw_moved), abs(scaled)) >= DIRECTION_MIN and raw_moved * scaled < 0:
                        row += "  DIR"
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
