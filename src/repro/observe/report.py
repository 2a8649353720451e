"""Human-readable summaries of trace documents.

Turns the JSON trace (:meth:`repro.mapreduce.cluster.RunLog.trace`) into
per-job / per-stage tables in the same monospace style the bench harness
prints, plus a compact roll-up dict for embedding into ``BENCH_*.json``
measurements.
"""

from __future__ import annotations

from typing import Any

from repro.bench.reporting import format_table

__all__ = ["stage_rows", "trace_summary", "render_trace"]


def stage_rows(trace: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten a trace into one row per (job, stage) for tabulation."""
    rows: list[dict[str, Any]] = []
    for job in trace.get("jobs", []):
        for stage in job.get("stages", []):
            rows.append(
                {
                    "job": job.get("name"),
                    "label": job.get("stage_label"),
                    "stage": stage.get("name"),
                    "tasks": len(stage.get("tasks", [])),
                    "records_in": stage.get("records_in"),
                    "records_out": stage.get("records_out"),
                    "bytes_out": stage.get("bytes_out"),
                    "wall_s": stage.get("wall_seconds"),
                    "sim_s": stage.get("simulated_seconds"),
                }
            )
    return rows


def trace_summary(trace: dict[str, Any]) -> dict[str, Any]:
    """Compact roll-up of a trace: totals per stage label.

    This is the piece the bench harness attaches to each measurement —
    small enough to live inside ``BENCH_*.json`` while still splitting
    communication volume by algorithm stage.
    """
    by_label: dict[str, dict[str, Any]] = {}
    for job in trace.get("jobs", []):
        label = str(job.get("stage_label", ""))
        entry = by_label.setdefault(
            label, {"jobs": 0, "shuffle_bytes": 0, "simulated_seconds": 0.0}
        )
        entry["jobs"] += 1
        entry["simulated_seconds"] += float(job.get("simulated_seconds", 0.0))
        for stage in job.get("stages", []):
            if stage.get("name") == "shuffle":
                entry["shuffle_bytes"] += int(stage.get("bytes_out", 0))
    return {
        "schema": trace.get("schema"),
        "jobs": len(trace.get("jobs", [])),
        "driver_seconds": trace.get("driver_seconds"),
        "stage_labels": by_label,
    }


def render_trace(trace: dict[str, Any]) -> str:
    """Render the per-stage table (what ``python -m repro.observe`` prints)."""
    rows = stage_rows(trace)
    header = (
        f"trace schema {trace.get('schema')}: {len(trace.get('jobs', []))} jobs, "
        f"driver {float(trace.get('driver_seconds', 0.0)):.4f}s"
    )
    return header + "\n" + format_table(rows)
