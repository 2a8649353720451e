"""Observability: trace reports and analytical communication bounds.

Sits on top of the tracing subsystem
(:mod:`repro.mapreduce.tracing`): :mod:`repro.observe.bounds` turns the
paper's analytical communication arguments (Eq. 6 for the layered DP,
histogram compression for DGreedyAbs) into checkable per-stage byte
budgets, and :mod:`repro.observe.report` renders trace documents as
tables.  ``python -m repro.observe trace.json`` summarizes a trace
written by the CLI's ``--trace`` flag.
"""

from repro.algos.minhaarspace import max_row_entries
from repro.observe.bounds import (
    BoundCheck,
    LayerBound,
    check_dgreedy_trace,
    check_dmhaarspace_trace,
    dgreedy_histogram_bound,
    dmhaarspace_layer_bounds,
)
from repro.observe.report import render_trace, stage_rows, trace_summary

__all__ = [
    "BoundCheck",
    "LayerBound",
    "check_dgreedy_trace",
    "check_dmhaarspace_trace",
    "dgreedy_histogram_bound",
    "dmhaarspace_layer_bounds",
    "max_row_entries",
    "render_trace",
    "stage_rows",
    "trace_summary",
]
