"""Ablation: the error-bucket width ``e_b`` of Algorithm 3.

The bucket width trades level-1 -> level-2 communication against result
fidelity: coarse buckets collapse many discarded nodes into one histogram
bucket (and quantize the candidate evaluation), fine buckets approach one
bucket per node.  The paper introduces the knob for I/O efficiency
("132.44 vs 132.45"); this ablation quantifies the trade-off.

It also prices the paper's *histogram* encoding (an int per bucket)
against emitting the actual node lists — the ErrHistGreedyAbs idea.
"""

from conftest import run_once
from repro.algos import greedy_abs
from repro.bench import print_table
from repro.core import d_greedy_abs
from repro.data import uniform_dataset
from repro.mapreduce import SimulatedCluster


def regenerate_bucket_ablation(settings, log_n=13, widths=(1e-6, 0.1, 1.0, 10.0, 50.0)):
    n = 1 << log_n
    budget = n // 8
    data = uniform_dataset(n, (0, 1000), seed=settings.seed)
    reference = greedy_abs(data, budget).max_abs_error(data)
    rows = []
    for width in widths:
        cluster = SimulatedCluster(settings.cluster_config)
        synopsis = d_greedy_abs(
            data, budget, cluster, base_leaves=settings.subtree_leaves, bucket_width=width
        )
        histogram_job = cluster.log.jobs[1]
        # What the same runs would have shipped as explicit node lists:
        # every candidate re-emits every discarded node as a 4-byte id
        # (the O(min{R,B}+1) blow-up Section 5.2 calls out).
        records = histogram_job.map_output_records
        root_size = n // settings.subtree_leaves
        node_references = synopsis.meta["candidates"] * (n - root_size)
        list_bytes = histogram_job.shuffle_bytes + 4 * node_references
        rows.append(
            {
                "e_b": width,
                "hist records": records,
                "hist KB": histogram_job.shuffle_bytes / 1e3,
                "node-list KB": list_bytes / 1e3,
                "max_abs": synopsis.max_abs_error(data),
                "vs GreedyAbs": synopsis.max_abs_error(data) / reference,
            }
        )
    print_table(
        f"Ablation: bucket width e_b (N={n}, B=N/8, GreedyAbs err={reference:.2f})",
        rows,
    )
    return rows


def bench_ablation_bucket_width(benchmark, settings):
    rows = run_once(benchmark, regenerate_bucket_ablation, settings)
    # Communication shrinks monotonically with wider buckets (job 1 ships
    # one record per distinct run at every width; its histograms shrink)...
    shuffled = [row["hist KB"] for row in rows]
    assert shuffled == sorted(shuffled, reverse=True)
    # ...fidelity stays essentially intact through moderate widths...
    assert rows[1]["vs GreedyAbs"] < 1.05
    # ...and even the coarsest width only degrades gracefully.
    assert rows[-1]["vs GreedyAbs"] < 1.5
