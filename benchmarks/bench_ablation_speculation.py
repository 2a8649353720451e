"""Ablation: speculative straggler re-execution in the simulated scheduler.

Hadoop launches *backup attempts* for tasks that run well past their
peers and takes whichever attempt finishes first.  Our simulated
scheduler reproduces that policy (``ClusterConfig(speculation=True)``):
a backup launches when a running task exceeds ``slowdown`` times the
completed-attempt duration quantile and only when a slot would otherwise
sit idle, so speculation can never delay a primary attempt.

This ablation manufactures stragglers with a failure injector (failed
attempts burn their wall time before retrying, Hadoop's
lost-near-completion mode), prices the same measured DP workload with
speculation on and off, and reads the backup hit rate from the
``speculation.*`` trace counters.  The synopsis itself must be untouched:
speculation is a placement policy, not an algorithm change.
"""

from conftest import run_once
from repro.bench import print_table
from repro.core.dp_framework import dm_haar_space
from repro.data import uniform_dataset
from repro.mapreduce import (
    FailureInjector,
    LocalRuntime,
    SimulatedCluster,
    price_log,
)


def regenerate_speculation_ablation(
    settings,
    log_n=14,
    subtree_leaves=256,
    epsilon=60.0,
    delta=1.0,
    probabilities=(0.1, 0.2, 0.3),
):
    n = 1 << log_n
    data = uniform_dataset(n, (0, 1000), seed=settings.seed)
    spec_config = settings.cluster_config.scaled(speculation=True)

    # Failure-free reference: the coefficients every injected run must match.
    clean = dm_haar_space(
        data,
        epsilon,
        delta,
        SimulatedCluster(settings.cluster_config),
        subtree_leaves=subtree_leaves,
        layer_plan="auto",
    )
    reference = dict(clean.synopsis.coefficients)

    rows = []
    for probability in probabilities:
        # A fixed injector seed (decoupled from the data seed) and a
        # generous retry budget: stragglers are tasks that lose several
        # near-complete attempts, not tasks the job gives up on.
        injector = FailureInjector(probability, seed=11, max_attempts=10)
        cluster = SimulatedCluster(
            spec_config, runtime=LocalRuntime(failure_injector=injector)
        )
        solution = dm_haar_space(
            data,
            epsilon,
            delta,
            cluster,
            subtree_leaves=subtree_leaves,
            layer_plan="auto",
        )
        launched = sum(
            job.counters.get("speculation.backups_launched", 0)
            for job in cluster.log.jobs
        )
        won = sum(
            job.counters.get("speculation.backups_won", 0)
            for job in cluster.log.jobs
        )
        with_speculation = cluster.log.simulated_seconds
        without = price_log(cluster.log, spec_config.scaled(speculation=False))
        rows.append(
            {
                "failure p": probability,
                "backups": launched,
                "won": won,
                "hit rate": won / launched if launched else 0.0,
                "speculative (s)": with_speculation,
                "no speculation (s)": without,
                "saved": 1.0 - with_speculation / without,
                "identical": dict(solution.synopsis.coefficients) == reference,
            }
        )
    print_table(
        f"Ablation: speculative straggler re-execution (N={n}, "
        f"DMHaarSpace, injected failures)",
        rows,
    )
    return rows


def bench_ablation_speculation(benchmark, settings):
    rows = run_once(benchmark, regenerate_speculation_ablation, settings)
    for row in rows:
        # Failures at these rates must produce observable stragglers ...
        assert row["backups"] > 0
        # ... and backups only help: first-finisher-wins on an otherwise
        # idle slot can never extend the schedule.
        assert row["speculative (s)"] <= row["no speculation (s)"]
        assert 0.0 <= row["hit rate"] <= 1.0
        # Speculation is a scheduler policy: the synopsis is bit-identical
        # to the failure-free run.
        assert row["identical"]
    # Across the sweep some backups must actually win and save time —
    # otherwise the ablation would be measuring a no-op.
    assert sum(row["won"] for row in rows) > 0
    assert any(row["saved"] > 0.0 for row in rows)
