#!/usr/bin/env python3
"""A multi-series AQP "dashboard" backed by the serving store.

Summarizes several sensor/traffic series into one store, persists it, and
answers the kind of aggregate queries a dashboard fires — each with a
deterministic error bound derived from the max-abs guarantee.

Run:  python examples/aqp_dashboard.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.bench import print_table
from repro.data import nyct_dataset, wd_dataset
from repro.serving import ShardedSynopsisStore


def main():
    store = ShardedSynopsisStore()
    store.create("taxi_trip_seconds", nyct_dataset(1 << 13, seed=1), budget=1024)
    store.create("wind_direction_deg", wd_dataset(1 << 13, seed=2), budget=1024)
    rng = np.random.default_rng(3)
    store.create(
        "requests_per_minute",
        np.maximum(rng.normal(500, 80, size=5000) + 200 * np.sin(np.arange(5000) / 250), 0),
        budget=512,
    )

    print_table("Store contents", store.report())

    print("\n=== Dashboard queries (approx ± deterministic bound) ===")
    for series, lo, hi in [
        ("taxi_trip_seconds", 0, 1023),
        ("wind_direction_deg", 4096, 6143),
        ("requests_per_minute", 1000, 1999),
    ]:
        avg = store.range_avg(series, lo, hi)
        lower, upper = store.range_sum_bounds(series, lo, hi)
        width = hi - lo + 1
        print(
            f"  avg({series}[{lo}:{hi}]) ≈ {avg:10.2f}   "
            f"(exact avg ∈ [{lower / width:.2f}, {upper / width:.2f}])"
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "synopses.json"
        store.save(path)
        size_kb = path.stat().st_size / 1024
        reloaded = ShardedSynopsisStore.load(path)
        print(f"\nPersisted {len(store)} synopses in {size_kb:.1f} KB and reloaded:")
        print(f"  point(taxi_trip_seconds, 42) = {reloaded.point('taxi_trip_seconds', 42):.2f}")


if __name__ == "__main__":
    main()
