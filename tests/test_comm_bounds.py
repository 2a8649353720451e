"""Communication-cost tests: measured traces vs the paper's analytical bounds.

Two families of assertions, both against traces captured by
:meth:`RunLog.trace`:

* **Eq. 6** — every bottom-up layer job of a DMHaarSpace run ships at most
  ``|subtrees| * (overhead + worst-case M-row)`` bytes, and at least the
  one-record-per-subtree floor (so the bound is *tracking* the emission,
  not merely dwarfing it).
* **Histogram compression** — DGreedyAbs's job 1 never emits more than
  ``R * (P * (rec + (s-1) * bucket) + C * id)`` bytes, with ``C =
  min(R,B)+1`` candidates and ``P = min(C, log2 R + 1 + reducers)``
  records per sub-tree, and at least a quarter of that (so the bound
  keeps tracking the emission).

Both families run on synthetic uniform data and on the NYCT-shaped
dataset, at the tolerances the bound derivation gives — no slack factors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dgreedy import d_greedy_abs
from repro.core.dp_framework import dm_haar_space
from repro.data.nyct import nyct_dataset
from repro.mapreduce import LocalRuntime, ShuffleConfig, SimulatedCluster, estimate_size
from repro.observe import (
    check_dgreedy_trace,
    check_dmhaarspace_trace,
    dgreedy_histogram_bound,
    dmhaarspace_layer_bounds,
    max_row_entries,
)


def synthetic(n: int) -> np.ndarray:
    rng = np.random.default_rng(97)
    return rng.integers(0, 200, size=n).astype(np.float64)


def scaled_epsilon(data: np.ndarray) -> float:
    """An epsilon around 5% of the value range, so both datasets exercise
    multi-entry rows without the DP degenerating."""
    spread = float(data.max() - data.min())
    return max(spread * 0.05, 1.0)


class TestEq6LayerBounds:
    @pytest.mark.parametrize("h", [2, 4, 6])
    @pytest.mark.parametrize("n", [1 << 10, 1 << 14])
    def test_synthetic_layers_track_eq6(self, h: int, n: int) -> None:
        self._check_layers(synthetic(n), h)

    @pytest.mark.parametrize(
        "h,n",
        [(2, 1 << 10), (4, 1 << 10), (6, 1 << 10), (4, 1 << 14)],
    )
    def test_nyct_layers_track_eq6(self, h: int, n: int) -> None:
        self._check_layers(nyct_dataset(n), h)

    def _check_layers(self, data: np.ndarray, h: int) -> None:
        n = len(data)
        epsilon = scaled_epsilon(data)
        delta = epsilon / 4.0
        cluster = SimulatedCluster()
        dm_haar_space(
            data, epsilon, delta, cluster, subtree_leaves=1 << h, construct=False
        )
        trace = cluster.log.trace()
        checks = check_dmhaarspace_trace(trace, n, 1 << h, epsilon, delta)
        assert checks, "expected at least one bottom-up layer job"
        floors = {
            bound.job_name: bound.bytes_floor
            for bound in dmhaarspace_layer_bounds(n, 1 << h, epsilon, delta)
        }
        for check in checks:
            # The Eq. 6 budget, exactly as derived — no slack factor.
            assert check.measured_bytes <= check.bound_bytes, (
                f"{check.job_name}: measured {check.measured_bytes} bytes "
                f"exceeds the Eq. 6 budget {check.bound_bytes}"
            )
            # ...and the emission truly is one record per sub-tree, so the
            # budget is tracking the measurement, not dwarfing it.
            assert check.measured_bytes >= floors[check.job_name]

    def test_bound_scales_as_eq6(self) -> None:
        # Doubling N doubles the bottom layer's budget; the per-record
        # term is independent of N up to the effective-delta clamp.
        n, h = 1 << 10, 4
        small = dmhaarspace_layer_bounds(n, 1 << h, 16.0, 1.0)
        large = dmhaarspace_layer_bounds(2 * n, 1 << h, 16.0, 1.0)
        ratio = large[0].bytes_bound / small[0].bytes_bound
        width_ratio = max_row_entries(16.0, 1.0, 2 * n) / max_row_entries(
            16.0, 1.0, n
        )
        assert ratio == pytest.approx(2.0 * width_ratio, rel=0.15)


class TestEq6ApproximateRegime:
    """The coarsened tier's Eq. 6 budgets — same derivation, rho grid."""

    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.25])
    def test_coarsened_trace_within_coarsened_budget(self, rho: float) -> None:
        # Fine nominal grid (delta << epsilon) so coarsening bites; the
        # coarsened run must fit the rho-adjusted budget with no slack.
        rng = np.random.default_rng(29)
        data = np.cumsum(rng.normal(0.0, 1.0, 1 << 10)) + 50.0
        epsilon, delta, h = 3.0, 0.01, 6
        cluster = SimulatedCluster()
        dm_haar_space(
            data, epsilon, delta, cluster, subtree_leaves=1 << h, construct=False,
            rho=rho,
        )
        trace = cluster.log.trace()
        checks = check_dmhaarspace_trace(trace, len(data), 1 << h, epsilon, delta, rho)
        assert checks, "expected bottom-up layer jobs in the coarsened trace"
        floors = {
            bound.job_name: bound.bytes_floor
            for bound in dmhaarspace_layer_bounds(len(data), 1 << h, epsilon, delta, rho)
        }
        for check in checks:
            assert check.measured_bytes <= check.bound_bytes, (
                f"{check.job_name}: coarsened run shipped {check.measured_bytes} "
                f"bytes, above the rho={rho} Eq. 6 budget {check.bound_bytes}"
            )
            assert check.measured_bytes >= floors[check.job_name]

    def test_coarsened_budget_is_smaller_than_exact(self) -> None:
        # In the fine-grid regime the whole point of coarsening is a
        # smaller shipped row: the rho bound must undercut the exact one.
        epsilon, delta, n = 3.0, 0.01, 1 << 10
        exact_width = max_row_entries(epsilon, delta, n)
        for rho in (0.05, 0.1, 0.25):
            assert max_row_entries(epsilon, delta, n, rho) < exact_width

    def test_rho_zero_budget_matches_the_exact_bound(self) -> None:
        for epsilon, delta, n in [(16.0, 1.0, 1 << 10), (3.0, 0.01, 1 << 14)]:
            assert max_row_entries(epsilon, delta, n, 0.0) == max_row_entries(
                epsilon, delta, n
            )

    def test_coarse_budget_is_epsilon_independent(self) -> None:
        # delta' = 2*rho*epsilon/levels grows with epsilon, so once the
        # coarse step dominates, W depends only on rho and the depth —
        # one budget covers every binary-search probe (up to one entry of
        # float rounding in the epsilon/delta' ratio).
        n, delta, rho = 1 << 10, 0.001, 0.1
        widths = [max_row_entries(epsilon, delta, n, rho) for epsilon in (5.0, 50.0, 500.0)]
        assert max(widths) - min(widths) <= 1

class TestDGreedyHistogramBound:
    @pytest.mark.parametrize("base_leaves", [4, 16, 64])
    def test_synthetic_small(self, base_leaves: int) -> None:
        self._check(synthetic(1 << 10), base_leaves, budget=32)

    def test_synthetic_large(self) -> None:
        self._check(synthetic(1 << 14), base_leaves=64, budget=64)

    def test_nyct_small(self) -> None:
        self._check(nyct_dataset(1 << 10), base_leaves=16, budget=32)

    def test_nyct_large(self) -> None:
        self._check(nyct_dataset(1 << 14), base_leaves=64, budget=64)

    def _check(self, data: np.ndarray, base_leaves: int, budget: int) -> None:
        n = len(data)
        cluster = SimulatedCluster()
        d_greedy_abs(data, budget, cluster, base_leaves=base_leaves)
        checks = check_dgreedy_trace(cluster.log.trace(), n, base_leaves, budget)
        assert checks, "expected the dgreedy-histograms job in the trace"
        for check in checks:
            assert check.measured_bytes <= check.bound_bytes, (
                f"histogram emission {check.measured_bytes} bytes exceeds "
                f"the compression bound {check.bound_bytes}"
            )
            assert check.utilization >= 0.25

    def test_bound_formula_matches_partition(self) -> None:
        # R = N / s sub-trees; C = min(R, B) + 1 candidates (with B >= R
        # every candidate exists); P = min(C, log2 R + 1 + reducers)
        # records per sub-tree, each of 44 B plus 24 B per bucket (at most
        # s - 1), plus 8 B per candidate id.
        n, s, b, reducers = 256, 16, 256, 4
        r = n // s
        records = min(r + 1, 4 + 1 + reducers)
        bound = dgreedy_histogram_bound(n, s, b, reducers)
        assert bound == r * (records * (44 + (s - 1) * 24) + (r + 1) * 8)
        # With more reducers than candidates, every candidate is a record.
        assert dgreedy_histogram_bound(n, s, 3, 16) == r * (4 * (44 + 15 * 24) + 4 * 8)


class TestExternalShuffleBounds:
    """The bounds hold on *measured* traces regardless of shuffle mode.

    Byte accounting happens on map-task outputs before the shuffle
    touches them, so the external path must neither inflate nor shrink
    the measured bytes — same budgets, no slack factors.
    """

    def test_dgreedy_bound_holds_under_external_shuffle(self) -> None:
        data = synthetic(1 << 10)
        shuffle = ShuffleConfig(mode="external", buffer_bytes=2048)
        cluster = SimulatedCluster(runtime=LocalRuntime(shuffle=shuffle))
        d_greedy_abs(data, 32, cluster, base_leaves=16)
        checks = check_dgreedy_trace(cluster.log.trace(), 1 << 10, 16, 32)
        assert checks
        for check in checks:
            assert 0 < check.measured_bytes <= check.bound_bytes
            assert check.utilization >= 0.25
        # The tiny buffer really forced the out-of-core path.
        assert any(job.shuffle_stats.get("spills", 0) for job in cluster.log.jobs)

    def test_measured_bytes_identical_across_shuffle_modes(self) -> None:
        data = synthetic(1 << 10)

        def measured(shuffle: ShuffleConfig | None) -> list[int]:
            cluster = SimulatedCluster(runtime=LocalRuntime(shuffle=shuffle))
            d_greedy_abs(data, 32, cluster, base_leaves=16)
            return [job.shuffle_bytes for job in cluster.log.jobs]

        external = ShuffleConfig(mode="external", buffer_bytes=2048)
        assert measured(None) == measured(external)


class TestEstimateSizeObjectArrays:
    """Object-dtype ndarrays are charged per element, not per pointer."""

    def test_object_array_recurses_into_elements(self) -> None:
        strings = np.array(["a" * 100, "b" * 50], dtype=object)
        # nbytes would say 16 (two 8-byte pointers); the real modeled
        # payload is the two strings plus the container overhead.
        assert strings.nbytes == 16
        assert estimate_size(strings) == 4 + 100 + 50

    def test_object_array_matches_equivalent_list(self) -> None:
        items = [1, 2.5, "hello", (1, 2)]
        as_array = np.empty(len(items), dtype=object)
        as_array[:] = items
        assert estimate_size(as_array) == estimate_size(items)

    def test_nested_object_array(self) -> None:
        inner = np.arange(10, dtype=np.float64)  # 80 B + 4 overhead
        outer = np.empty(2, dtype=object)
        outer[:] = [inner, inner]
        assert estimate_size(outer) == 4 + 2 * (80 + 4)

    def test_numeric_arrays_still_charged_at_nbytes(self) -> None:
        array = np.arange(16, dtype=np.float64)
        assert estimate_size(array) == 128 + 4
