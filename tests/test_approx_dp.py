"""Property tests for the approximate DP tier (coarsening knob ``rho``).

Three guarantee families, checked over hypothesis-drawn inputs:

* **Dual (MinHaarSpace)** — for every ``rho`` in the supported grid, the
  approximate build keeps ``max_error <= (1 + rho) * epsilon`` and never
  retains more coefficients than the exact DP (the snapping argument:
  every exact solution snaps onto the coarse grid with bounded drift).
* **Primal (IndirectHaar / DIndirectHaar)** — coarsened probes never buy
  speed by overspending: ``size <= budget`` always, and the achieved
  error stays within ``(1 + rho) * (E_exact + search resolution)``.
* **rho = 0 is the exact tier** — bit-identical coefficients, size, and
  error on both runtimes (local / process) and both
  shuffle disciplines, because ``approx_params`` falls back to the exact
  grid whenever the coarse step is no coarser than the clamped one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algos.conventional import conventional_synopsis
from repro.algos.indirect_haar import indirect_haar, search_resolution
from repro.algos.minhaarspace import approx_params, effective_delta, min_haar_space
from repro.core.dindirect import d_indirect_haar
from repro.mapreduce import SimulatedCluster, make_runtime

#: The knob grid the acceptance criteria name; 0.0 is the exact tier.
RHO_GRID = [0.0, 0.05, 0.1, 0.25]

SMALL = settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

data_arrays = st.integers(min_value=5, max_value=6).flatmap(
    lambda log_n: st.lists(
        st.integers(min_value=0, max_value=100).map(float),
        min_size=1 << log_n,
        max_size=1 << log_n,
    ).map(np.array)
)


class TestApproxParams:
    def test_rho_zero_is_the_exact_grid(self):
        for epsilon, delta, n in [(10.0, 0.5, 256), (3.0, 0.01, 1024)]:
            epsilon_dp, delta_dp = approx_params(epsilon, delta, n, 0.0)
            assert epsilon_dp == epsilon
            assert delta_dp == effective_delta(epsilon, delta, n)

    def test_coarse_regime_widens_the_step(self):
        # Fine nominal grid: the coarse step wins and epsilon inflates.
        epsilon_dp, delta_dp = approx_params(3.0, 0.01, 1024, 0.1)
        assert epsilon_dp == pytest.approx(3.3)
        assert delta_dp > effective_delta(3.0, 0.01, 1024)

    def test_exact_fallback_when_nominal_grid_is_coarser(self):
        # A coarse nominal delta already dominates the rho step: the
        # tier must fall back to the exact parameters bit-for-bit.
        exact = approx_params(4.0, 3.0, 64, 0.0)
        assert approx_params(4.0, 3.0, 64, 0.001) == exact

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            approx_params(4.0, 1.0, 64, -0.1)


class TestDualGuarantees:
    @given(
        data=data_arrays,
        epsilon=st.floats(min_value=4.0, max_value=40.0),
        rho=st.sampled_from(RHO_GRID),
    )
    @SMALL
    def test_error_and_size_within_proven_bounds(self, data, epsilon, rho):
        delta = 0.1  # fine grid so coarsening has room to act
        exact = min_haar_space(data, epsilon, delta)
        approx = min_haar_space(data, epsilon, delta, rho=rho)
        assert approx.max_error <= (1.0 + rho) * epsilon + 1e-9
        assert approx.size <= exact.size
        assert approx.synopsis.meta["rho"] == rho

    @given(data=data_arrays, epsilon=st.floats(min_value=4.0, max_value=40.0))
    @SMALL
    def test_rho_zero_bit_identical_to_exact(self, data, epsilon):
        exact = min_haar_space(data, epsilon, 0.1)
        zero = min_haar_space(data, epsilon, 0.1, rho=0.0)
        assert zero.size == exact.size
        assert zero.max_error == exact.max_error
        assert zero.synopsis.coefficients == exact.synopsis.coefficients


class TestPrimalGuarantees:
    @given(
        data=data_arrays,
        budget_divisor=st.sampled_from([4, 8]),
        rho=st.sampled_from(RHO_GRID),
    )
    @SMALL
    def test_budget_never_exceeded_and_error_bounded(self, data, budget_divisor, rho):
        budget = max(1, len(data) // budget_divisor)
        delta = 0.25
        exact = indirect_haar(data, budget, delta)
        approx = indirect_haar(data, budget, delta, rho=rho)
        assert approx.size <= budget
        error_high = conventional_synopsis(data, budget).max_abs_error(data)
        resolution = search_resolution(error_high, delta, len(data), rho)
        exact_error = exact.max_abs_error(data)
        bound = (1.0 + rho) * (exact_error + resolution)
        assert approx.max_abs_error(data) <= bound + 1e-9
        assert approx.meta["rho"] == rho


class TestRhoZeroAcrossRuntimes:
    """rho=0 must be the exact distributed build on every substrate."""

    @pytest.mark.parametrize("shuffle", ["memory", "external"])
    @pytest.mark.parametrize("runtime_name", ["local", "process"])
    def test_bit_identical_coefficients(self, runtime_name, shuffle):
        data = np.cumsum(np.random.default_rng(11).normal(0.0, 5.0, 64)) + 100.0
        budget = 8
        reference = d_indirect_haar(data, budget, delta=0.5, subtree_leaves=16)
        cluster = SimulatedCluster(runtime=make_runtime(runtime_name, shuffle=shuffle))
        built = d_indirect_haar(
            data, budget, delta=0.5, cluster=cluster, subtree_leaves=16, rho=0.0
        )
        assert built.size == reference.size
        assert built.coefficients == reference.coefficients
        assert built.meta["max_abs_error"] == reference.meta["max_abs_error"]

    @pytest.mark.parametrize("rho", [0.1, 0.25])
    def test_coarsened_distributed_build_keeps_guarantees(self, rho):
        data = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 256))
        budget = 16
        exact = d_indirect_haar(data, budget, delta=0.01, subtree_leaves=64)
        approx = d_indirect_haar(
            data, budget, delta=0.01, subtree_leaves=64, rho=rho
        )
        assert approx.size <= budget
        error_high = conventional_synopsis(data, budget).max_abs_error(data)
        resolution = search_resolution(error_high, 0.01, 256, rho)
        bound = (1.0 + rho) * (float(exact.meta["max_abs_error"]) + resolution)
        assert float(approx.meta["max_abs_error"]) <= bound + 1e-9
        # Coarsening exists to cut probe work: never more DP runs than exact.
        assert approx.meta["dp_runs"] <= exact.meta["dp_runs"] + 1
