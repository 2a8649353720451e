"""Differential tests: vectorized greedy engines vs the scalar oracle.

The vectorized engines (:mod:`repro.algos.greedy_abs`,
:mod:`repro.algos.greedy_rel`) must reproduce the scalar reference
engines *exactly* — the same removal sequence, removal for removal,
with bit-identical ``(node, value, error_after)`` tuples and the same
deterministic tie-break on node id.  Anything less silently changes
which coefficients every distributed algorithm retains.

Also hosts the perf-regression guard for ``_remove_average``: the old
implementation walked all ``m`` nodes with one ``if j in heap`` +
``heap.update`` each, which made the (at most once per run) average
removal orders of magnitude slower than a detail removal at 2^14.
"""

import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algos.greedy_abs import GreedyAbsTree, greedy_abs_order
from repro.algos.greedy_rel import GreedyRelTree, greedy_rel_order

from tests._reference import (
    ScalarGreedyAbsTree,
    ScalarGreedyRelTree,
    scalar_greedy_abs_order,
    scalar_greedy_rel_order,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _pow2_lists(elements, max_log=6):
    return st.integers(min_value=0, max_value=max_log).flatmap(
        lambda log_n: st.lists(elements, min_size=1 << log_n, max_size=1 << log_n)
    )


def assert_runs_identical(vec_run, ref_run):
    """Exact (bit-level) equality of two GreedyRun removal sequences."""
    assert vec_run.initial_error == ref_run.initial_error
    assert len(vec_run.removals) == len(ref_run.removals)
    for step, (got, want) in enumerate(zip(vec_run.removals, ref_run.removals)):
        assert got.node == want.node, f"step {step}: node {got.node} != {want.node}"
        assert got.value == want.value, f"step {step} (node {got.node})"
        assert got.error_after == want.error_after, f"step {step} (node {got.node})"


class TestAbsDifferential:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        coeffs=_pow2_lists(finite),
        use_errors=st.booleans(),
        include_average=st.booleans(),
        data=st.data(),
    )
    def test_matches_scalar_reference(self, coeffs, use_errors, include_average, data):
        errors = None
        if use_errors:
            errors = data.draw(
                st.lists(finite, min_size=len(coeffs), max_size=len(coeffs))
            )
        vec = greedy_abs_order(coeffs, errors, include_average)
        ref = scalar_greedy_abs_order(coeffs, errors, include_average)
        assert_runs_identical(vec, ref)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_pow2_lists(finite, max_log=5))
    def test_stepwise_state_matches(self, coeffs):
        # Each removal's error_after is the engine's state after that
        # step; the scalar engine reads it back through current_error().
        vec = GreedyAbsTree(coeffs)
        ref = ScalarGreedyAbsTree(coeffs)
        assert vec.current_error() == ref.current_error()
        assert_runs_identical(vec.run_to_exhaustion(), ref.run_to_exhaustion())
        assert vec.current_error() == ref.current_error()

    def test_ties_break_on_node_id(self):
        # All-equal coefficients force heavy priority ties at every step.
        vec = greedy_abs_order([1.0] * 32)
        ref = scalar_greedy_abs_order([1.0] * 32)
        assert_runs_identical(vec, ref)

    def test_large_random_tree_exact(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(0, 100, 1 << 10)
        errors = rng.normal(0, 5, 1 << 10)
        assert_runs_identical(
            greedy_abs_order(coeffs, errors), scalar_greedy_abs_order(coeffs, errors)
        )


class TestRelDifferential:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        coeffs=_pow2_lists(finite),
        sanity_bound=st.sampled_from([1e-6, 0.5, 1.0, 100.0]),
        use_errors=st.booleans(),
        include_average=st.booleans(),
        data=st.data(),
    )
    def test_matches_scalar_reference(
        self, coeffs, sanity_bound, use_errors, include_average, data
    ):
        m = len(coeffs)
        leaves = data.draw(st.lists(finite, min_size=m, max_size=m))
        errors = None
        if use_errors:
            errors = data.draw(st.lists(finite, min_size=m, max_size=m))
        vec = greedy_rel_order(coeffs, leaves, sanity_bound, errors, include_average)
        ref = scalar_greedy_rel_order(coeffs, leaves, sanity_bound, errors, include_average)
        assert_runs_identical(vec, ref)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_pow2_lists(finite, max_log=5), data=st.data())
    def test_stepwise_state_matches(self, coeffs, data):
        m = len(coeffs)
        leaves = data.draw(st.lists(finite, min_size=m, max_size=m))
        vec = GreedyRelTree(coeffs, leaves)
        ref = ScalarGreedyRelTree(coeffs, leaves)
        assert vec.current_error() == ref.current_error()
        assert_runs_identical(vec.run_to_exhaustion(), ref.run_to_exhaustion())
        assert vec.current_error() == ref.current_error()

    def test_zero_leaves_hit_sanity_bound(self):
        # All denominators fall back to S; exercises the tiny-bound path.
        rng = np.random.default_rng(5)
        coeffs = rng.normal(0, 1, 64)
        zeros = np.zeros(64)
        for s in (1e-6, 1.0):
            assert_runs_identical(
                greedy_rel_order(coeffs, zeros, s), scalar_greedy_rel_order(coeffs, zeros, s)
            )

    def test_large_random_tree_exact(self):
        rng = np.random.default_rng(17)
        coeffs = rng.normal(0, 100, 1 << 10)
        leaves = rng.normal(0, 50, 1 << 10)
        errors = rng.normal(0, 5, 1 << 10)
        assert_runs_identical(
            greedy_rel_order(coeffs, leaves, 0.25, errors),
            scalar_greedy_rel_order(coeffs, leaves, 0.25, errors),
        )


def _loop_key(engine, node):
    """The key ``run_to_exhaustion`` compares a popped entry of ``node`` with."""
    engine._packf[0] = engine._vma[node] + 0.0
    return (engine._packi[0] << engine._id_bits) | node


def _key_engines():
    rng = np.random.default_rng(29)
    coeffs = rng.normal(0, 100, 256)
    leaves = rng.normal(0, 50, 256)
    return {
        "abs": GreedyAbsTree(coeffs),
        "abs-no-average": GreedyAbsTree(coeffs, include_average=False),
        "rel": GreedyRelTree(coeffs, leaves),
    }


class TestQueueKeys:
    """Vector-built queue keys are the keys the discard loop validates.

    A key that differs from the loop's (say, one built by a wrapping
    int64 shift) never validates: its first pop re-inserts it, so the
    order stays right but every such key is wasted work.
    """

    @pytest.mark.parametrize("name", ["abs", "abs-no-average", "rel"])
    def test_fresh_heap_holds_the_loop_keys(self, name):
        engine = _key_engines()[name]
        alive = np.flatnonzero(engine._alive).tolist()
        assert sorted(engine._heap) == sorted(_loop_key(engine, k) for k in alive)

    @pytest.mark.parametrize("name", ["abs", "rel"])
    def test_rekey_pushes_the_loop_keys(self, name):
        engine = _key_engines()[name]
        a, b = 64, 128
        engine._ma_arr[a:b] *= 0.5  # every refreshed priority undercuts its key
        before = Counter(engine._heap)
        engine._rekey(a, b)
        pushed = Counter(engine._heap) - before
        assert sorted(pushed.elements()) == sorted(_loop_key(engine, k) for k in range(a, b))


class TestAverageRemovalPerformance:
    def test_average_removal_bounded_relative_to_details(self):
        """One average removal must cost no more than 256 detail removals.

        The average removal recomputes every alive node's MA, but as one
        vectorized pass — measured ~1-2% of the bound below.  The old
        per-node ``if j in heap: heap.update(...)`` loop costs several
        times the bound, so a reintroduced O(m·log m) scalar loop fails
        this test with a wide margin on either side.
        """
        m = 1 << 14
        rng = np.random.default_rng(3)
        coeffs = rng.normal(0, 10, m)

        tree = GreedyAbsTree(coeffs)
        c0 = coeffs[0]
        tree._valive[0] = False
        tree._alive_count -= 1
        start = time.perf_counter()
        tree._remove_average(c0)
        average_time = time.perf_counter() - start

        # The first 256 removals of a detail-only run, replayed through
        # the same maintenance hook the discard loop calls.
        first = greedy_abs_order(coeffs, include_average=False).removals[:256]
        detail_tree = GreedyAbsTree(coeffs, include_average=False)
        start = time.perf_counter()
        for removal in first:
            detail_tree._valive[removal.node] = False
            detail_tree._remove_detail(removal.node, removal.value)
        detail_time = time.perf_counter() - start

        assert average_time < detail_time, (
            f"average removal took {average_time * 1e3:.2f} ms, over the bound of "
            f"256 detail removals ({detail_time * 1e3:.2f} ms)"
        )

    def test_average_removal_result_still_exact(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(0, 10, 1 << 8)
        assert_runs_identical(greedy_abs_order(coeffs), scalar_greedy_abs_order(coeffs))


@pytest.mark.parametrize("include_average", [True, False])
def test_single_node_trees(include_average):
    assert_runs_identical(
        greedy_abs_order([3.5], include_average=include_average),
        scalar_greedy_abs_order([3.5], include_average=include_average),
    )
    assert_runs_identical(
        greedy_rel_order([3.5], [2.0], include_average=include_average),
        scalar_greedy_rel_order([3.5], [2.0], include_average=include_average),
    )
