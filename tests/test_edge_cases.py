"""Edge-case tests across modules: tiny inputs, boundary budgets, holes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algos.greedy_abs import GreedyRun, Removal, greedy_abs
from repro.algos.minhaarspace import MRow, min_haar_space
from repro.core.dgreedy import _best_cut_over_thresholds, d_greedy_abs
from repro.core.dindirect import _EvaluateSynopsisJob, _LowerBoundJob
from repro.core.dp_framework import dm_haar_space
from repro.core.partitioning import dp_layers
from repro.core.thresholding import build_synopsis
from repro.exceptions import InvalidInputError
from repro.mapreduce import LocalRuntime, aligned_splits
from repro.serving import ShardedSynopsisStore
from repro.wavelet.transform import haar_transform
from tests._reference import scalar_best_cut_over_thresholds


class TestGreedyRunEdges:
    def test_best_cut_with_zero_budget(self):
        run = GreedyRun(
            removals=[Removal(1, 2.0, 5.0), Removal(0, 1.0, 3.0)], initial_error=0.0
        )
        step, error = run.best_cut(0)
        # Must cut at the end: nothing can be retained.
        assert step == 2 and error == 3.0

    def test_best_cut_with_empty_run(self):
        run = GreedyRun(removals=[], initial_error=1.5)
        assert run.best_cut(4) == (0, 1.5)

    def test_best_cut_budget_exceeding_removals(self):
        run = GreedyRun(removals=[Removal(1, 2.0, 5.0)], initial_error=0.0)
        step, error = run.best_cut(10)
        assert step == 0 and error == 0.0


def _columns(subtrees):
    """The sweep's columnar input for the reference's dict-of-buckets form."""
    return {
        subtree: (
            np.array([error for error, _, _ in entry["buckets"]], dtype=np.float64),
            np.array([count for _, count, _ in entry["buckets"]], dtype=np.int64),
            np.array([cut for _, _, cut in entry["buckets"]], dtype=np.float64),
            entry["final"],
        )
        for subtree, entry in subtrees.items()
    }


def _both_sweeps(subtrees, base_budget):
    """Run the vectorized sweep and the scalar reference; they must agree."""
    expected = scalar_best_cut_over_thresholds(subtrees, base_budget)
    assert _best_cut_over_thresholds(_columns(subtrees), base_budget) == expected
    return expected


class TestThresholdSweepEdges:
    def test_negative_base_budget_is_infeasible(self):
        error, threshold = _both_sweeps({}, -1)
        assert math.isinf(error) and math.isinf(threshold)

    def test_zero_budget_keeps_nothing(self):
        subtrees = {
            0: {"buckets": [(5.0, 3, 1.0)], "final": 7.0},
            1: {"buckets": [(2.0, 2, 0.5)], "final": 4.0},
        }
        error, threshold = _both_sweeps(subtrees, 0)
        assert error == 7.0  # max of final errors
        assert math.isinf(threshold)

    def test_sweep_prefers_non_monotone_improvement(self):
        # Retaining the high-error bucket moves subtree 0 to cut error 1.0,
        # improving on the "retain nothing" state.
        subtrees = {
            0: {"buckets": [(9.0, 1, 1.0)], "final": 9.0},
            1: {"buckets": [], "final": 2.0},
        }
        error, threshold = _both_sweeps(subtrees, 1)
        assert error == 2.0 and threshold == 9.0

    def test_budget_cuts_off_partial_threshold(self):
        subtrees = {
            0: {"buckets": [(9.0, 5, 1.0)], "final": 9.0},
        }
        # Budget below the bucket count: cannot cross the threshold.
        error, threshold = _both_sweeps(subtrees, 3)
        assert error == 9.0 and math.isinf(threshold)


#: Bucket errors come from a small grid so thresholds tie across sub-trees.
_GRID = [0.25 * step for step in range(17)]
_ERRORS = st.one_of(
    st.sampled_from(_GRID),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _histograms(draw):
    subtrees = {}
    for subtree in range(draw(st.integers(min_value=1, max_value=8))):
        bucket_errors = sorted(draw(st.lists(st.sampled_from(_GRID), max_size=12, unique=True)))
        subtrees[subtree] = {
            "buckets": [
                (error, draw(st.integers(min_value=1, max_value=5)), draw(_ERRORS))
                for error in bucket_errors
            ],
            "final": draw(_ERRORS),
        }
    total = sum(count for entry in subtrees.values() for _, count, _ in entry["buckets"])
    return subtrees, draw(st.integers(min_value=-1, max_value=total + 1))


class TestThresholdSweepDifferential:
    @given(_histograms())
    def test_vectorized_sweep_matches_scalar_reference(self, case):
        subtrees, base_budget = case
        _both_sweeps(subtrees, base_budget)


class TestTinyInputs:
    def test_greedy_on_two_points(self):
        synopsis = greedy_abs([10.0, 4.0], 1)
        assert synopsis.size <= 1
        assert synopsis.max_abs_error([10.0, 4.0]) <= 7.0

    def test_dgreedy_on_four_points(self):
        data = np.array([1.0, 5.0, 9.0, 13.0])
        synopsis = d_greedy_abs(data, 2, base_leaves=2)
        assert synopsis.size <= 2

    def test_min_haar_space_two_points(self):
        solution = min_haar_space([0.0, 100.0], 1.0, 0.5)
        assert solution.size == 2

    def test_dp_layers_minimal_tree(self):
        layers = dp_layers(2, 1)
        assert len(layers) == 1
        assert layers[0].subtrees[0].root == 1


class TestMRowEdges:
    def test_entry_out_of_domain(self):
        row = MRow(
            start=5,
            counts=np.zeros(3, dtype=np.int32),
            errors=np.zeros(3),
            choices=np.zeros(3, dtype=np.int64),
        )
        assert row.entry(5) == (0, 0.0)
        assert row.entry(7) == (0, 0.0)
        with pytest.raises(InvalidInputError):
            row.entry(8)
        with pytest.raises(InvalidInputError):
            row.entry(4)

    def test_end_property(self):
        row = MRow(
            start=-2,
            counts=np.zeros(4, dtype=np.int32),
            errors=np.zeros(4),
            choices=np.zeros(4, dtype=np.int64),
        )
        assert row.end == 1
        assert len(row) == 4


class TestDIndirectBoundJobs:
    def test_lower_bound_job_finds_global_rank(self):
        data = np.array([5, 5, 0, 26, 1, 3, 14, 2], dtype=float)
        job = _LowerBoundJob(n=8, budget=2, split_size=4)
        result = LocalRuntime().run(job, aligned_splits(data, 4))
        bound = dict(result.output)["bound"]
        # |coefficients| = [7,2,4,3,0,13,1,6]; 3rd largest is 6.
        assert bound == pytest.approx(6.0)

    def test_evaluate_job_matches_direct_evaluation(self):
        data = np.random.default_rng(4).uniform(0, 100, size=64)
        coefficients = haar_transform(data)
        retained = {i: float(coefficients[i]) for i in (0, 1, 2, 5, 9)}
        job = _EvaluateSynopsisJob(64, retained, split_size=16)
        result = LocalRuntime().run(job, aligned_splits(data, 16))
        measured = max(err for _, err in result.output)
        from repro.wavelet.synopsis import WaveletSynopsis

        expected = WaveletSynopsis(64, retained).max_abs_error(data)
        assert measured == pytest.approx(expected, abs=1e-9)

    def test_evaluate_job_with_empty_synopsis(self):
        data = np.random.default_rng(5).uniform(0, 100, size=32)
        job = _EvaluateSynopsisJob(32, {}, split_size=8)
        result = LocalRuntime().run(job, aligned_splits(data, 8))
        measured = max(err for _, err in result.output)
        assert measured == pytest.approx(float(np.max(np.abs(data))))


class TestHWTopkEdges:
    def test_single_mapper_degenerates_gracefully(self):
        from repro.algos.conventional import conventional_synopsis
        from repro.core.conventional_dist import h_wtopk_synopsis

        data = np.random.default_rng(6).uniform(0, 100, size=64)
        synopsis = h_wtopk_synopsis(data, 8, block_size=64)  # one block
        expected = conventional_synopsis(data, 8)
        assert set(synopsis.coefficients) == set(expected.coefficients)

    def test_budget_larger_than_distinct_coefficients(self):
        from repro.core.conventional_dist import h_wtopk_synopsis

        data = np.full(16, 3.0)  # only c_0 is non-zero
        synopsis = h_wtopk_synopsis(data, 8, block_size=4)
        assert synopsis.coefficients == {0: pytest.approx(3.0)}


_DP_DATA = np.random.default_rng(5).integers(0, 100, 64).astype(float)

#: DP entry points by name, each taking ``(epsilon, delta, rho)``; the
#: ``build_synopsis`` algorithms search for epsilon themselves.
_DP_ENTRIES = {
    "min_haar_space": lambda epsilon, delta, rho: min_haar_space(
        _DP_DATA, epsilon, delta, rho=rho
    ),
    "dm_haar_space": lambda epsilon, delta, rho: dm_haar_space(
        _DP_DATA, epsilon, delta, subtree_leaves=16, rho=rho
    ),
    "indirect-haar": lambda epsilon, delta, rho: build_synopsis(
        _DP_DATA, 8, "indirect-haar", delta=delta, rho=rho
    ),
    "dindirect-haar": lambda epsilon, delta, rho: build_synopsis(
        _DP_DATA, 8, "dindirect-haar", delta=delta, subtree_leaves=16, rho=rho
    ),
}

_NON_FINITE_CASES = [
    (entry, parameter, value)
    for entry in [*_DP_ENTRIES, "store"]
    for parameter in ("epsilon", "delta", "rho")
    if not (parameter == "epsilon" and entry.endswith("indirect-haar"))
    for value in (math.nan, math.inf)
]

#: [1..8] has eight Haar coefficients, so at B = 8 IndirectHaar's
#: conventional synopsis is already exact and no DP probe runs.
_EXACT_DATA = np.arange(1.0, 9.0)

_BAD_SEARCH_PARAMS = [
    (algorithm, parameter, value)
    for algorithm in ("indirect-haar", "dindirect-haar")
    for parameter, value in [
        ("delta", math.nan),
        ("delta", math.inf),
        ("delta", -1.0),
        ("delta", 0.0),
        ("rho", math.nan),
        ("rho", -0.5),
    ]
]


class TestNonFiniteDPParameters:
    @pytest.mark.parametrize("entry,parameter,value", _NON_FINITE_CASES)
    def test_rejected_with_invalid_input(self, entry, parameter, value):
        params = {"epsilon": 20.0, "delta": 1.0, "rho": 0.0, parameter: value}
        store = ShardedSynopsisStore()
        with pytest.raises(InvalidInputError, match="finite"):
            if entry == "store":
                store.create("s", _DP_DATA, tier="dp", subtree_leaves=16, **params)
            else:
                _DP_ENTRIES[entry](**params)
        assert "s" not in store and store.history() == []

    @pytest.mark.parametrize("algorithm,parameter,value", _BAD_SEARCH_PARAMS)
    def test_rejected_before_the_exact_shortcut(self, algorithm, parameter, value):
        params = {"delta": 1.0, "rho": 0.0, parameter: value}
        with pytest.raises(InvalidInputError, match=parameter):
            build_synopsis(_EXACT_DATA, 8, algorithm, **params)
