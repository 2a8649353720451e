"""The one input boundary for series values.

Every public entry point that takes an in-memory series — every
``build_synopsis`` algorithm, both serving-store tiers and the ``repro
build`` CLI — rejects a NaN or an infinity with
:class:`InvalidInputError` before any algorithm or store state sees it.
Without the boundary, the DP tiers spin (every epsilon doubling widens
every M-row), the greedy tiers raise a bare ``IndexError`` after writing
the value into the store buffer, and H-WTopk silently returns a
synopsis.  The relative-error sanity bound ``S`` must be finite too.

The DP algorithms have one more edge: a finite value whose quantization
grid index reaches 2**52 cannot be resolved by the grid (and used to
overflow its int64 cast into a wrong synopsis or a bare numpy error), so
the DP rejects it with :class:`InvalidInputError` too.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.algos.minhaarspace import leaf_row, min_haar_space
from repro.cli import main as cli_main
from repro.core.dgreedy import d_greedy_abs, d_greedy_rel
from repro.core.dp_framework import dm_haar_space
from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.data.loader import as_finite_series, pad_to_power_of_two
from repro.exceptions import InvalidInputError
from repro.mapreduce.hdfs import FileDataset
from repro.serving import ShardedSynopsisStore
from repro.wavelet.metrics import max_rel_error

NON_FINITE = [math.nan, math.inf, -math.inf]

#: Keyword arguments that make each store tier build quickly on 8 values.
TIERS = {
    "greedy": {"tier": "greedy", "budget": 4, "base_leaves": 4},
    "dp": {"tier": "dp", "epsilon": 1.0, "subtree_leaves": 4},
}

VALID = np.array([3.0, 5.0, 10.0, 8.0, 2.0, 2.0, 10.0, 14.0])


def _with(bad: float, size: int = 8) -> np.ndarray:
    values = np.arange(1.0, size + 1.0)
    values[size // 2] = bad
    return values


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_rejects_non_finite_values(algorithm, bad):
    with pytest.raises(InvalidInputError, match="finite"):
        build_synopsis(_with(bad), 4, algorithm=algorithm, subtree_leaves=4)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_unpadded_input_is_checked_too(bad):
    with pytest.raises(InvalidInputError, match="finite"):
        build_synopsis(_with(bad), 4, algorithm="greedy-abs", pad=False)


@pytest.mark.parametrize(
    "data,match",
    [
        ([], "non-empty"),
        (np.zeros((2, 4)), "one-dimensional"),
        ([1.0, math.nan], "finite"),
    ],
)
def test_helper_rejects_each_bad_shape(data, match):
    with pytest.raises(InvalidInputError, match=match):
        as_finite_series(data)
    with pytest.raises(InvalidInputError, match=match):
        pad_to_power_of_two(data)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_store_create_publishes_nothing(tier, bad):
    store = ShardedSynopsisStore()
    with pytest.raises(InvalidInputError, match="finite"):
        store.create("s", _with(bad), **TIERS[tier])
    assert "s" not in store
    assert store.history() == []


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_rejected_append_leaves_the_series_untouched(tier, bad):
    store = ShardedSynopsisStore()
    store.create("s", VALID, **TIERS[tier])
    before = store.snapshot("s")
    with pytest.raises(InvalidInputError, match="finite"):
        store.append("s", [bad, 1.0])
    after = store.snapshot("s")
    assert (after.version, after.length, after.digest) == (
        before.version,
        before.length,
        before.digest,
    )

    # The rejected values left no trace: the next valid append lands
    # exactly where a store that never saw them lands.
    block = [4.0, 6.0]
    published = store.append("s", block)
    scratch = ShardedSynopsisStore()
    scratch.create("s", VALID, **TIERS[tier])
    expected = scratch.append("s", block)
    assert (published.version, published.length, published.digest) == (
        expected.version,
        expected.length,
        expected.digest,
    )


def test_cli_build_reports_non_finite_input(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1.0 2.0 nan 4.0\n")
    assert cli_main(["build", str(data), "--budget", "2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", NON_FINITE)
def test_file_dataset_rejects_non_finite_values(tmp_path, bad):
    # The bad value sits past the first scan chunk, at the very end.
    values = np.arange(float(1 << 17))
    values[-1] = bad
    path = tmp_path / "data.npy"
    np.save(path, values)
    with pytest.raises(InvalidInputError, match=f"finite; found {bad} at index {values.size - 1}"):
        FileDataset(path)


def test_cli_file_backed_build_reports_non_finite_input(tmp_path, capsys):
    values = np.arange(1024.0)
    values[-1] = math.nan
    path = tmp_path / "data.npy"
    np.save(path, values)
    argv = ["build", str(path), "--budget", "32", "--algorithm", "dgreedy-abs"]
    assert cli_main([*argv, "--file-backed"]) == 1
    file_backed = capsys.readouterr().err
    assert "error: data must be finite; found nan at index 1023" in file_backed
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == file_backed


@pytest.mark.parametrize("bound", [math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ["greedy-rel", "dgreedy-rel"])
def test_relative_error_rejects_non_finite_sanity_bound(algorithm, bound):
    with pytest.raises(InvalidInputError, match="sanity bound"):
        build_synopsis(VALID, 4, algorithm=algorithm, sanity_bound=bound, subtree_leaves=4)


def test_max_rel_error_rejects_nan_sanity_bound():
    with pytest.raises(InvalidInputError, match="sanity bound"):
        max_rel_error(VALID, VALID, math.nan)


def test_cli_build_reports_non_finite_sanity_bound(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1.0 2.0 3.0 4.0\n")
    argv = ["build", str(data), "--budget", "2", "--algorithm", "greedy-rel"]
    assert cli_main([*argv, "--sanity-bound", "nan"]) == 1
    assert "error:" in capsys.readouterr().err


#: DGreedy parameters that used to hang (an infinite bucket width makes
#: every bucket NaN) or escape as a bare ValueError, OverflowError,
#: TypeError or IndexError.
HOSTILE_DGREEDY = [
    ("bucket_width", math.inf),
    ("bucket_width", math.nan),
    ("bucket_width", 5e-324),
    ("level2_workers", 0),
    ("level2_workers", -1),
    ("level2_workers", 2.5),
]


@pytest.mark.parametrize("name,value", HOSTILE_DGREEDY)
@pytest.mark.parametrize("build", [d_greedy_abs, d_greedy_rel], ids=["abs", "rel"])
def test_dgreedy_rejects_hostile_parameters(build, name, value):
    data = np.random.default_rng(0).uniform(0.0, 1000.0, 256)
    with pytest.raises(InvalidInputError):
        build(data, 32, **{name: value})


#: Finite values whose DP grid index at the default delta reaches 2**52.
BEYOND_GRID = [1e18, -1e18, 1e20, 1e300]

DP_ALGORITHMS = [
    "indirect-haar",
    "indirect-haar-restricted",
    "dindirect-haar",
    "dindirect-haar-restricted",
]


@pytest.mark.parametrize("huge", BEYOND_GRID)
@pytest.mark.parametrize("algorithm", DP_ALGORITHMS)
def test_dp_algorithms_reject_values_beyond_the_grid(algorithm, huge):
    # Spread over the whole range, so that more than 4 coefficients are
    # non-zero, the conventional synopsis is not exact and the DP search
    # has to run.
    data = huge * np.array([1.0, -1.0, 0.5, -0.25, 0.75, 0.125, -0.625, 0.375])
    with pytest.raises(InvalidInputError, match=r"2\*\*52"):
        build_synopsis(data, 4, algorithm=algorithm, subtree_leaves=4)


@pytest.mark.parametrize("huge", BEYOND_GRID)
@pytest.mark.parametrize(
    "solve",
    [min_haar_space, partial(dm_haar_space, subtree_leaves=4)],
    ids=["centralized", "distributed"],
)
def test_dual_solvers_reject_values_beyond_the_grid(solve, huge):
    with pytest.raises(InvalidInputError, match=r"2\*\*52"):
        solve(_with(huge), 6.0, 0.1)


@pytest.mark.parametrize("huge", BEYOND_GRID)
@pytest.mark.parametrize("target", [{"epsilon": 6.0}, {"budget": 4}], ids=["epsilon", "budget"])
def test_dp_store_publishes_nothing_beyond_the_grid(target, huge):
    store = ShardedSynopsisStore()
    with pytest.raises(InvalidInputError, match=r"2\*\*52"):
        store.create("s", _with(huge), tier="dp", subtree_leaves=4, **target)
    assert "s" not in store
    assert store.history() == []


#: A series and an (epsilon, delta) on its grid whose DP score weight
#: 2*epsilon + delta + 1 overflows to inf: the DP could not rank its
#: candidates by count first, then error.
OVERFLOWING_WEIGHT = (np.array([-8e307, 8e307, 1e307, -3e307]), 9e307, 1e307)


@pytest.mark.parametrize(
    "solve",
    [min_haar_space, partial(dm_haar_space, subtree_leaves=2)],
    ids=["centralized", "distributed"],
)
def test_dual_solvers_reject_an_overflowing_weight(solve):
    with pytest.raises(InvalidInputError, match="score weight"):
        solve(*OVERFLOWING_WEIGHT)


def test_dp_store_publishes_nothing_with_an_overflowing_weight():
    data, epsilon, delta = OVERFLOWING_WEIGHT
    store = ShardedSynopsisStore()
    with pytest.raises(InvalidInputError, match="score weight"):
        store.create(
            "s", data, tier="dp", epsilon=epsilon, delta=delta, subtree_leaves=2
        )
    assert "s" not in store
    assert store.history() == []


def test_grid_limit_is_exclusive_at_2_52():
    assert leaf_row(2.0**52 - 2, 1.0, 1.0).end == 2**52 - 1
    with pytest.raises(InvalidInputError, match=r"2\*\*52"):
        leaf_row(2.0**52 - 1, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match=r"2\*\*52"):
        leaf_row(1.0, math.nan, 1.0)
