"""The one input boundary for series values.

Every public entry point that takes an in-memory series — every
``build_synopsis`` algorithm, both serving-store tiers, the AQP store and
the ``repro build`` CLI — rejects a NaN or an infinity with
:class:`InvalidInputError` before any algorithm or store state sees it.
Without the boundary, the DP tiers spin (every epsilon doubling widens
every M-row), the greedy tiers raise a bare ``IndexError`` after writing
the value into the store buffer, and H-WTopk silently returns a
synopsis.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aqp import SynopsisStore
from repro.cli import main as cli_main
from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.data.loader import as_finite_series, pad_to_power_of_two
from repro.exceptions import InvalidInputError
from repro.serving import ShardedSynopsisStore

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


@pytest.mark.parametrize("bad", NON_FINITE)
def test_aqp_store_rejects_non_finite_values(bad):
    store = SynopsisStore()
    with pytest.raises(InvalidInputError, match="finite"):
        store.add("s", _with(bad), 4, subtree_leaves=4)
    assert "s" not in store


def test_cli_build_reports_non_finite_input(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1.0 2.0 nan 4.0\n")
    assert cli_main(["build", str(data), "--budget", "2"]) == 1
    assert "error:" in capsys.readouterr().err
