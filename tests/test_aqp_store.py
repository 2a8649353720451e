"""Tests for the AQP query surface served by the one synopsis store.

The fixture holds one series per serving tier: ``trips`` on the greedy
tier and ``wind`` on the DP tier with a pinned error target, so every
query, bounds check and persistence test runs against both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidInputError, ReproError
from repro.serving import ShardedSynopsisStore


@pytest.fixture
def store():
    s = ShardedSynopsisStore()
    rng = np.random.default_rng(0)
    s.create("trips", rng.uniform(0, 1000, size=500), budget=64, base_leaves=64)
    s.create(
        "wind", rng.uniform(0, 360, size=300), tier="dp", epsilon=60.0, subtree_leaves=64
    )
    return s


class TestRegistration:
    def test_names_and_membership(self, store):
        assert store.names() == ["trips", "wind"]
        assert "trips" in store and "missing" not in store
        assert len(store) == 2

    def test_add_records_guarantee(self, store):
        assert store.guarantee("trips") < float("inf")
        assert store.guarantee("wind") <= 60.0

    def test_readding_replaces(self, store):
        before = store.guarantee("trips")
        store.create("trips", np.zeros(500), budget=4, base_leaves=64)
        assert store.guarantee("trips") == 0.0
        assert store.guarantee("trips") != before

    def test_rejects_empty_series(self, store):
        with pytest.raises(InvalidInputError):
            store.create("bad", [], budget=4)

    def test_unknown_series(self, store):
        with pytest.raises(ReproError):
            store.point("missing", 0)


class TestQueries:
    def test_point_within_guarantee(self, store):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1000, size=500)
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, budget=64, base_leaves=64)
        guarantee = fresh.guarantee("x")
        for i in (0, 250, 499):
            assert abs(fresh.point("x", i) - data[i]) <= guarantee + 1e-9

    def test_range_queries(self, store):
        for name in ("trips", "wind"):
            total = store.range_sum(name, 0, 99)
            average = store.range_avg(name, 0, 99)
            assert average == pytest.approx(total / 100)

    def test_range_bounds_contain_exact_sum(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1000, size=256)
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, budget=32, base_leaves=64)
        lo, hi = 10, 99
        lower, upper = fresh.range_sum_bounds("x", lo, hi)
        exact = data[lo : hi + 1].sum()
        assert lower - 1e-6 <= exact <= upper + 1e-6

    def test_out_of_bounds_rejected(self, store):
        with pytest.raises(InvalidInputError):
            store.point("trips", 500)  # original length, padding excluded
        with pytest.raises(InvalidInputError):
            store.range_sum("wind", 100, 399)
        with pytest.raises(InvalidInputError):
            store.range_sum("wind", 50, 40)

    def test_clip_edge_cases(self, store):
        # Inverted range (even in-bounds endpoints).
        with pytest.raises(InvalidInputError, match="empty range"):
            store.range_avg("trips", 10, 9)
        # Negative lo.
        with pytest.raises(InvalidInputError, match="out of bounds"):
            store.range_sum("trips", -1, 5)
        # hi exactly at the original length (first padded index).
        with pytest.raises(InvalidInputError, match="out of bounds"):
            store.range_sum("wind", 0, 300)
        # Single-element range at both extremes is fine.
        assert store.range_sum("wind", 0, 0) == pytest.approx(
            store.point("wind", 0)
        )
        assert store.range_sum("wind", 299, 299) == pytest.approx(
            store.point("wind", 299)
        )

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000).map(float),
            min_size=2,
            max_size=120,
        ),
        st.data(),
    )
    def test_range_sum_bounds_tightness_property(self, data, draw):
        """Bounds always contain the exact sum and are exactly
        ``width * guarantee`` wide around the approximate answer."""
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, budget=8)
        n = len(data)
        lo = draw.draw(st.integers(min_value=0, max_value=n - 1))
        hi = draw.draw(st.integers(min_value=lo, max_value=n - 1))
        lower, upper = fresh.range_sum_bounds("x", lo, hi)
        exact = float(np.sum(np.asarray(data)[lo : hi + 1]))
        assert lower - 1e-6 <= exact <= upper + 1e-6
        width = (hi - lo + 1) * fresh.guarantee("x")
        approx = fresh.range_sum("x", lo, hi)
        assert upper - approx == pytest.approx(width, abs=1e-9)
        assert approx - lower == pytest.approx(width, abs=1e-9)


class TestReportAndPersistence:
    def test_report_rows(self, store):
        rows = store.report()
        assert [row["series"] for row in rows] == ["trips", "wind"]
        assert [row["tier"] for row in rows] == ["greedy", "dp"]
        assert all(row["ratio"] > 1 for row in rows)
        assert rows[0]["length"] == 500

    def test_save_load_roundtrip(self, store, tmp_path):
        path = tmp_path / "store.json"
        store.save(path)
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == store.names()
        assert loaded.point("trips", 7) == pytest.approx(store.point("trips", 7))
        assert loaded.guarantee("wind") == pytest.approx(store.guarantee("wind"))
        # Original lengths preserved: bounds checks still apply.
        with pytest.raises(InvalidInputError):
            loaded.point("wind", 300)

    def test_report_for_single_series_and_miss(self, store):
        # Regression: a miss must raise the available-names ReproError,
        # never a raw KeyError escaping from the series table.
        with pytest.raises(ReproError, match=r"available.*wind") as excinfo:
            store.guarantee("missing")
        assert not isinstance(excinfo.value, KeyError)
