"""Unit tests for WaveletSynopsis and the error metrics (Eqs. 1-3)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidInputError
from repro.wavelet.metrics import l2_error, max_abs_error, max_rel_error, signed_errors
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform

PAPER_DATA = np.array([5, 5, 0, 26, 1, 3, 14, 2], dtype=float)


def full_synopsis(data) -> WaveletSynopsis:
    coeffs = haar_transform(data)
    return WaveletSynopsis(len(data), {i: c for i, c in enumerate(coeffs) if c != 0.0})


class TestMetrics:
    def test_zero_error_on_identical(self):
        assert l2_error(PAPER_DATA, PAPER_DATA) == 0.0
        assert max_abs_error(PAPER_DATA, PAPER_DATA) == 0.0
        assert max_rel_error(PAPER_DATA, PAPER_DATA) == 0.0

    def test_max_abs_simple(self):
        approx = PAPER_DATA + np.array([0, 0, 0, -5, 0, 2, 0, 0], dtype=float)
        assert max_abs_error(PAPER_DATA, approx) == 5.0

    def test_l2_matches_formula(self):
        approx = PAPER_DATA.copy()
        approx[0] += 4.0
        assert l2_error(PAPER_DATA, approx) == pytest.approx(np.sqrt(16.0 / 8.0))

    def test_max_rel_uses_sanity_bound(self):
        data = np.array([0.0, 100.0])
        approx = np.array([1.0, 100.0])
        # With S = 1, the zero-valued point contributes |1 - 0| / 1 = 1.
        assert max_rel_error(data, approx, sanity_bound=1.0) == 1.0
        # A large sanity bound suppresses it.
        assert max_rel_error(data, approx, sanity_bound=10.0) == pytest.approx(0.1)

    def test_max_rel_rejects_nonpositive_bound(self):
        with pytest.raises(InvalidInputError):
            max_rel_error(PAPER_DATA, PAPER_DATA, sanity_bound=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            max_abs_error(PAPER_DATA, PAPER_DATA[:4])

    def test_signed_errors_sign_convention(self):
        # err = d_hat - d.
        errors = signed_errors(np.array([1.0, 2.0]), np.array([0.5, 3.0]))
        assert errors.tolist() == [-0.5, 1.0]


class TestWaveletSynopsis:
    def test_full_synopsis_is_lossless(self):
        synopsis = full_synopsis(PAPER_DATA)
        np.testing.assert_allclose(synopsis.reconstruct(), PAPER_DATA)
        assert synopsis.max_abs_error(PAPER_DATA) == 0.0

    def test_paper_sparse_example(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 5: -13.0, 3: -3.0})
        assert synopsis.size == 3
        assert synopsis.point_query(5) == pytest.approx(4.0)

    def test_zero_coefficients_are_dropped(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 3: 0.0})
        assert synopsis.size == 1
        assert 3 not in synopsis.coefficients

    def test_dense_roundtrip(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 2: -4.0})
        dense = synopsis.dense()
        assert dense[0] == 7.0 and dense[2] == -4.0 and dense.sum() == 3.0

    def test_point_query_matches_full_reconstruction(self):
        rng = np.random.default_rng(5)
        data = rng.normal(scale=10, size=32)
        coeffs = haar_transform(data)
        keep = {int(i): float(coeffs[i]) for i in rng.choice(32, size=8, replace=False)}
        synopsis = WaveletSynopsis(32, keep)
        full = synopsis.reconstruct()
        for leaf in range(32):
            assert synopsis.point_query(leaf) == pytest.approx(full[leaf])

    def test_range_queries_match_reconstruction(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 1: 2.0, 5: -13.0})
        full = synopsis.reconstruct()
        assert synopsis.range_sum(2, 6) == pytest.approx(full[2:7].sum())
        assert synopsis.range_avg(2, 6) == pytest.approx(full[2:7].mean())

    def test_range_avg_rejects_empty(self):
        synopsis = WaveletSynopsis(8, {0: 7.0})
        with pytest.raises(InvalidInputError):
            synopsis.range_avg(4, 3)

    def test_serialization_roundtrip(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 5: -13.0}, meta={"algorithm": "test"})
        restored = WaveletSynopsis.from_dict(synopsis.to_dict())
        assert restored.same_coefficients(synopsis)
        assert restored.meta == synopsis.meta

    def test_same_coefficients_tolerance(self):
        a = WaveletSynopsis(8, {0: 7.0})
        b = WaveletSynopsis(8, {0: 7.0 + 1e-9})
        assert not a.same_coefficients(b)
        assert a.same_coefficients(b, tolerance=1e-6)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidInputError):
            WaveletSynopsis(8, {9: 1.0})

    def test_rejects_non_integral_index_and_non_finite_value(self):
        with pytest.raises(InvalidInputError):
            WaveletSynopsis(8, {3.7: 1.0})  # was silently node 3
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidInputError):
                WaveletSynopsis(8, {3: value})

    def test_from_dict_applies_the_same_checks(self):
        payload = WaveletSynopsis(8, {0: 7.0, 5: -13.0}).to_dict()
        with pytest.raises(InvalidInputError):
            WaveletSynopsis.from_dict({**payload, "coefficients": {"3.7": 1.0}})
        with pytest.raises(InvalidInputError):
            WaveletSynopsis.from_dict({**payload, "coefficients": {"3": float("nan")}})

    def test_arrays_are_sorted_and_read_only(self):
        synopsis = WaveletSynopsis(8, {5: -13.0, np.int64(0): 7.0, 3: 0.0})
        assert synopsis.indices.tolist() == [0, 5]
        assert synopsis.values.tolist() == [7.0, -13.0]
        restored = pickle.loads(pickle.dumps(synopsis))
        for held in (synopsis, restored):
            with pytest.raises(ValueError):
                held.values[0] = 1.0
            with pytest.raises(ValueError):
                held.indices[0] = 1
        with pytest.raises(TypeError):
            synopsis.coefficients[0] = 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidInputError):
            WaveletSynopsis(6, {0: 1.0})

    def test_error_metrics_delegation(self):
        synopsis = WaveletSynopsis(8, {0: 7.0, 5: -13.0, 3: -3.0})
        approx = synopsis.reconstruct()
        assert synopsis.max_abs_error(PAPER_DATA) == max_abs_error(PAPER_DATA, approx)
        assert synopsis.l2_error(PAPER_DATA) == l2_error(PAPER_DATA, approx)
        assert synopsis.max_rel_error(PAPER_DATA) == max_rel_error(PAPER_DATA, approx)
