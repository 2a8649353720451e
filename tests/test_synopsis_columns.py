"""Differential oracle for the columnar :class:`WaveletSynopsis`.

The synopsis keeps its retained coefficients as sorted ``indices`` /
``values`` arrays.  ``tests/_reference.py::DictSynopsis`` keeps the
``{node: value}`` reads those arrays replaced; every read of the
columnar synopsis must equal it byte for byte (``tobytes()``), including
the summation order of point and range queries.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving.store import _digest
from repro.wavelet.synopsis import WaveletSynopsis, reconstruct_segment
from tests._reference import DictSynopsis

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Bound on n * B: the reference rebuilds every segment by walking all
#: B coefficients, once per segment.
WORK = 1 << 17


@st.composite
def sparse_maps(draw):
    """``(n, {node: value}, ranges)`` with n = 2..2^12.

    Maps are empty, root-only, full or sparse.  Values are either
    hypothesis floats (with zeros, which both representations drop) or
    full-mantissa noise over nine decades: sums of hypothesis's preferred
    round numbers are exact in any order and would not pin the summation
    order.
    """
    n = 1 << draw(st.integers(min_value=1, max_value=12))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "root", "full", "sparse"]))
    if kind == "empty":
        nodes = []
    elif kind == "root":
        nodes = [0]
    elif kind == "full" and n * n <= WORK:
        nodes = list(range(n))
    else:
        size = draw(st.integers(min_value=1, max_value=min(n, WORK // n)))
        nodes = noise.choice(n, size=size, replace=False).tolist()
    if draw(st.booleans()):
        values = draw(
            st.lists(
                st.one_of(finite, st.just(0.0)),
                min_size=len(nodes),
                max_size=len(nodes),
            )
        )
    else:
        values = _noise(noise, len(nodes))
    return n, dict(zip(nodes, values)), _ranges(noise, n)


def _noise(rng, size):
    return (rng.normal(size=size) * 10.0 ** rng.uniform(-3, 6, size)).tolist()


def _ranges(rng, n):
    return [tuple(sorted(pair)) for pair in rng.integers(0, n, (16, 2)).tolist()]


def _full_noise_map(n, seed):
    rng = np.random.default_rng(seed)
    return n, dict(enumerate(_noise(rng, n))), _ranges(rng, n)


def _bytes(answers):
    return np.asarray(answers, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(sparse_maps())
@example(_full_noise_map(256, seed=5))  # sums depend on the node order
def test_columnar_reads_equal_the_dict_reference(case):
    n, mapping, ranges = case
    synopsis = WaveletSynopsis(n, mapping)
    reference = DictSynopsis(n, mapping)

    assert dict(synopsis.coefficients) == reference.coefficients
    assert list(synopsis.coefficients) == sorted(reference.coefficients)
    assert synopsis.dense().tobytes() == reference.dense().tobytes()
    assert synopsis.reconstruct().tobytes() == reference.reconstruct().tobytes()
    leaves = range(n)
    assert _bytes([synopsis.point_query(i) for i in leaves]) == _bytes(
        [reference.point_query(i) for i in leaves]
    )
    assert _bytes([synopsis.range_sum(lo, hi) for lo, hi in ranges]) == _bytes(
        [reference.range_sum(lo, hi) for lo, hi in ranges]
    )
    seg_len = 2
    while seg_len <= n // 2:
        for start in range(0, n, seg_len):
            assert (
                reconstruct_segment(synopsis, start, seg_len).tobytes()
                == reference.segment(start, seg_len).tobytes()
            ), (start, seg_len)
        seg_len *= 2
    assert synopsis.to_dict() == reference.to_dict()
    assert json.dumps(synopsis.to_dict()) == json.dumps(reference.to_dict())


@settings(max_examples=40, deadline=None)
@given(sparse_maps(), st.randoms(use_true_random=False))
def test_digest_reads_values_not_insertion_order(case, rng):
    n, mapping, _ = case
    synopsis = WaveletSynopsis(n, mapping)
    digest = _digest(synopsis, n, 1.5)
    shuffled = list(mapping.items())
    rng.shuffle(shuffled)
    assert _digest(WaveletSynopsis(n, dict(shuffled)), n, 1.5) == digest
    if not synopsis.size:
        return
    retained = dict(synopsis.coefficients)
    node = rng.choice(sorted(retained))
    nudged = dict(retained)
    nudged[node] = float(np.nextafter(retained[node], np.inf))
    assert _digest(WaveletSynopsis(n, nudged), n, 1.5) != digest
    free = sorted(set(range(n)) - set(retained))
    if free:
        moved = dict(retained)
        moved[rng.choice(free)] = moved.pop(node)
        assert _digest(WaveletSynopsis(n, moved), n, 1.5) != digest
