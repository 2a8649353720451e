"""MinHaarSpace: the dual-problem DP (Karras/Sacharidis/Mamoulis, KDD'07).

Solves **Problem 2**: given an error bound ``epsilon``, build an
*unrestricted* wavelet synopsis (coefficient values are free, not tied to
the Haar coefficients) with ``max_abs <= epsilon`` and as few non-zero
entries as possible.

The DP walks the error tree bottom-up.  For every node ``j`` it builds an
*M-row* ``M[j]``: one entry per quantized *incoming value* ``v`` (the
partial reconstruction accumulated along the path of ancestors), holding

* the minimum number of non-zero coefficients needed inside ``T_j``,
* the achieved maximum absolute error in the scope of ``T_j``, and
* the traceback choice (which incoming value the left child receives).

Incoming values live on the uniform grid ``v = k * delta``; ``delta`` is
the user knob trading solution quality for time/space, exactly as in the
paper (Figures 6-7).  A node's feasible incoming-value domain is the
``±epsilon`` band around its subtree mean, intersected with the grid, so
each row has ``O(epsilon / delta)`` entries — the quantity that also
bounds the communication of the distributed version (Section 4).

The row algebra is deliberately *compositional*: a data value is a row, a
coefficient node combines its two child rows, and the same ``combine`` is
reused verbatim by DMHaarSpace where child rows arrive from a previous
distributed layer instead of from recursion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.sanitizer import current as sanitizer_current
from repro.exceptions import InfeasibleErrorBound, InvalidInputError
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import is_power_of_two

__all__ = [
    "MRow",
    "DualSolution",
    "approx_params",
    "check_dp_params",
    "effective_delta",
    "leaf_row",
    "leaf_rows",
    "combine_level",
    "combine_rows",
    "combine_rows_scalar",
    "compute_data_subtree_rows",
    "compute_subtree_rows",
    "data_pair_rows",
    "traceback_subtree",
    "finalize_root",
    "max_row_entries",
    "min_haar_space",
]

#: Count stored at infeasible row entries: far above any real count, and
#: small enough that the windowed kernel's int32 candidate sums — worst
#: case two sentinels plus one — stay below ``int32`` max.
INFEASIBLE_COUNT = np.iinfo(np.int32).max // 4

#: Candidate-matrix size (|v domain| * |left row|) up to which the scalar
#: per-``v`` loop beats the windowed kernel: the windowed kernel's setup
#: costs ~55 µs whatever the size, the scalar loop ~7 µs per ``v``, and
#: the two cross between 56 and 72 cells (the ``threshold`` rows of
#: ``benchmarks/bench_dp_kernel.py``; see docs/ALGORITHMS.md).
SCALAR_FALLBACK_CELLS = 64

#: Cells per block of the windowed kernel's ``(v, vl)`` candidate matrix.
#: Wide rows are processed in chunks this size so the three scratch
#: matrices (int32 counts, float64 errors, float64 scores — ~640 KB
#: total) stay cache-resident; one full-width pass at fine quantizations
#: is memory-bound and measurably slower (benchmarks/bench_dp_kernel.py).
_MAX_BLOCK_CELLS = 1 << 15

#: Nodes a level needs before :func:`combine_level` batches it.  Smaller
#: levels (a sub-tree's top few) run :func:`combine_rows` per node: there
#: the batch's fixed cost of a few dozen numpy calls is not repaid (the
#: ``level_sizes`` rows of ``benchmarks/bench_dp_kernel.py`` time levels
#: of 1 to 16 nodes both ways; see docs/ALGORITHMS.md).
_MIN_LEVEL_NODES = 8

#: Combined-row entries per block of :func:`combine_level`, and band
#: cells per scoring chunk within a block: a level's scratch arrays stay
#: this size however many nodes the level holds (the centralized solver's
#: lowest levels hold up to N/4 nodes).  Larger budgets run a little
#: faster but raise peak RSS: on the e2e build-dp workload these budgets
#: add 2.0 MiB over the per-node loop, and 2^14 cells added 3.3 MiB.
_LEVEL_BLOCK_ENTRIES = 1 << 11
_LEVEL_BLOCK_CELLS = 1 << 13

#: Count-run pairs (left runs x right runs) above which :func:`combine_level`
#: leaves a node to :func:`combine_rows`.  The level kernel sorts one
#: record per pair of count levels, so this bounds its pair arrays the
#: way the block budgets bound the rest: rows near a large tree's root
#: hold hundreds of runs (118,925 pairs at one node of a centralized
#: uniform solve at ε = 400, δ = 1, N = 2^12), while the bench's 256-leaf
#: sub-trees never reach the cap, and solve times are the same with it
#: or without.
_MAX_RUN_PAIRS = 1 << 10

#: Offset between nodes in :func:`combine_level`'s sorted keys; above
#: every count (counts stay below ``INFEASIBLE_COUNT``), every sum of two
#: counts and every sum of two positions in a row.
_NODE_KEY = 1 << 31

#: Leaf grid bounds must stay below this magnitude (see :func:`_leaf_domains`).
_GRID_LIMIT = float(1 << 52)

_EMPTY_DOMAIN = "empty combined domain (quantization too coarse for this epsilon)"


def check_dp_params(delta: float, rho: float = 0.0) -> None:
    """Reject a ``delta`` or ``rho`` that no DP solve can run with.

    :func:`approx_params` calls this before every DP solve.  Both
    IndirectHaar drivers call it before their exact-conventional
    shortcut, so a bad parameter is rejected whatever the data.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidInputError(f"delta must be finite and strictly positive, got {delta}")
    if not (math.isfinite(rho) and rho >= 0):
        raise InvalidInputError(f"rho must be finite and non-negative, got {rho}")


def effective_delta(epsilon: float, delta: float, n: int) -> float:
    """Clamp ``delta`` so the quantized domains survive the tree depth.

    Combining two child rows can lose one grid point of domain width when
    the children's bounds have odd parity, so after ``log2 N`` levels a
    domain of fewer than ``~log2 N`` points can become empty even though
    real-valued solutions exist.  The paper hits the same wall ("the
    algorithm could not run ... as these values were higher than the space
    they need to quantize", Section 6.2); we refine ``delta`` just enough
    that every row keeps at least ``log2 N + 2`` entries, which also caps
    row width — and with it runtime and communication — at
    ``O(max(epsilon/delta, log N))``.
    """
    if delta <= 0:
        raise InvalidInputError("delta must be strictly positive")
    if epsilon <= 0:
        return delta
    depth = max(n.bit_length() - 1, 1)
    ceiling = 2.0 * epsilon / (depth + 2)
    return min(delta, ceiling) if ceiling > 0 else delta


def approx_params(
    epsilon: float, delta: float, n: int, rho: float = 0.0
) -> tuple[float, float]:
    """DP parameters ``(epsilon_dp, delta_dp)`` of the ``rho``-approximate tier.

    The approximate tier trades a bounded error inflation for narrower
    M-rows (Guha-style synopsis-space coarsening): the DP runs with the
    inflated bound ``epsilon_dp = (1 + rho) * epsilon`` on the coarsened
    grid ``delta_dp = 2 * rho * epsilon / levels`` with ``levels =
    log2(N) + 1`` (one snap at ``c_0`` plus one per combine level).

    Guarantee (asserted by the differential tests): any solution of the
    exact DP at ``(epsilon, delta)`` maps onto the coarse grid by
    snapping incoming values top-down — each of the ``levels`` snaps
    drifts the reconstruction by at most ``delta_dp / 2``, zero
    coefficients stay zero, so the mapped solution has the same count
    and error ``<= epsilon + levels * delta_dp / 2 = (1 + rho) *
    epsilon``.  The approximate DP therefore returns

    * ``size <= size`` of the exact DP at ``(epsilon, delta)``, and
    * ``max_error <= (1 + rho) * epsilon``

    while every M-row shrinks to ``O((1 + rho) * levels / rho)`` entries
    — independent of ``epsilon / delta``.  When the requested grid is
    already at least that coarse (``delta_dp <= delta'``) coarsening
    cannot help and the exact parameters come back unchanged, so
    ``rho = 0`` is bit-identical to the exact path by construction.

    Every DP solve and the serving DP maintainer call this before they
    build a row, so it is where a non-finite ``epsilon``, ``delta`` or
    ``rho`` is rejected — and parameters so large that the rows'
    count-then-error score weight (:func:`_lexicographic_weight`)
    overflows, since the DP cannot rank its candidates without it.
    """
    if not math.isfinite(epsilon):
        raise InvalidInputError(f"epsilon must be finite, got {epsilon}")
    check_dp_params(delta, rho)
    epsilon_dp, delta_dp = epsilon, effective_delta(epsilon, delta, n)
    if rho > 0 and epsilon > 0:
        levels = max(n.bit_length() - 1, 1) + 1
        coarse = 2.0 * rho * epsilon / levels
        if coarse > delta_dp:
            epsilon_dp = (1.0 + rho) * epsilon
            delta_dp = effective_delta(epsilon_dp, coarse, n)
    if not math.isfinite(_lexicographic_weight(epsilon_dp, delta_dp)):
        raise InvalidInputError(
            f"epsilon {epsilon} and delta {delta} are too large for the DP's "
            "score weight 2*epsilon + delta + 1 to stay finite"
        )
    return epsilon_dp, delta_dp


def max_row_entries(epsilon: float, delta: float, n: int, rho: float = 0.0) -> int:
    """Worst-case entry count of any M-row in an ``(epsilon, delta)`` run.

    A leaf row spans the grid points within ``epsilon`` of its value —
    at most ``floor(2*epsilon/delta') + 2`` of them (both endpoints can
    land on the grid) — and combining only shrinks relative width, so
    this caps every row of the tree.  The parameters are resolved through
    :func:`approx_params` exactly as the DP resolves them: at ``rho = 0``
    that is the ``effective_delta`` clamp, and in the approximate regime
    (``rho > 0``) the bound uses the inflated ``epsilon_dp`` over the
    *coarsened* ``delta'`` — Eq. 6 with no slack factor, which is what
    makes the regime's communication savings a checkable prediction
    rather than a hope.  The Eq. 6 byte budgets
    (:mod:`repro.observe.bounds`) and the layer planner both use it.
    """
    epsilon_dp, delta_dp = approx_params(epsilon, delta, n, rho)
    return int(math.floor(2.0 * epsilon_dp / delta_dp)) + 2


#: Tie-break weight: rows minimize coefficient count first, then achieved
#: error.  Scores are ``count * weight + error`` with ``weight > epsilon``.
def _lexicographic_weight(epsilon: float, delta: float) -> float:
    return 2.0 * epsilon + delta + 1.0


@dataclass
class MRow:
    """One DP row: per-incoming-grid-value minimum cost inside a sub-tree.

    ``start`` is the grid index of the first entry: entry ``i`` describes
    incoming value ``(start + i) * delta``.  ``choices[i]`` is the grid
    index handed to the *left* child (``-1`` for data-leaf rows).
    """

    start: int
    counts: np.ndarray
    errors: np.ndarray
    choices: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    @property
    def end(self) -> int:
        """Grid index of the last entry (inclusive)."""
        return self.start + len(self) - 1

    def entry(self, grid_index: int) -> tuple[int, float]:
        """Return ``(count, error)`` at an absolute grid index."""
        offset = grid_index - self.start
        if not 0 <= offset < len(self):
            raise InvalidInputError(f"grid index {grid_index} outside row domain")
        return int(self.counts[offset]), float(self.errors[offset])

    def serialized_size(self) -> int:
        """Modeled shuffle size: the O(epsilon/delta) cost of Section 4."""
        return MRow.sized(len(self))

    @staticmethod
    def sized(entries: int) -> int:
        """Modeled serialized bytes of a row with ``entries`` grid points.

        The closed form the Eq. 6 bound checker
        (:mod:`repro.observe.bounds`) uses to predict shuffle volume
        without building rows; keeping it next to ``serialized_size``
        means the prediction and the measurement share one definition.
        """
        return 8 + 4 * entries + 8 * entries + 4 * entries


@dataclass
class DualSolution:
    """Output of a Problem-2 solve.

    ``epsilon`` is the error bound the solve was asked for — carried on
    the solution itself so callers that probe many bounds (the binary
    search of IndirectHaar) can re-run the winning probe without keeping
    an external solution-to-epsilon map.
    """

    size: int
    max_error: float
    synopsis: WaveletSynopsis
    epsilon: float | None = None


def _leaf_domains(
    values: ArrayLike, epsilon: float, delta: float
) -> tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]]:
    """Grid bounds ``[start, stop]`` of every data leaf's row.

    :func:`leaf_rows` and :func:`data_pair_rows` share this, so both
    reject the same inputs with the same errors in the same order.  A
    bound of magnitude ``>= 2**52`` is rejected: there the data's own
    float64 spacing is about ``delta``, so the grid cannot resolve it (and
    larger bounds overflow the int64 cast).  Below it every grid index,
    and every sum of two, is exact in both int64 and float64.
    """
    if epsilon < 0:
        raise InvalidInputError("epsilon must be non-negative")
    if delta <= 0:
        raise InvalidInputError("delta must be strictly positive")
    batch = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        low = np.ceil((batch - epsilon) / delta - 1e-12)
        high = np.floor((batch + epsilon) / delta + 1e-12)
    # Written so that a NaN bound counts as out of range too.
    unresolved = ~((np.abs(low) < _GRID_LIMIT) & (np.abs(high) < _GRID_LIMIT))
    if unresolved.any():
        value = float(batch[int(np.argmax(unresolved))])
        raise InvalidInputError(
            f"value {value} needs a grid index of magnitude >= 2**52 at "
            f"quantization {delta} and epsilon {epsilon}; use a coarser delta"
        )
    starts = low.astype(np.int64)
    stops = high.astype(np.int64)
    infeasible = stops < starts
    if infeasible.any():
        value = float(batch[int(np.argmax(infeasible))])
        raise InfeasibleErrorBound(
            f"no grid point within ±{epsilon} of {value} at quantization {delta}"
        )
    return batch, starts, stops


def _leaf_row(value: float, start: int, stop: int, delta: float) -> MRow:
    grid = np.arange(start, stop + 1, dtype=np.int64)
    return MRow(
        start=start,
        counts=np.zeros(len(grid), dtype=np.int32),
        errors=np.abs(grid * delta - value),
        choices=np.full(len(grid), -1, dtype=np.int64),
    )


def leaf_row(value: float, epsilon: float, delta: float) -> MRow:
    """Row of a data leaf: zero cost wherever ``|v - value| <= epsilon``."""
    return leaf_rows([value], epsilon, delta)[0]


def leaf_rows(values: ArrayLike, epsilon: float, delta: float) -> list[MRow]:
    """Rows of a whole batch of data leaves (one :func:`leaf_row` each).

    The grid bounds of all rows are computed in one vectorized pass.  The
    DP builds its bottom level straight from the data
    (:func:`data_pair_rows`); leaf rows serve a one-point tree and the
    kernels' reference tests.
    """
    batch, starts, stops = _leaf_domains(values, epsilon, delta)
    return [
        _leaf_row(value, start, stop, delta)
        for value, start, stop in zip(batch.tolist(), starts.tolist(), stops.tolist())
    ]


def _build_row(
    v_start: int,
    counts: NDArray[np.int64],
    errors: NDArray[np.float64],
    choices: NDArray[np.int64],
) -> MRow:
    """Finish a combined row: canonicalize infeasible entries and trim.

    Entries whose error is non-finite carry no usable pairing; both the
    scalar and windowed kernels funnel through here so infeasible entries
    are represented identically (``INFEASIBLE_COUNT`` / ``inf`` / ``-1``)
    regardless of which kernel produced them.  Fringe infeasibility is
    trimmed; an interior infeasible entry stays explicit so parents skip
    it.
    """
    feasible = np.isfinite(errors)
    if not feasible.any():
        raise InfeasibleErrorBound("no feasible incoming value for combined row")
    counts = np.where(feasible, counts, INFEASIBLE_COUNT).astype(np.int32)
    choices = np.where(feasible, choices, -1)
    first = int(np.argmax(feasible))
    last = len(feasible) - 1 - int(np.argmax(feasible[::-1]))
    return MRow(
        start=v_start + first,
        counts=counts[first : last + 1],
        errors=errors[first : last + 1],
        choices=choices[first : last + 1],
    )


def _combined_domain(left: MRow, right: MRow) -> tuple[int, int]:
    v_start = math.ceil((left.start + right.start) / 2)
    v_stop = math.floor((left.end + right.end) / 2)
    if v_stop < v_start:
        raise InfeasibleErrorBound(_EMPTY_DOMAIN)
    return v_start, v_stop


def combine_rows(
    left: MRow,
    right: MRow,
    epsilon: float,
    delta: float,
) -> MRow:
    """Combine two child rows into their parent coefficient node's row.

    For incoming ``v``, the node may assign a value ``z`` (cost 1 when
    ``z != 0``), passing ``v + z`` to the left child and ``v - z`` to the
    right.  On the grid this means choosing ``vl`` in the left domain with
    ``vr = 2v - vl`` in the right domain; ``z = 0`` corresponds to
    ``vl == v``.  The row minimizes count, then achieved error.

    Dispatches between two kernels with identical results (tested
    entry-for-entry): the windowed batch kernel for real rows, and the
    per-``v`` scalar loop for tiny rows where the batch setup overhead
    loses (:data:`SCALAR_FALLBACK_CELLS`).
    """
    v_start, v_stop = _combined_domain(left, right)
    if (v_stop - v_start + 1) * len(left) <= SCALAR_FALLBACK_CELLS:
        chosen = _combine_kernel_scalar
    else:
        chosen = _combine_kernel_windowed
    counts, errors, choices = chosen(left, right, v_start, v_stop, epsilon, delta)
    return _build_row(v_start, counts, errors, choices)


def combine_rows_scalar(left: MRow, right: MRow, epsilon: float, delta: float) -> MRow:
    """The per-``v`` scalar combine, kept as the differential-test and
    benchmark reference for the windowed kernel (and its small-row
    fallback path)."""
    v_start, v_stop = _combined_domain(left, right)
    counts, errors, choices = _combine_kernel_scalar(
        left, right, v_start, v_stop, epsilon, delta
    )
    return _build_row(v_start, counts, errors, choices)


def _combine_kernel_scalar(
    left: MRow, right: MRow, v_start: int, v_stop: int, epsilon: float, delta: float
) -> tuple[NDArray[np.int64], NDArray[np.float64], NDArray[np.int64]]:
    """One tiny-slice numpy pass per incoming value ``v``."""
    weight = _lexicographic_weight(epsilon, delta)
    width = v_stop - v_start + 1
    counts = np.empty(width, dtype=np.int64)
    errors = np.empty(width, dtype=np.float64)
    choices = np.empty(width, dtype=np.int64)

    for offset, v in enumerate(range(v_start, v_stop + 1)):
        vl_lo = max(left.start, 2 * v - right.end)
        vl_hi = min(left.end, 2 * v - right.start)
        if vl_hi < vl_lo:
            # No pairing for this v (cannot occur inside the combined
            # domain, kept for safety); canonicalized by _build_row.
            counts[offset] = INFEASIBLE_COUNT
            errors[offset] = np.inf
            choices[offset] = -1
            continue
        lseg_counts = left.counts[vl_lo - left.start : vl_hi - left.start + 1]
        lseg_errors = left.errors[vl_lo - left.start : vl_hi - left.start + 1]
        # As vl ascends, vr = 2v - vl descends through the right row.
        r_hi = 2 * v - vl_lo
        r_lo = 2 * v - vl_hi
        rseg_counts = right.counts[r_lo - right.start : r_hi - right.start + 1][::-1]
        rseg_errors = right.errors[r_lo - right.start : r_hi - right.start + 1][::-1]

        total_counts = lseg_counts.astype(np.int64) + rseg_counts + 1
        if vl_lo <= v <= vl_hi:
            total_counts[v - vl_lo] -= 1  # z == 0 stores nothing
        total_errors = np.maximum(lseg_errors, rseg_errors)
        scores = total_counts * weight + total_errors
        best = int(np.argmin(scores))
        counts[offset] = total_counts[best]
        errors[offset] = total_errors[best]
        choices[offset] = vl_lo + best
    return counts, errors, choices


def _combine_kernel_windowed(
    left: MRow, right: MRow, v_start: int, v_stop: int, epsilon: float, delta: float
) -> tuple[NDArray[np.int64], NDArray[np.float64], NDArray[np.int64]]:
    """All incoming values in one batched 2-D reduction.

    Key observation: with the right row *reversed*, the candidate set of
    every ``v`` is a contiguous window.  Writing ``k = vl - left.start``
    and pairing ``vr = 2v - vl``, the reversed-right index is
    ``k - m(v)`` with ``m(v) = 2v - left.start - right.end`` — so row
    ``v`` of the candidate matrix is the fixed-length window of the
    (sentinel-padded) reversed right row starting at ``pad - m(v)``, and
    ``numpy.lib.stride_tricks.sliding_window_view`` materializes every
    row's window without per-``v`` slicing.  One ``argmin`` over the
    ``(v, vl)`` block then resolves every minimum, with the same
    smallest-``vl`` tie-break as the scalar loop (first minimum wins).

    Window starts descend by 2 as ``v`` ascends, so the blocked loop
    walks the *descending-``v``* row order instead — window starts then
    ascend and each block streams the padded arrays front-to-back
    (prefetch-friendly; measurably faster at widths >= 1024 than the
    back-to-front walk, see BENCH_dp_kernel.json) — and every block's
    outputs are flipped back into ascending-``v`` order on the way out.
    """
    weight = _lexicographic_weight(epsilon, delta)
    wl = len(left)
    wr = len(right)
    width = v_stop - v_start + 1

    vs = np.arange(v_start, v_stop + 1, dtype=np.int64)
    shifts = 2 * vs - left.start - right.end  # m(v), ascending by 2
    pad_lo = max(int(shifts[-1]), 0)
    pad_hi = max(wl - wr - int(shifts[0]), 0)
    padded = pad_lo + wr + pad_hi
    right_counts = np.full(padded, INFEASIBLE_COUNT, dtype=np.int32)
    right_errors = np.full(padded, np.inf, dtype=np.float64)
    right_counts[pad_lo : pad_lo + wr] = right.counts[::-1]
    right_errors[pad_lo : pad_lo + wr] = right.errors[::-1]
    # Row i of the window matrices is v = v_stop - i: a step +2 slice of
    # the sliding windows starting at the LAST v's window — a strided
    # view, no per-v gather copies.
    window_starts = pad_lo - shifts
    count_windows = sliding_window_view(right_counts, wl)[int(window_starts[-1]) :: 2][
        :width
    ]
    error_windows = sliding_window_view(right_errors, wl)[int(window_starts[-1]) :: 2][
        :width
    ]

    # int32 throughout the count matrix halves its memory traffic; the
    # sentinel is sized so even sentinel + sentinel + 1 cannot overflow.
    left_counts_plus_one = (left.counts.astype(np.int32) + 1)[np.newaxis, :]
    left_errors = left.errors[np.newaxis, :]
    # v values where z = 0 is on the table: v must lie in both domains.
    zero_lo = max(left.start, right.start)
    zero_hi = min(left.end, right.end)

    counts = np.empty(width, dtype=np.int64)
    errors = np.empty(width, dtype=np.float64)
    choices = np.empty(width, dtype=np.int64)
    block = max(1, _MAX_BLOCK_CELLS // wl)
    first = min(block, width)
    # Scratch reused across blocks: the kernel's large-width cost is
    # dominated by memory traffic, not arithmetic, so keeping the block
    # matrices allocated once and cache-resident is most of the speedup.
    total_counts = np.empty((first, wl), dtype=np.int32)
    total_errors = np.empty((first, wl), dtype=np.float64)
    scores = np.empty((first, wl), dtype=np.float64)
    descending_vs = vs[::-1]
    for begin in range(0, width, block):
        end = min(begin + block, width)
        rows = end - begin
        counts_block = total_counts[:rows]
        errors_block = total_errors[:rows]
        scores_block = scores[:rows]
        np.add(count_windows[begin:end], left_counts_plus_one, out=counts_block)
        np.maximum(error_windows[begin:end], left_errors, out=errors_block)
        v_block = descending_vs[begin:end]
        zero_rows = np.nonzero((v_block >= zero_lo) & (v_block <= zero_hi))[0]
        if len(zero_rows):
            # z == 0 stores nothing; applied to the integer counts BEFORE
            # the weight multiply so tie-breaks stay bit-identical to the
            # scalar kernel ((c-1)*w and c*w - w can differ in the last ulp).
            counts_block[zero_rows, v_block[zero_rows] - left.start] -= 1
        np.multiply(counts_block, weight, out=scores_block)
        np.add(scores_block, errors_block, out=scores_block)
        best = np.argmin(scores_block, axis=1)
        picked = np.arange(rows, dtype=np.int64)
        # Rows begin..end of the descending-v walk land, flipped, at the
        # mirrored slice of the ascending-v output.
        out = slice(width - end, width - begin)
        counts[out] = counts_block[picked, best][::-1]
        errors[out] = errors_block[picked, best][::-1]
        choices[out] = (left.start + best)[::-1]
    return counts, errors, choices


def data_pair_rows(values: ArrayLike, epsilon: float, delta: float) -> list[MRow]:
    """The bottom combine level of a data sub-tree, straight from its values.

    Row ``i`` is ``combine_rows(leaf_row(values[2i]), leaf_row(values[2i +
    1]))`` bit for bit, and the same errors surface in the same order, but
    no leaf row and no ``(v, vl)`` candidate matrix is built.  Leaf rows
    have zero counts and V-shaped errors ``|g·delta − x|``, which leaves
    O(1) candidates per incoming value ``v`` of a pair ``(a, b)``:

    * ``v`` inside both leaf domains keeps ``z = 0``: count 0, error
      ``max(|v·delta − a|, |v·delta − b|)``, choice ``v``.  Every other
      candidate costs 1 and scores at least ``weight``, which is checked
      to exceed that error.
    * any other ``v`` pays 1 for a pairing whose error ``max(|vl·delta −
      a|, |(2v − vl)·delta − b|)`` is quasi-convex in ``vl`` — in float
      arithmetic too, since rounding is monotone — and smallest near
      ``vl* = v + (a − b) / (2·delta)``.  The four grid points from
      ``floor(vl*) − 1``, clipped to the pairing range, are scored as
      the scalar kernel scores (``count·weight + error``, first minimum
      wins).  A minimum with a strictly worse score at each window edge
      that is not a range edge is, by quasi-convexity, the first minimum
      over the whole range.

    An entry neither rule settles (near the 2**52 grid limit, or when
    ``weight`` overflows) is left to the scalar kernel itself.  Pairs go
    in blocks of at most :data:`_MAX_BLOCK_CELLS` ``(pair, v)`` cells, so
    scratch memory stays bounded however many values come in.
    """
    batch, starts, stops = _leaf_domains(values, epsilon, delta)
    if len(batch) % 2:
        raise InvalidInputError("data pairs need an even number of values")
    lefts, rights = batch[0::2], batch[1::2]
    left_lo, right_lo = starts[0::2], starts[1::2]
    left_hi, right_hi = stops[0::2], stops[1::2]
    # _combined_domain's ceil and floor of half sums, exact in int64.
    v_starts = (left_lo + right_lo + 1) // 2
    v_stops = (left_hi + right_hi) // 2
    if np.any(v_stops < v_starts):
        raise InfeasibleErrorBound(_EMPTY_DOMAIN)
    widths = v_stops - v_starts + 1
    weight = _lexicographic_weight(epsilon, delta)
    per_block = max(1, _MAX_BLOCK_CELLS // int(widths.max(initial=1)))

    rows: list[MRow] = []
    for begin in range(0, len(widths), per_block):
        # Pairs of this block run down axis 0, incoming values along axis 1.
        pairs = slice(begin, begin + per_block)
        a, b = lefts[pairs], rights[pairs]
        la, lb, ra, rb = left_lo[pairs], right_lo[pairs], left_hi[pairs], right_hi[pairs]
        block_widths = widths[pairs]
        v = v_starts[pairs, None] + np.arange(int(block_widths.max()), dtype=np.int64)
        in_row = np.arange(v.shape[1], dtype=np.int64) < block_widths[:, None]

        on_grid = v * delta
        zero = (v >= np.maximum(la, lb)[:, None]) & (v <= np.minimum(ra, rb)[:, None])
        counts = (~zero).astype(np.int32)
        errors = np.maximum(np.abs(on_grid - a[:, None]), np.abs(on_grid - b[:, None]))
        choices = v.copy()
        # A z = 0 entry is settled when it beats every paid score (>= weight).
        settled = ~in_row | (errors < weight)

        # The cells that pay for a coefficient, one candidate window each.
        pair, column = np.nonzero(in_row & ~zero)
        pv, pa, pb = v[pair, column], a[pair], b[pair]
        lo = np.maximum(la[pair], 2 * pv - rb[pair])
        hi = np.minimum(ra[pair], 2 * pv - lb[pair])
        # The two grid points around the continuous minimiser and one more
        # on each side: the first minimum then sits strictly inside the
        # window whenever float rounding is far below delta.
        center = np.floor(pv + (pa - pb) / (2.0 * delta)).astype(np.int64)
        window = center[:, None] + np.arange(-1, 3, dtype=np.int64)
        vl = np.minimum(np.maximum(window, lo[:, None]), hi[:, None])
        pair_errors = np.maximum(
            np.abs(vl * delta - pa[:, None]),
            np.abs((2 * pv[:, None] - vl) * delta - pb[:, None]),
        )
        scores = weight + pair_errors  # count 1: 1 * weight is exact
        best = np.argmin(scores, axis=1)
        picked = np.arange(len(best), dtype=np.int64)
        errors[pair, column] = pair_errors[picked, best]
        choices[pair, column] = vl[picked, best]
        settled[pair, column] = ((best > 0) | (vl[:, 0] == lo)) & (
            (scores[:, -1] > scores[picked, best]) | (vl[:, -1] == hi)
        )

        for i, j in zip(*np.nonzero(~settled)):
            left = _leaf_row(float(a[i]), int(la[i]), int(ra[i]), delta)
            right = _leaf_row(float(b[i]), int(lb[i]), int(rb[i]), delta)
            cell = int(v[i, j])
            count, error, choice = _combine_kernel_scalar(left, right, cell, cell, epsilon, delta)
            counts[i, j], errors[i, j], choices[i, j] = count[0], error[0], choice[0]

        for i, width in enumerate(block_widths.tolist()):
            rows.append(
                MRow(
                    start=int(v[i, 0]),
                    counts=counts[i, :width],
                    errors=errors[i, :width],
                    choices=choices[i, :width],
                )
            )
    return rows


def _exclusive_cumsum(sizes: NDArray[np.int64]) -> NDArray[np.int64]:
    """Offset of each ragged segment in the concatenation of all of them."""
    offsets = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return offsets


def _ragged_arange(sizes: NDArray[np.int64]) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """``(owner, rank)`` of every item of ragged segments of ``sizes`` items.

    ``owner`` is the segment of each item and ``rank`` its position in it.
    """
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rank = np.arange(len(owner), dtype=np.int64) - _exclusive_cumsum(sizes)[owner]
    return owner, rank


class _LevelSide:
    """One side (all left or all right child rows) of a block of nodes.

    Holds the rows' counts and errors as flat arrays with per-row
    ``offsets``, the per-row facts that decide which nodes the level
    kernel may batch, and two key arrays that turn every sublevel-set
    query into one ``searchsorted``.  ``lo_keys`` is ``row * _NODE_KEY``
    minus each entry's prefix minimum count and ``hi_keys`` is ``row *
    _NODE_KEY`` plus its suffix minimum: both ascend through the whole
    block, so the first entry of row ``r`` with count ``<= a`` and the
    last one are found for many ``(r, a)`` at once (:meth:`interval`).
    """

    def __init__(self, rows: Sequence[MRow]) -> None:
        size = len(rows)
        self.starts = np.array([row.start for row in rows], dtype=np.int64)
        self.widths = np.array([len(row) for row in rows], dtype=np.int64)
        self.offsets = _exclusive_cumsum(self.widths)
        raw = np.concatenate([row.counts for row in rows])
        self.errors = np.concatenate([row.errors for row in rows])
        self.count_min = np.minimum.reduceat(raw, self.offsets).astype(np.int64)
        self.count_max = np.maximum.reduceat(raw, self.offsets).astype(np.int64)
        error_min = np.minimum.reduceat(self.errors, self.offsets)
        self.error_max = np.maximum.reduceat(self.errors, self.offsets)
        # Clipped so that one row's keys cannot reach into its neighbours'.
        self.counts = np.clip(raw, 0, INFEASIBLE_COUNT).astype(np.int64)
        owner = np.repeat(np.arange(size, dtype=np.int64), self.widths)
        node_keys = owner * _NODE_KEY
        self.lo_keys = -np.minimum.accumulate(self.counts - node_keys)
        self.hi_keys = np.minimum.accumulate((self.counts + node_keys)[::-1])[::-1]
        # A peak is an entry above both its prefix and its suffix minimum;
        # a row without one is U-shaped, so its sublevel sets are intervals.
        peaks = (self.counts + self.lo_keys > node_keys) & (
            self.counts + node_keys > self.hi_keys
        )
        run_starts = np.ones(len(raw), dtype=bool)
        np.not_equal(self.counts[1:], self.counts[:-1], out=run_starts[1:])
        run_starts[self.offsets] = True
        self.run_keys = node_keys[run_starts] + self.counts[run_starts]
        self.runs = np.bincount(owner[run_starts], minlength=size)
        # Every entry feasible, every error finite and non-negative (NaN
        # fails both comparisons), every count a real one, no peak.
        self.usable = (
            (self.count_min >= 0)
            & (self.count_max < INFEASIBLE_COUNT)
            & (error_min >= 0.0)
            & (self.error_max < np.inf)
            & ~np.logical_or.reduceat(peaks, self.offsets)
        )

    def interval(
        self, owner: NDArray[np.int64], level: NDArray[np.int64]
    ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """First and last position in row ``owner`` whose count is ``<= level``."""
        keys = owner * _NODE_KEY
        base = self.offsets[owner]
        lo = np.searchsorted(self.lo_keys, keys - level) - base
        hi = np.searchsorted(self.hi_keys, keys + level, side="right") - 1 - base
        return lo, hi

    def levels(self, batched: NDArray[np.bool_]) -> tuple[
        NDArray[np.int64],
        NDArray[np.int64],
        NDArray[np.int64],
        NDArray[np.int64],
        NDArray[np.int64],
    ]:
        """Distinct counts of the ``batched`` rows, with their sublevel intervals.

        Returns ``(level, lo, hi, first, per_row)``: the levels sorted by
        row, then count; row ``r``'s run from index ``first[r]`` and hold
        ``per_row[r]`` of them (0 for rows not batched).
        """
        keys = np.unique(self.run_keys[batched[self.run_keys // _NODE_KEY]])
        owner = keys // _NODE_KEY
        level = keys - owner * _NODE_KEY
        lo, hi = self.interval(owner, level)
        per_row = np.bincount(owner, minlength=len(self.widths))
        return level, lo, hi, _exclusive_cumsum(per_row), per_row


def combine_level(
    lefts: Sequence[MRow], rights: Sequence[MRow], epsilon: float, delta: float
) -> list[MRow]:
    """Combine one error-tree level: node ``i`` joins ``lefts[i]`` and ``rights[i]``.

    Row ``i`` is ``combine_rows(lefts[i], rights[i])`` bit for bit, and a
    node whose combine fails raises the same error as the per-node loop
    would, from the same (lowest failing) node.  A level of fewer than
    :data:`_MIN_LEVEL_NODES` nodes runs :func:`combine_rows` per node;
    a larger one goes through :func:`_batch_level`.
    """
    if len(lefts) < _MIN_LEVEL_NODES:
        return [combine_rows(left, right, epsilon, delta) for left, right in zip(lefts, rights)]
    return _batch_level(lefts, rights, epsilon, delta)


def _batch_level(
    lefts: Sequence[MRow], rights: Sequence[MRow], epsilon: float, delta: float
) -> list[MRow]:
    """:func:`combine_level` through the level kernel, whatever the level's size.

    Most nodes run in one batched, exact pass over flat per-level arrays
    (:func:`_combine_block`), in blocks of at most
    :data:`_LEVEL_BLOCK_ENTRIES` combined-row entries, so scratch memory
    stays bounded however wide the level is; every node whose rows fall
    outside the batch's argument runs :func:`combine_rows`, in ascending
    node order.
    """
    rows: list[MRow | None] = [None] * len(lefts)
    weight = _lexicographic_weight(epsilon, delta)
    for block in _level_blocks(lefts, rights):
        settled = _combine_block(
            [lefts[node] for node in block], [rights[node] for node in block], weight
        )
        for node, row in zip(block, settled):
            rows[node] = row
    return [
        row if row is not None else combine_rows(left, right, epsilon, delta)
        for row, left, right in zip(rows, lefts, rights)
    ]


def _level_blocks(lefts: Sequence[MRow], rights: Sequence[MRow]) -> Iterator[list[int]]:
    """Nodes of a level in ascending blocks of at most ``_LEVEL_BLOCK_ENTRIES`` entries.

    A node whose combined domain is empty (it raises) or whose rows are
    empty (they have no count levels) joins no block: it is left to
    :func:`combine_rows`.  A node wider than the budget is a block alone.
    """
    block: list[int] = []
    entries = 0
    for node, (left, right) in enumerate(zip(lefts, rights)):
        wl, wr = len(left), len(right)
        # _combined_domain's ceil and floor of half sums, in integers.
        width = (left.start + right.start + wl + wr - 2) // 2 - (
            left.start + right.start + 1
        ) // 2 + 1
        if width < 1 or wl < 1 or wr < 1 or wl + wr >= _NODE_KEY:
            continue
        if block and entries + width > _LEVEL_BLOCK_ENTRIES:
            yield block
            block, entries = [], 0
        block.append(node)
        entries += width
    if block:
        yield block


def _combine_block(
    lefts: Sequence[MRow], rights: Sequence[MRow], weight: float
) -> list[MRow | None]:
    """The level kernel over one block: node ``i``'s row, or ``None`` if left out.

    Write ``P[v] = min(cl[vl] + cr[2v − vl])`` for the least pair count
    at incoming ``v``.  Every pairing but ``z = 0`` pays one coefficient,
    and a score ``count·weight + error`` ranks count first whenever the
    weight keeps consecutive counts apart in float64 (checked per node),
    so the row's entry is

    * ``z = 0`` itself when its pair count is ``P[v]`` — count ``P[v]``;
    * otherwise the first minimum score among the pairings of count
      ``P[v] + 1``: those of pair count ``P[v]``, and ``z = 0`` when its
      pair count is ``P[v] + 1``.  All share one count, so the float
      score is monotone in the error and only these cells are scored.

    ``P`` comes from count sublevel sets.  When both rows' counts are
    U-shaped (no peak), each set ``{count <= a}`` is an interval holding
    the row's minima, so the pairings of sum ``<= t`` reach exactly the
    ``v`` with ``2v`` between the least lower and the greatest upper
    interval sum of the level pairs ``(a, b)`` with ``a + b <= t``.
    Sorting a node's level pairs by sum, a running min and max of those
    interval sums and two ``searchsorted`` calls give ``P`` for every
    entry.  A pairing of pair count ``P`` needs ``cl <= P − min cr`` and
    ``cr <= P − min cl``: one interval of ``vl`` per entry, the only
    cells scored.

    A node is left out (``None``) unless both rows are U-shaped, wholly
    feasible (finite non-negative errors), within :data:`_MAX_RUN_PAIRS`
    count-run pairs, and its weight exceeds the largest error by more
    than float64 rounding of the largest score.
    """
    left = _LevelSide(lefts)
    right = _LevelSide(rights)
    # Rounding of fl(fl(c·w) + e) stays below 2**-51 · (c + 1) · w for
    # 0 <= e < w, so count c + 1 scores above any error at count c when
    # the weight beats the largest error by this much (with room to spare).
    apart = weight - np.maximum(left.error_max, right.error_max) > (
        2.0**-50 * (left.count_max + right.count_max + 2) * weight
    )
    batched = left.usable & right.usable & apart & (left.runs * right.runs <= _MAX_RUN_PAIRS)
    out: list[MRow | None] = [None] * len(lefts)
    if not batched.any():
        return out

    # Level pairs of every batched node, sorted by (node, pair count).
    left_level, left_lo, left_hi, left_first, left_levels = left.levels(batched)
    right_level, right_lo, right_hi, right_first, right_levels = right.levels(batched)
    pair_owner, rank = _ragged_arange(left_levels * right_levels)
    across = right_levels[pair_owner]
    li = left_first[pair_owner] + rank // across
    ri = right_first[pair_owner] + rank % across
    pair_keys = pair_owner * _NODE_KEY
    order = np.argsort(pair_keys + left_level[li] + right_level[ri])
    li, ri = li[order], ri[order]
    pair_counts = left_level[li] + right_level[ri]
    # Both key arrays ascend through the block (see _LevelSide).
    reach_lo = -np.minimum.accumulate(left_lo[li] + right_lo[ri] - pair_keys)
    reach_hi = np.maximum.accumulate(left_hi[li] + right_hi[ri] + pair_keys)

    # Every entry v of every batched node; x = 2v − (left start + right start).
    v_start = (left.starts + right.starts + 1) // 2
    v_stop = (left.starts + right.starts + left.widths + right.widths - 2) // 2
    widths = np.where(batched, v_stop - v_start + 1, 0)
    owner, rank = _ragged_arange(widths)
    v = v_start[owner] + rank
    x = 2 * v - (left.starts + right.starts)[owner]
    keys = owner * _NODE_KEY
    least = pair_counts[
        np.maximum(np.searchsorted(reach_lo, keys - x), np.searchsorted(reach_hi, keys + x))
    ]

    # z = 0: vl = vr = v, when v lies in both rows.
    zl = v - left.starts[owner]
    zr = v - right.starts[owner]
    inside = (zl >= 0) & (zl < left.widths[owner]) & (zr >= 0) & (zr < right.widths[owner])
    at_left = left.offsets[owner] + np.clip(zl, 0, left.widths[owner] - 1)
    at_right = right.offsets[owner] + np.clip(zr, 0, right.widths[owner] - 1)
    zero_counts = left.counts[at_left] + right.counts[at_right]
    zero_errors = np.maximum(left.errors[at_left], right.errors[at_right])
    settled = inside & (zero_counts == least)
    ties = inside & (zero_counts == least + 1)
    counts = (least + ~settled).astype(np.int32)
    errors = zero_errors.copy()
    choices = v.copy()

    # The rest score the band where a pairing can still reach pair count
    # least: cl <= least - min cr and cr <= least - min cl.
    pending = np.flatnonzero(~settled)
    p_owner, p_least, p_x = owner[pending], least[pending], x[pending]
    band_lo, band_hi = left.interval(p_owner, p_least - right.count_min[p_owner])
    right_lo, right_hi = right.interval(p_owner, p_least - left.count_min[p_owner])
    band_lo = np.maximum(band_lo, p_x - right_hi)
    cells = np.minimum(band_hi, p_x - right_lo) - band_lo + 1
    # Flat position of each band's first cell in both rows; as vl ascends
    # through the band, the right position descends.
    left_at = left.offsets[p_owner] + band_lo
    right_at = right.offsets[p_owner] + p_x - band_lo
    paid = (p_least + 1) * weight
    reached = np.cumsum(cells)
    begin = 0
    while begin < len(pending):
        done = int(reached[begin - 1]) if begin else 0
        stop = max(
            begin + 1, int(np.searchsorted(reached, done + _LEVEL_BLOCK_CELLS, side="right"))
        )
        chunk = slice(begin, stop)
        sizes = cells[chunk]
        first = _exclusive_cumsum(sizes)
        step = np.arange(int(reached[stop - 1]) - done, dtype=np.int64)
        at_left = np.repeat(left_at[chunk] - first, sizes) + step
        at_right = np.repeat(right_at[chunk] + first, sizes) - step
        cell_errors = np.maximum(left.errors[at_left], right.errors[at_right])
        # The windowed kernel's score of a paid pairing.  Cells of a larger
        # pair count (vl = v among them) score above every cell of count
        # least, so they never win.
        scores = (left.counts[at_left] + right.counts[at_right] + 1) * weight + cell_errors
        # First minimum of every band: the smallest vl wins ties.
        low = np.minimum.reduceat(scores, first)
        hits = np.flatnonzero(scores == np.repeat(low, sizes))
        pick = hits[np.searchsorted(hits, first)]
        vl = band_lo[chunk] + pick - first
        entries = pending[chunk]
        # z = 0 competes when its pair count is least + 1.
        zero_scores = paid[chunk] + zero_errors[entries]
        zero = ties[entries] & (
            (zero_scores < low) | ((zero_scores == low) & (zl[entries] < vl))
        )
        errors[entries] = np.where(zero, zero_errors[entries], cell_errors[pick])
        choices[entries] = np.where(zero, v[entries], left.starts[p_owner[chunk]] + vl)
        begin = stop

    firsts = _exclusive_cumsum(widths)
    for node in np.flatnonzero(batched).tolist():
        entry = slice(int(firsts[node]), int(firsts[node] + widths[node]))
        out[node] = MRow(
            start=int(v_start[node]),
            counts=counts[entry],
            errors=errors[entry],
            choices=choices[entry],
        )
    return out


def _run_levels(
    level: Sequence[MRow],
    epsilon: float,
    delta: float,
    rows: list[MRow | None] | None = None,
) -> list[MRow | None]:
    """Walk a sub-tree level by level, bottom-up, one :func:`combine_level` each.

    Node ``j`` of a level combines the rows of nodes ``2j`` and ``2j + 1``
    from the level below, so infeasibility deterministically surfaces
    from the lowest node index of the lowest failing level.  ``level`` is
    the sub-tree's leaf rows, or — when ``rows`` is given — its bottom
    combine level, already stored in ``rows`` (:func:`data_pair_rows`).
    """
    if rows is None:
        m = len(level)
        if not is_power_of_two(m):
            raise InvalidInputError("leaf count must be a power of two")
        if m == 1:
            # Degenerate sub-tree: no internal coefficient nodes.
            return [level[0]]
        rows = [None] * m
    level = list(level)
    size = len(level) // 2
    while size >= 1:
        level = combine_level(level[0::2], level[1::2], epsilon, delta)
        rows[size : 2 * size] = level
        size //= 2
    sanitizer = sanitizer_current()
    if sanitizer is not None:
        # The sanitizer sorts kernel digests at report time, so the order
        # in which sub-trees are observed cannot matter.
        sanitizer.observe_kernel_rows(rows)
    return rows


def compute_subtree_rows(
    leaf_rows: list[MRow],
    epsilon: float,
    delta: float,
) -> list[MRow | None]:
    """Run the DP bottom-up over a complete sub-tree of ``m`` leaves.

    ``leaf_rows[i]`` is the row of the ``i``-th leaf — a lower sub-tree's
    root row in the distributed framework.  Returns ``rows`` indexed by
    local node (``rows[0]`` unused, ``rows[1]`` is the local root's
    M-row).  A sub-tree over data values goes through
    :func:`compute_data_subtree_rows` instead.
    """
    return _run_levels(leaf_rows, epsilon, delta)


def compute_data_subtree_rows(
    values: ArrayLike, epsilon: float, delta: float
) -> list[MRow | None]:
    """:func:`compute_subtree_rows` over the leaf rows of ``values``.

    Same rows, same errors, without building a leaf row: the bottom level
    comes from :func:`data_pair_rows`, and the levels above from the same
    :func:`_run_levels` walk (and sanitizer hook) from level ``m / 4`` up.
    """
    batch = np.asarray(values, dtype=np.float64)
    m = batch.shape[0]
    if not is_power_of_two(m):
        raise InvalidInputError("leaf count must be a power of two")
    if m == 1:
        return [leaf_rows(batch, epsilon, delta)[0]]
    pairs = data_pair_rows(batch, epsilon, delta)
    rows: list[MRow | None] = [None] * (m // 2)
    rows += pairs
    return _run_levels(pairs, epsilon, delta, rows)


def traceback_subtree(
    rows: list[MRow | None], root_incoming: int, delta: float
) -> tuple[dict[int, float], list[int]]:
    """Walk a sub-tree's rows top-down from a chosen incoming value.

    Returns ``(assignments, leaf_incomings)``: the non-zero coefficient
    values selected inside the sub-tree (keyed by *local* node index) and
    the incoming grid index delivered to each of the ``m`` leaves — which
    the distributed framework forwards to the next layer down.
    """
    m = len(rows)
    if m == 1:
        return {}, [root_incoming]
    assignments: dict[int, float] = {}
    leaf_incomings = [0] * m
    stack = [(1, root_incoming)]
    while stack:
        node, v = stack.pop()
        row = rows[node]
        vl = int(row.choices[v - row.start])
        vr = 2 * v - vl
        if vl != v:
            assignments[node] = (vl - v) * delta
        if 2 * node < m:
            stack.append((2 * node, vl))
            stack.append((2 * node + 1, vr))
        else:
            leaf_incomings[2 * node - m] = vl
            leaf_incomings[2 * node + 1 - m] = vr
    return assignments, leaf_incomings


def finalize_root(row: MRow, epsilon: float, delta: float) -> tuple[int, float, int]:
    """Choose the overall-average coefficient ``c_0``.

    The incoming value of the top detail node equals the value assigned at
    ``c_0`` (zero if ``c_0`` is dropped).  Returns
    ``(total_count, achieved_error, chosen_grid_index)``.
    """
    weight = _lexicographic_weight(epsilon, delta)
    counts = row.counts.astype(np.int64) + 1
    if row.start <= 0 <= row.end:
        counts[0 - row.start] -= 1  # dropping c_0 entirely
    scores = counts * weight + row.errors
    best = int(np.argmin(scores))
    return int(counts[best]), float(row.errors[best]), row.start + best


def min_haar_space(
    data: ArrayLike,
    epsilon: float,
    delta: float,
    rho: float = 0.0,
) -> DualSolution:
    """Centralized MinHaarSpace: minimum-size synopsis with error <= epsilon.

    Raises :class:`InfeasibleErrorBound` when the quantized search space
    admits no solution (callers such as IndirectHaar treat this as
    "epsilon too small" and search upward).

    ``rho > 0`` selects the approximate tier: the DP runs at the
    coarsened :func:`approx_params` grid, returning a synopsis of at most
    the exact solver's size with ``max_error <= (1 + rho) * epsilon``
    (``rho = 0`` is bit-identical to the exact path).
    """
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or not is_power_of_two(values.shape[0]):
        raise InvalidInputError("data length must be a power of two")
    n = int(values.shape[0])
    epsilon_dp, delta = approx_params(epsilon, delta, n, rho)

    rows = compute_data_subtree_rows(values, epsilon_dp, delta)
    root_row = rows[1] if n > 1 else rows[0]
    assert root_row is not None
    size, error, chosen = finalize_root(root_row, epsilon_dp, delta)

    coefficients: dict[int, float] = {}
    if chosen != 0:
        coefficients[0] = chosen * delta
    if n > 1:
        assignments, _ = traceback_subtree(rows, chosen, delta)
        coefficients.update(assignments)

    synopsis = WaveletSynopsis(
        n=n,
        coefficients=coefficients,
        meta={
            "algorithm": "MinHaarSpace",
            "epsilon": epsilon,
            "delta": delta,
            "rho": rho,
            "max_abs_error": error,
        },
    )
    return DualSolution(size=size, max_error=error, synopsis=synopsis, epsilon=epsilon)
