"""GreedyAbs: one-pass greedy thresholding for maximum *absolute* error.

Reimplementation of Karras & Mamoulis (VLDB'05) as described in
Section 5.1 of the paper.  The algorithm repeatedly discards the
coefficient whose removal incurs the smallest *maximum potential absolute
error* ``MA_k`` (Eq. 7/8), maintaining for every internal node only four
quantities — the max/min signed errors of its left and right leaf sets —
and a min-priority queue over the ``MA`` values.

Because the maximum absolute error is not monotone under removals, the
algorithm keeps discarding past the budget ``B`` and returns the best of
the last ``B + 1`` states (end of Section 5.1).

The same engine runs in three roles for the distributed algorithm
(Section 5.2):

* the whole error tree (centralized GreedyAbs),
* a *base sub-tree* seeded with a uniform incoming error,
* the *root sub-tree* over one virtual leaf per base sub-tree.

All three are complete binary trees over ``m`` leaves with coefficient
slots ``1 .. m-1`` (plus the overall average in slot ``0`` when the tree
is the whole decomposition), which is exactly what
:class:`GreedyAbsTree` models.

Vectorization (see docs/ALGORITHMS.md, "Complexity and vectorization")
----------------------------------------------------------------------
The four quantities of Eq. 8 are stored as one *doubled* segment tree:
``smax[j]`` holds the max signed leaf error under tree node ``j`` and
``sneg[j]`` the max *negated* leaf error (i.e. ``-min``) for
``j in [1, 2m)``, leaves at ``[m, 2m)``.  Node ``k``'s ``max_left`` is
then simply ``smax[2k]``, its ``-min_right`` is ``sneg[2k + 1]``, and
both arrays aggregate with the *same* pairwise-max operation.  Storing
the negated minima also collapses Eq. 8 to

    ``MA_j = max(max(Lmax, Rneg) - c_j, max(Rmax, Lneg) + c_j)``

which is bit-exact to the reference four-``abs`` form because IEEE-754
``max`` is associative and ``x - c`` is monotone in ``x`` (so ``max``
commutes with shifting both operands by the same constant).

In the array layout the descendants of ``k`` at depth ``d`` form the
contiguous slice ``[k << d, (k + 1) << d)``, so a removal processes its
dirtied sub-tree level by level, *deepest first*: each level's ±c shift
and its MA recomputation (which reads the already-processed level below)
fuse into one pass of numpy slice ops — or one scalar memoryview loop on
narrow levels, where interpreter arithmetic beats numpy's per-call
dispatch.  Leaf entries carry a single signed error, so only ``smax`` is
maintained in the leaf region and leaf minima read through ``smax``.
The ancestor chain — inherently sequential — walks memoryviews carrying
the path child's fresh aggregates in locals, so each ancestor costs one
sibling read, two writes, and (while alive) one 5-op MA update; the
root values it ends with give ``error_after`` for free.

Dirtied priorities enter a *lazy* ``heapq``-based queue of packed
integer keys ``(float64_bits(MA) << id_bits) | node``: because
``MA >= 0``, IEEE-754 bit patterns order exactly like the floats, so the
packed order is exactly the ``(priority, node)`` order of the scalar
reference engine's addressable heap (``-0.0`` is normalized to ``+0.0``,
which every float comparison treats as equal).  A key is pushed only
when a node's ``MA`` drops below its lowest enqueued key, stale entries
are re-validated against the node's current ``MA`` at pop time, and the
queue is rebuilt from the alive nodes' current MAs once stale entries
dominate — none of which can reorder the valid pops.  The queue and the
discard loop live in :class:`GreedyEngine`, which the relative-error
engine (:mod:`repro.algos.greedy_rel`) shares.

Every arithmetic step mirrors the reference engine
(:mod:`repro.algos.reference`) value-for-value — IEEE-754 double
rounding is deterministic and ``np.maximum`` agrees with Python's
``max`` on finite floats — so the two engines emit identical removal
sequences, differential-tested under Hypothesis.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heappushpop
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform, is_power_of_two

__all__ = ["Removal", "GreedyRun", "GreedyEngine", "GreedyAbsTree", "greedy_abs",
           "greedy_abs_order"]

#: Level width below which the memoryview scalar path beats numpy's
#: per-call dispatch overhead (tuned via benchmarks/bench_greedy_kernel.py).
_SCALAR_LEVEL_CUTOFF = 32


class Removal(NamedTuple):
    """One discard step: which node went, and the tree-wide error after."""

    node: int
    value: float
    error_after: float


@dataclass
class GreedyRun:
    """The full removal sequence of one greedy execution."""

    removals: list[Removal]
    initial_error: float

    def error_at_step(self, step: int) -> float:
        """Tree-wide max error after ``step`` removals (0 = none)."""
        if step == 0:
            return self.initial_error
        return self.removals[step - 1].error_after

    def best_cut(self, budget: int) -> tuple[int, float]:
        """Pick the best of the last ``budget + 1`` states.

        Returns ``(step, error)`` where the synopsis keeps everything
        removed *after* ``step``.  Ties prefer the smaller synopsis.
        """
        total = len(self.removals)
        first = max(0, total - budget)
        best_step, best_error = first, self.error_at_step(first)
        for step in range(first + 1, total + 1):
            error = self.error_at_step(step)
            if error <= best_error:
                best_step, best_error = step, error
        return best_step, best_error


def _packed_keys(
    priorities: NDArray[np.float64], ids: Iterable[int], id_bits: int
) -> list[int]:
    """Queue keys ``(float64_bits(priority) << id_bits) | id``, as Python ints.

    The shift must not run in numpy: an int64 shift by ``id_bits`` wraps
    for every positive double, and a wrapped key never equals the key
    the discard loop computes for the same node.
    """
    bits = (priorities + 0.0).view(np.int64).tolist()
    return [(b << id_bits) | i for b, i in zip(bits, ids)]


class GreedyEngine:
    """The lazy min-queue and discard loop both greedy engines share.

    A subclass fills ``_ma_arr`` with every node's potential error (MA
    for :class:`GreedyAbsTree`, MR for
    :class:`~repro.algos.greedy_rel.GreedyRelTree`), calls
    :meth:`_init_queue`, and supplies the metric's own maintenance:
    :meth:`current_error`, ``_remove_detail(k, c)`` and
    ``_remove_average(c)``.  Each removal hook returns the tree-wide
    error after the removal, writes the refreshed potential errors of
    the nodes it dirtied into ``_ma_arr``, and re-keys them: one
    ``heappush`` at a time on its scalar paths, or :meth:`_rekey` over a
    refreshed id range.
    """

    m: int
    _ma_arr: NDArray[np.float64]

    def current_error(self) -> float:
        """Tree-wide maximum error of the running synopsis."""
        raise NotImplementedError

    def _remove_detail(self, k: int, c: float, /) -> float:
        raise NotImplementedError

    def _remove_average(self, c: float, /) -> float:
        raise NotImplementedError

    def _init_queue(self, coefficients: NDArray[np.float64], include_average: bool) -> None:
        """Set up the alive set and the queue over the filled ``_ma_arr``."""
        m = self.m
        ma = self._ma_arr
        self._alive = alive = np.ones(m, dtype=bool)
        alive[0] = include_average
        self._alive_count = (m - 1) + (1 if include_average else 0)

        # Scalar hot paths go through memoryviews: they share the numpy
        # buffers but index at Python-list speed.
        self._vcoef = memoryview(coefficients)
        self._vma = memoryview(ma)
        self._valive = memoryview(alive)

        # One float64 cell viewed as int64: writing _packf[0] = v makes
        # _packi[0] the sortable IEEE bit pattern of v (v >= 0).
        pack_cell = np.empty(1, dtype=np.float64)
        self._packf = memoryview(pack_cell)
        self._packi = memoryview(pack_cell.view(np.int64))
        self._id_bits = id_bits = max(20, m.bit_length())
        self._id_mask = (1 << id_bits) - 1

        # Lazy min-queue of packed (priority-bits, node) keys.  Invariant:
        # every alive node has an entry keyed at _minstored[node] <= its
        # true priority, so the first pop whose key matches the node's
        # current priority is the true minimum under the deterministic
        # (priority, node-id) order of the reference engines' heap.
        self._minstored = ma.copy()
        self._vms = memoryview(self._minstored)
        start = 0 if include_average else 1
        keys = _packed_keys(ma[start:], range(start, m), id_bits)
        heapify(keys)
        self._heap = keys
        self._push_mask = np.empty(m, dtype=bool)

    def _rekey(self, a: int, b: int) -> None:
        """Queue the refreshed ``_ma_arr[a:b]`` where it undercuts a key.

        The batched analogue of one ``heap.update`` per dirtied node: a
        new key enters the queue only where it undercuts the node's
        lowest enqueued key (and the node is alive).
        """
        ma_seg = self._ma_arr[a:b]
        mask = self._push_mask[: b - a]
        np.less(ma_seg, self._minstored[a:b], out=mask)
        mask &= self._alive[a:b]
        idx = mask.nonzero()[0]
        if idx.size:
            vms = self._vms
            heap = self._heap
            vals = ma_seg[idx]
            ids = (idx + a).tolist()
            keys = _packed_keys(vals, ids, self._id_bits)
            for i, v, key in zip(ids, vals.tolist(), keys):
                vms[i] = v
                heappush(heap, key)

    def run_to_exhaustion(self) -> GreedyRun:
        """Discard every node; return the ordered removal sequence.

        Each step pops the queue until a key matches its node's current
        priority: dead nodes' entries are dropped, a stale-low entry (the
        priority rose since it was pushed) is re-inserted at the current
        key in one sift, and a stale-high one is skipped because a lower
        entry for the node is still queued.  When stale entries far
        outnumber alive nodes the heap is rebuilt with one exact key per
        alive node at its *current* priority.  A rebuilt key pops exactly
        where the node's lowest prior entry would have validated or
        re-inserted to, so the valid pop sequence, and hence the removal
        sequence, is unchanged.
        """
        initial = self.current_error()
        removals = []
        append = removals.append
        valive = self._valive
        vma = self._vma
        vms = self._vms
        vcoef = self._vcoef
        packf = self._packf
        packi = self._packi
        id_bits = self._id_bits
        id_mask = self._id_mask
        remove_detail = self._remove_detail
        remove_average = self._remove_average
        new = tuple.__new__
        cls = Removal
        alive = self._alive_count
        heap = self._heap
        while alive:
            if len(heap) > 4 * alive + 4096:
                ids = self._alive.nonzero()[0]
                vals = self._ma_arr[ids] + 0.0
                self._minstored[ids] = vals
                heap = _packed_keys(vals, ids.tolist(), id_bits)
                heapify(heap)
                self._heap = heap
            key = heappop(heap)
            while True:
                k = key & id_mask
                if not valive[k]:
                    key = heappop(heap)
                    continue
                packf[0] = vma[k] + 0.0
                current_key = (packi[0] << id_bits) | k
                if key == current_key:
                    break
                if key < current_key:
                    vms[k] = vma[k]
                    key = heappushpop(heap, current_key)
                else:
                    key = heappop(heap)
            value = vcoef[k]
            valive[k] = False
            alive -= 1
            self._alive_count = alive
            if k:
                error_after = remove_detail(k, value)
            else:
                error_after = remove_average(value)
            append(new(cls, (k, value, error_after)))
        return GreedyRun(removals=removals, initial_error=initial)


class GreedyAbsTree(GreedyEngine):
    """Greedy discard engine over one complete error (sub-)tree.

    Parameters
    ----------
    coefficients:
        Array of length ``m`` (a power of two).  Slot ``j`` for
        ``1 <= j < m`` is the detail coefficient of local node ``j``;
        slot ``0`` is the overall average, used only when
        ``include_average`` is True (base sub-trees have no average slot).
    initial_errors:
        Signed accumulated error ``err_i`` per leaf before any local
        removal — the *incoming error* a base sub-tree inherits from
        discarded ancestors (Section 5.2).  Defaults to all zeros.
    include_average:
        Whether slot 0 participates (True for whole decompositions).

    ``coefficients`` and the error aggregates ``smax``/``sneg`` are
    contiguous float64 ndarrays; the four quantities of the scalar
    formulation are the views ``max_left == smax[2j]``,
    ``-min_right == sneg[2j + 1]``, and so on.  The leaf region
    ``[m, 2m)`` is maintained in ``smax`` only (a leaf's min equals its
    max); ``sneg[m:]`` is valid at construction and never updated.
    """

    def __init__(
        self,
        coefficients: ArrayLike,
        initial_errors: ArrayLike | None = None,
        include_average: bool = True,
    ) -> None:
        coeffs = np.array(coefficients, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or not is_power_of_two(coeffs.shape[0]):
            raise InvalidInputError("coefficient array length must be a power of two")
        self.m = m = int(coeffs.shape[0])
        self.coefficients = coeffs
        self.include_average = include_average

        if initial_errors is None:
            errors = np.zeros(m, dtype=np.float64)
        else:
            errors = np.array(initial_errors, dtype=np.float64, copy=True)
            if errors.ndim != 1 or errors.shape[0] != m:
                raise InvalidInputError("initial_errors length must equal tree size")

        self.smax = smax = np.zeros(2 * m, dtype=np.float64)
        self.sneg = sneg = np.zeros(2 * m, dtype=np.float64)
        smax[m:] = errors
        np.negative(errors, out=sneg[m:])
        a = m
        while a > 1:
            a >>= 1
            b = 2 * a
            left = slice(b, 2 * b, 2)
            right = slice(b + 1, 2 * b, 2)
            np.maximum(smax[left], smax[right], out=smax[a:b])
            np.maximum(sneg[left], sneg[right], out=sneg[a:b])

        # Priorities.  _ma_arr[j] is the live MA of node j while alive;
        # stale once removed (pops check _alive first).
        self._ma_arr = ma = np.zeros(m, dtype=np.float64)
        if m > 1:
            c = coeffs[1:]
            a_side = np.maximum(smax[2::2], sneg[3::2])
            b_side = np.maximum(smax[3::2], sneg[2::2])
            np.maximum(a_side - c, b_side + c, out=ma[1:])
        if include_average:
            c0 = coeffs[0]
            ma[0] = max(smax[1] - c0, sneg[1] + c0)
        self._init_queue(coeffs, include_average)
        self._vmax = memoryview(smax)
        self._vneg = memoryview(sneg)
        self._scratch1 = np.empty(m, dtype=np.float64)
        self._scratch2 = np.empty(m, dtype=np.float64)

    def current_error(self) -> float:
        """Tree-wide maximum absolute error of the running synopsis."""
        v = self._vmax[1]
        if self.m == 1:
            return v if v >= 0.0 else -v
        return max(v, self._vneg[1])

    # -- removal ----------------------------------------------------------

    def _remove_average(self, c: float) -> float:
        m = self.m
        vmax = self._vmax
        if m == 1:
            v = vmax[1] - c
            vmax[1] = v
            return v if v >= 0.0 else -v
        # Every leaf error shifts by -c, hence every max aggregate drops
        # by c and every negated-min aggregate rises by c; every alive
        # node's MA is refreshed in one pass.
        if m <= 2 * _SCALAR_LEVEL_CUTOFF:
            vneg = self._vneg
            for j in range(1, m):
                vmax[j] = vmax[j] - c
                vneg[j] = vneg[j] + c
            for j in range(m, 2 * m):
                vmax[j] = vmax[j] - c
            self._scalar_ma_refresh(1, m)
        else:
            half = m >> 1
            self.smax[1:] -= c
            self.sneg[1:m] += c
            self._vector_ma_refresh(1, half)
            self._vector_ma_refresh(half, m)
        return max(vmax[1], self._vneg[1])

    def _remove_detail(self, k: int, c: float) -> float:
        m = self.m
        vmax = self._vmax
        vneg = self._vneg
        valive = self._valive
        vma = self._vma
        vms = self._vms
        vcoef = self._vcoef
        heap = self._heap
        packf = self._packf
        packi = self._packi
        id_bits = self._id_bits
        half = m >> 1
        left = 2 * k
        right = left + 1

        if left >= m:
            # Height-1 node: its children are the two leaf entries — one
            # fused shift (smax only) that also yields k's new aggregates.
            xl = vmax[left] - c
            xr = vmax[right] + c
            vmax[left] = xl
            vmax[right] = xr
            if xl >= xr:
                cx = xl
                cg = -xr
            else:
                cx = xr
                cg = -xl
        else:
            # Sub-tree shifts: everything under k's left child moves by
            # -c, everything under the right child by +c (Section 5.1).
            # Level t below k is the contiguous block
            # [k << t+1, (k + 1) << t+1), halves descending from 2k and
            # 2k + 1.  Levels run DEEPEST FIRST so each interior level's
            # MA refresh (which reads children one level down) fuses into
            # the same pass as its shift.
            smax = self.smax
            sneg = self.sneg
            a = left
            w = 1
            while a < m:
                a <<= 1
                w <<= 1
            # Leaf level: only smax is maintained for leaf entries.
            mid = a + w
            if w <= 8:
                for j in range(a, mid):
                    vmax[j] = vmax[j] - c
                for j in range(mid, mid + w):
                    vmax[j] = vmax[j] + c
            else:
                smax[a:mid] -= c
                smax[mid : mid + w] += c
            a >>= 1
            w >>= 1
            # Interior levels, fused shift + MA refresh.
            while a >= left:
                mid = a + w
                b = mid + w
                if w <= _SCALAR_LEVEL_CUTOFF:
                    lf = a >= half
                    for j in range(a, mid):
                        vmax[j] = vmax[j] - c
                        vneg[j] = vneg[j] + c
                        if valive[j]:
                            cj = vcoef[j]
                            jl = j + j
                            jr = jl + 1
                            xl = vmax[jl]
                            xr = vmax[jr]
                            if lf:
                                gl = -xl
                                gr = -xr
                            else:
                                gl = vneg[jl]
                                gr = vneg[jr]
                            hi = (xl if xl >= gr else gr) - cj
                            t = (xr if xr >= gl else gl) + cj
                            if t > hi:
                                hi = t
                            vma[j] = hi
                            if hi < vms[j]:
                                vms[j] = hi
                                packf[0] = hi + 0.0
                                heappush(heap, (packi[0] << id_bits) | j)
                    for j in range(mid, b):
                        vmax[j] = vmax[j] + c
                        vneg[j] = vneg[j] - c
                        if valive[j]:
                            cj = vcoef[j]
                            jl = j + j
                            jr = jl + 1
                            xl = vmax[jl]
                            xr = vmax[jr]
                            if lf:
                                gl = -xl
                                gr = -xr
                            else:
                                gl = vneg[jl]
                                gr = vneg[jr]
                            hi = (xl if xl >= gr else gr) - cj
                            t = (xr if xr >= gl else gl) + cj
                            if t > hi:
                                hi = t
                            vma[j] = hi
                            if hi < vms[j]:
                                vms[j] = hi
                                packf[0] = hi + 0.0
                                heappush(heap, (packi[0] << id_bits) | j)
                else:
                    smax[a:mid] -= c
                    sneg[a:mid] += c
                    smax[mid:b] += c
                    sneg[mid:b] -= c
                    self._vector_ma_refresh(a, b)
                a >>= 1
                w >>= 1
            cx = vmax[left]
            t = vmax[right]
            if t > cx:
                cx = t
            cg = vneg[left]
            t = vneg[right]
            if t > cg:
                cg = t

        vmax[k] = cx
        vneg[k] = cg
        # Ancestor chain.  Each ancestor has exactly one child on the
        # path from k (the sibling sub-tree is untouched), so its
        # aggregates are the pairwise max of the path child's fresh
        # values — carried in the locals cx/cg — and one sibling read.
        child = k
        while child > 1:
            q = child >> 1
            sib = child ^ 1
            sx = vmax[sib]
            sg = vneg[sib]
            nmax = sx if sx >= cx else cx
            nneg = sg if sg >= cg else cg
            vmax[q] = nmax
            vneg[q] = nneg
            if valive[q]:
                cq = vcoef[q]
                if child & 1:
                    # Path child is the right child: L = sibling, R = path.
                    hi = (sx if sx >= cg else cg) - cq
                    t = (cx if cx >= sg else sg) + cq
                else:
                    hi = (cx if cx >= sg else sg) - cq
                    t = (sx if sx >= cg else cg) + cq
                if t > hi:
                    hi = t
                vma[q] = hi
                if hi < vms[q]:
                    vms[q] = hi
                    packf[0] = hi + 0.0
                    heappush(heap, (packi[0] << id_bits) | q)
            cx = nmax
            cg = nneg
            child = q
        # cx/cg now hold the root aggregates: refresh the average slot
        # (its MA reads only those) and report the tree-wide error.
        if self.include_average and valive[0]:
            c0 = vcoef[0]
            ma0 = cx - c0
            t = cg + c0
            if t > ma0:
                ma0 = t
            vma[0] = ma0
            if ma0 < vms[0]:
                vms[0] = ma0
                packf[0] = ma0 + 0.0
                heappush(heap, packi[0] << id_bits)
        return cx if cx >= cg else cg

    def _scalar_ma_refresh(self, a: int, b: int) -> None:
        """Recompute MA for alive nodes in ``[a, b)`` (children current)."""
        half = self.m >> 1
        vmax = self._vmax
        vneg = self._vneg
        valive = self._valive
        vma = self._vma
        vms = self._vms
        vcoef = self._vcoef
        heap = self._heap
        packf = self._packf
        packi = self._packi
        id_bits = self._id_bits
        for j in range(a, b):
            if valive[j]:
                cj = vcoef[j]
                jl = j + j
                jr = jl + 1
                xl = vmax[jl]
                xr = vmax[jr]
                if j >= half:
                    gl = -xl
                    gr = -xr
                else:
                    gl = vneg[jl]
                    gr = vneg[jr]
                hi = (xl if xl >= gr else gr) - cj
                t = (xr if xr >= gl else gl) + cj
                if t > hi:
                    hi = t
                vma[j] = hi
                if hi < vms[j]:
                    vms[j] = hi
                    packf[0] = hi + 0.0
                    heappush(heap, (packi[0] << id_bits) | j)

    def _vector_ma_refresh(self, a: int, b: int) -> None:
        """Recompute MA for the id range ``[a, b)`` in one numpy pass.

        The refreshed MAs are re-keyed through :meth:`_rekey`.  ``[a, b)``
        must not straddle the half-way point (children must be all
        interior or all leaves).
        """
        if b <= a:
            return
        smax = self.smax
        w = b - a
        cseg = self.coefficients[a:b]
        ma_seg = self._ma_arr[a:b]
        s1 = self._scratch1[:w]
        s2 = self._scratch2[:w]
        left = slice(2 * a, 2 * b, 2)
        right = slice(2 * a + 1, 2 * b, 2)
        if 2 * a >= self.m:
            # Children are leaf entries: negated minima read through smax.
            np.negative(smax[right], out=s1)
            np.maximum(smax[left], s1, out=s1)
            np.negative(smax[left], out=s2)
            np.maximum(smax[right], s2, out=s2)
        else:
            sneg = self.sneg
            np.maximum(smax[left], sneg[right], out=s1)
            np.maximum(smax[right], sneg[left], out=s2)
        np.subtract(s1, cseg, out=ma_seg)
        np.add(s2, cseg, out=s1)
        np.maximum(ma_seg, s1, out=ma_seg)
        self._rekey(a, b)

    def run_to_exhaustion(self) -> GreedyRun:
        # Kept in this class's own namespace: profilers wrap the method
        # through ``vars(GreedyAbsTree)`` (benchmarks/e2e/layers.py).
        return super().run_to_exhaustion()


def greedy_abs_order(
    coefficients: ArrayLike,
    initial_errors: ArrayLike | None = None,
    include_average: bool = True,
) -> GreedyRun:
    """Run the greedy engine to exhaustion over one (sub-)tree."""
    tree = GreedyAbsTree(coefficients, initial_errors, include_average)
    return tree.run_to_exhaustion()


def greedy_abs(data: ArrayLike, budget: int) -> WaveletSynopsis:
    """Centralized GreedyAbs: best max-abs synopsis within ``budget``.

    Computes the full decomposition, discards greedily until the tree is
    empty, and keeps the best of the last ``budget + 1`` coefficient sets.
    """
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    values = np.asarray(data, dtype=np.float64)
    coefficients = haar_transform(values)
    run = greedy_abs_order(coefficients)
    step, error = run.best_cut(budget)
    retained = {r.node: r.value for r in run.removals[step:]}
    return WaveletSynopsis(
        n=int(values.shape[0]),
        coefficients=retained,
        meta={"algorithm": "GreedyAbs", "budget": budget, "max_abs_error": error},
    )
