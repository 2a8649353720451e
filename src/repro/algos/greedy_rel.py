"""GreedyRel: greedy thresholding for maximum *relative* error.

The relative-error variant of GreedyAbs (Section 5.4).  The four-quantity
trick of Eq. 8 breaks here because the denominator ``max(|d_j|, S)`` of
Eq. 10 differs per leaf, so the maximum potential relative error ``MR_k``
is maintained through per-level *term trees* instead — the vectorized
equivalent of the candidate-set structures of the original GreedyRel
paper.

The engine mirrors :class:`repro.algos.greedy_abs.GreedyAbsTree` and runs
in the same three roles (whole tree, base sub-tree with incoming error,
root sub-tree) for the distributed DGreedyRel.

Vectorization (see docs/ALGORITHMS.md, "Complexity and vectorization")
----------------------------------------------------------------------
For tree level ``L`` every leaf ``i`` has exactly one owning node ``a``
(the level-``L`` ancestor of leaf ``i``), and ``MR_a`` is the maximum of
the *signed terms* ``p_i = (err_i - c_a) / den_i`` over ``a``'s left
leaves and ``(err_i + c_a) / den_i`` over its right leaves, in absolute
value.  The engine keeps, per level, a segment tree over those terms —
``tq[j]`` aggregating ``max p`` and ``tg[j]`` aggregating ``max -p``
under tree node ``j`` — so ``MR_a = max(tq[a], tg[a])`` is an O(1)
block-root read.  This is bit-exact to the reference's
``max |err ∓ c| / den`` scans because ``|x| / d == |x / d|`` for
IEEE-754 doubles (division rounds the magnitude independently of sign)
and ``max`` is exactly associative.

A removal of node ``k`` spanning ``s`` leaves then touches only its own
leaf range in each tree: descendant levels refresh all their blocks
inside the range in one reshape-broadcast pass per level; each ancestor
level refreshes the range with one uniform ``(err ± c_a) / den`` pass
(the range lies in a single half of the one dirtied block) followed by
an O(log) climb to the block root.  Two more trees of the same shape
over ``err / den`` and ``(err - c0) / den`` give ``current_error`` and
the average slot's ``MR`` as root reads, replacing the reference's full
O(m) scans per removal.  Total: O(s·log m) amortized element work per
removal instead of O(m); levels whose dirtied blocks are all dead are
skipped entirely, so late-run removals keep getting cheaper.

Because a rebuild always recomputes every leaf term of the range it
covers before aggregating, leaf terms need no persistence: all trees
share one leaf-term scratch buffer (``_lterm``), and the per-tree arrays
hold interior aggregates only.  Narrow updates run through memoryview
scalar loops that fuse the term computation with the first aggregation
level; wide ones run through numpy slice ops, exactly as in the abs
engine.

The lazy packed-integer queue (keys ``(float64_bits(MR) << id_bits) |
node``) and the discard loop are
:class:`~repro.algos.greedy_abs.GreedyEngine`'s, shared with
:class:`~repro.algos.greedy_abs.GreedyAbsTree`; they reproduce the
``(priority, node)`` pop order of the scalar reference engine's
addressable heap — differential-tested in
``tests/test_greedy_vectorized.py`` against
:class:`repro.algos.reference.ScalarGreedyRelTree`.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.algos.greedy_abs import GreedyEngine, GreedyRun
from repro.exceptions import InvalidInputError
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND, check_sanity_bound
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform, is_power_of_two

__all__ = ["GreedyRelTree", "greedy_rel", "greedy_rel_order"]

#: Removal span below which the memoryview scalar path beats numpy's
#: per-call dispatch overhead (tuned via benchmarks/bench_greedy_kernel.py).
_SCALAR_SPAN_CUTOFF = 32


class GreedyRelTree(GreedyEngine):
    """Greedy discard engine minimizing maximum relative error.

    Parameters
    ----------
    coefficients:
        Length-``m`` array; slot 0 is the overall average (see
        :class:`repro.algos.greedy_abs.GreedyAbsTree` for the layout).
    leaf_values:
        The ``m`` original data values under this (sub-)tree; they define
        the per-leaf denominators ``max(|d_i|, S)`` of Eq. 10.
    sanity_bound:
        The ``S > 0`` of Eq. 10.
    initial_errors:
        Incoming signed error per leaf (uniform for base sub-trees).
    include_average:
        Whether slot 0 participates.
    """

    def __init__(
        self,
        coefficients: ArrayLike,
        leaf_values: ArrayLike,
        sanity_bound: float = DEFAULT_SANITY_BOUND,
        initial_errors: ArrayLike | None = None,
        include_average: bool = True,
    ) -> None:
        coeffs = np.array(coefficients, dtype=np.float64, copy=True)
        leaves = np.asarray(leaf_values, dtype=np.float64)
        if coeffs.ndim != 1 or not is_power_of_two(coeffs.shape[0]):
            raise InvalidInputError("coefficient array length must be a power of two")
        if leaves.shape != coeffs.shape:
            raise InvalidInputError("leaf_values must have the same length as coefficients")
        check_sanity_bound(sanity_bound)

        self.m = m = int(coeffs.shape[0])
        self.coefficients = coeffs
        self.include_average = include_average
        self.denominators = den = np.maximum(np.abs(leaves), sanity_bound)
        if initial_errors is None:
            self.errors = err = np.zeros(m, dtype=np.float64)
        else:
            self.errors = err = np.array(initial_errors, dtype=np.float64, copy=True)
            if err.ndim != 1 or err.shape[0] != m:
                raise InvalidInputError("initial_errors length must equal tree size")

        #: Number of detail levels; level ``L`` holds nodes
        #: ``[1 << L, 2 << L)`` each spanning ``m >> L >= 2`` leaves.
        self._levels = levels = m.bit_length() - 1

        self._scratch2 = np.empty(max(m // 2, 1), dtype=np.float64)
        self._ma_arr = ma = np.zeros(m, dtype=np.float64)
        # Shared leaf-term scratch: slot m + i holds the current tree's
        # term for leaf i, valid only within one fill-and-rebuild pass.
        self._lterm = np.empty(2 * m, dtype=np.float64)

        # Current-error tree over u_i = err_i / den_i:
        # current_error == max(uq[1], ug[1]) == max |err_i| / den_i.
        self._uq = uq = np.empty(m, dtype=np.float64)
        self._ug = ug = np.empty(m, dtype=np.float64)
        if m > 1:
            np.divide(err, den, out=self._lterm[m:])
            self._rebuild_vec(uq, ug, 1, levels - 1, 0)

        # Per-level term trees; MR of a level-L node j is
        # max(tq[L][j], tg[L][j]).
        self._tq: list[np.ndarray] = []
        self._tg: list[np.ndarray] = []
        for L in range(levels):
            nb = 1 << L
            tq = np.empty(m, dtype=np.float64)
            tg = np.empty(m, dtype=np.float64)
            self._fill_level_terms(L, 0, m)
            self._tq.append(tq)
            self._tg.append(tg)
            self._rebuild_vec(tq, tg, 1, levels - 1, L)
            np.maximum(tq[nb : 2 * nb], tg[nb : 2 * nb], out=ma[nb : 2 * nb])

        # Average tree over w_i = (err_i - c0) / den_i; dead once slot 0
        # is removed (or absent).
        if include_average:
            c0 = coeffs[0]
            self._wq = wq = np.empty(m, dtype=np.float64)
            self._wg = wg = np.empty(m, dtype=np.float64)
            if m > 1:
                seg = self._lterm[m:]
                np.subtract(err, c0, out=seg)
                seg /= den
                self._rebuild_vec(wq, wg, 1, levels - 1, 0)
                ma[0] = max(wq[1], wg[1])
            else:
                v = (err[0] - c0) / den[0]
                ma[0] = v if v >= 0.0 else -v
        else:
            self._wq = None
            self._wg = None

        self._init_queue(coeffs, include_average)
        self._verr = memoryview(err)
        self._vden = memoryview(den)
        self._vuq = memoryview(uq)
        self._vug = memoryview(ug)
        if include_average:
            self._vwq = memoryview(self._wq)
            self._vwg = memoryview(self._wg)
        else:
            self._vwq = None
            self._vwg = None
        self._vtq = [memoryview(t) for t in self._tq]
        self._vtg = [memoryview(t) for t in self._tg]

    # -- tree maintenance --------------------------------------------------

    def _fill_level_terms(self, L: int, lo: int, hi: int) -> None:
        """Write level-``L`` signed terms for leaves ``[lo, hi)`` into the
        shared scratch (one reshape-broadcast pass; the range must cover
        whole level-``L`` blocks)."""
        m = self.m
        sp = m >> L
        hh = sp >> 1
        nb = (hi - lo) // sp
        j0 = (1 << L) + lo // sp
        E = self._lterm[m + lo : m + hi].reshape(nb, sp)
        err2 = self.errors[lo:hi].reshape(nb, sp)
        den2 = self.denominators[lo:hi].reshape(nb, sp)
        c_col = self.coefficients[j0 : j0 + nb, None]
        np.subtract(err2[:, :hh], c_col, out=E[:, :hh])
        np.add(err2[:, hh:], c_col, out=E[:, hh:])
        E /= den2

    def _rebuild_vec(
        self,
        tq: NDArray[np.float64],
        tg: NDArray[np.float64],
        k: int,
        t_hi: int,
        t_lo: int,
    ) -> None:
        """Rebuild aggregate levels ``t_hi .. t_lo`` (depths below ``k``).

        Level ``t`` is the contiguous block ``[k << t, (k + 1) << t)``;
        its children (level ``t + 1``) must be current — interior ones in
        ``tq``/``tg``, leaf ones as just-filled terms in the shared
        ``_lterm`` scratch.
        """
        m = self.m
        for t in range(t_hi, t_lo - 1, -1):
            a = k << t
            w = 1 << t
            b = a + w
            left = slice(2 * a, 2 * b, 2)
            right = slice(2 * a + 1, 2 * b, 2)
            if 2 * a >= m:
                lt = self._lterm
                s = self._scratch2[:w]
                np.minimum(lt[left], lt[right], out=s)
                np.maximum(lt[left], lt[right], out=tq[a:b])
                np.negative(s, out=tg[a:b])
            else:
                np.maximum(tq[left], tq[right], out=tq[a:b])
                np.maximum(tg[left], tg[right], out=tg[a:b])

    def _rebuild_sc_int(
        self, vt: NDArray[np.float64], vtg: NDArray[np.float64], k: int, t_hi: int
    ) -> None:
        """Scalar rebuild of the interior-children levels ``t_hi .. 0``."""
        for t in range(t_hi, -1, -1):
            for j in range(k << t, (k + 1) << t):
                xl = vt[2 * j]
                xr = vt[2 * j + 1]
                vt[j] = xl if xl >= xr else xr  # lint: ignore[KC003]
                xl = vtg[2 * j]
                xr = vtg[2 * j + 1]
                vtg[j] = xl if xl >= xr else xr  # lint: ignore[KC003]

    def _batch_push(
        self, tq: NDArray[np.float64], tg: NDArray[np.float64], a0: int, nb: int
    ) -> None:
        """Refresh MR for block roots ``[a0, a0 + nb)`` and re-key them."""
        b = a0 + nb
        np.maximum(tq[a0:b], tg[a0:b], out=self._ma_arr[a0:b])
        self._rekey(a0, b)

    # -- state queries -----------------------------------------------------

    def current_error(self) -> float:
        """Tree-wide maximum relative error of the running synopsis."""
        if self.m == 1:
            v = self._verr[0] / self._vden[0]
            return v if v >= 0.0 else -v
        x = self._vuq[1]
        g = self._vug[1]
        return x if x >= g else g

    # -- removal -----------------------------------------------------------

    def _remove_average(self, c0: float) -> float:
        m = self.m
        if m == 1:
            v = self._verr[0] - c0
            self._verr[0] = v
            u = v / self._vden[0]
            return u if u >= 0.0 else -u
        err = self.errors
        den = self.denominators
        levels = self._levels
        # Every leaf error shifts by -c0; every term of every tree must
        # be recomputed (this happens at most once per run).
        err -= c0
        np.divide(err, den, out=self._lterm[m:])
        self._rebuild_vec(self._uq, self._ug, 1, levels - 1, 0)
        alive = self._alive
        for L in range(levels):
            nb = 1 << L
            if not alive[nb : 2 * nb].any():
                continue
            self._fill_level_terms(L, 0, m)
            tq = self._tq[L]
            tg = self._tg[L]
            self._rebuild_vec(tq, tg, 1, levels - 1, L)
            self._batch_push(tq, tg, nb, nb)
        x = self._vuq[1]
        g = self._vug[1]
        return x if x >= g else g

    def _remove_detail(self, k: int, c: float) -> float:
        m = self.m
        levels = self._levels
        Lk = k.bit_length() - 1
        depth = levels - Lk
        leaf0 = k << depth
        lo = leaf0 - m
        s = 1 << depth
        mid = lo + (s >> 1)
        hi = lo + s
        err = self.errors
        den = self.denominators
        verr = self._verr
        vden = self._vden
        vcoef = self._vcoef
        valive = self._valive
        vma = self._vma
        vms = self._vms
        heap = self._heap
        packf = self._packf
        packi = self._packi
        id_bits = self._id_bits
        small = s <= _SCALAR_SPAN_CUTOFF
        # Leaf parents of k's sub-tree.
        lp0 = k << (depth - 1)
        lp1 = lp0 + (1 << (depth - 1))

        # The removed node's leaves shift: left half -c, right half +c.
        if small:
            for i in range(lo, mid):
                verr[i] = verr[i] - c
            for i in range(mid, hi):
                verr[i] = verr[i] + c
        else:
            err[lo:mid] -= c
            err[mid:hi] += c

        # Current-error tree: recompute u over the range (fused with the
        # leaf-parent aggregation), rebuild k's sub-tree, climb to the
        # root (whose values are the answer).
        vuq = self._vuq
        vug = self._vug
        if small:
            for j in range(lp0, lp1):
                i = 2 * j - m
                tl = verr[i] / vden[i]
                tr = verr[i + 1] / vden[i + 1]
                if tl >= tr:
                    vuq[j] = tl
                    vug[j] = -tr
                else:
                    vuq[j] = tr
                    vug[j] = -tl
            self._rebuild_sc_int(vuq, vug, k, depth - 2)
        else:
            np.divide(err[lo:hi], den[lo:hi], out=self._lterm[leaf0 : leaf0 + s])
            self._rebuild_vec(self._uq, self._ug, k, depth - 1, 0)

        # Average slot: same update against the w tree, then one fused
        # climb refreshing both trees' ancestor aggregates.
        avg = valive[0]
        if avg:
            c0 = vcoef[0]
            vwq = self._vwq
            vwg = self._vwg
            if small:
                for j in range(lp0, lp1):
                    i = 2 * j - m
                    tl = (verr[i] - c0) / vden[i]
                    tr = (verr[i + 1] - c0) / vden[i + 1]
                    if tl >= tr:
                        vwq[j] = tl
                        vwg[j] = -tr
                    else:
                        vwq[j] = tr
                        vwg[j] = -tl
                self._rebuild_sc_int(vwq, vwg, k, depth - 2)
            else:
                seg = self._lterm[leaf0 : leaf0 + s]
                np.subtract(err[lo:hi], c0, out=seg)
                seg /= den[lo:hi]
                self._rebuild_vec(self._wq, self._wg, k, depth - 1, 0)
            ex = vuq[k]
            eg = vug[k]
            wx = vwq[k]
            wg = vwg[k]
            child = k
            while child > 1:
                q = child >> 1
                sib = child ^ 1
                t = vuq[sib]
                if t > ex:
                    ex = t
                t = vug[sib]
                if t > eg:
                    eg = t
                vuq[q] = ex
                vug[q] = eg
                t = vwq[sib]
                if t > wx:
                    wx = t
                t = vwg[sib]
                if t > wg:
                    wg = t
                vwq[q] = wx
                vwg[q] = wg
                child = q
            ma0 = wx if wx >= wg else wg
            vma[0] = ma0
            if ma0 < vms[0]:
                vms[0] = ma0
                packf[0] = ma0 + 0.0
                heappush(heap, packi[0] << id_bits)
        else:
            ex = vuq[k]
            eg = vug[k]
            child = k
            while child > 1:
                q = child >> 1
                sib = child ^ 1
                t = vuq[sib]
                if t > ex:
                    ex = t
                t = vug[sib]
                if t > eg:
                    eg = t
                vuq[q] = ex
                vug[q] = eg
                child = q

        # Descendant levels: all their blocks inside [lo, hi) dirtied.
        alive = self._alive
        for L in range(Lk + 1, levels):
            d = L - Lk
            nb = 1 << d
            a0 = k << d
            sp = m >> L
            if small:
                vt = self._vtq[L]
                vtg = self._vtg[L]
                sub = levels - L
                for bidx in range(nb):
                    j = a0 + bidx
                    if not valive[j]:
                        continue
                    cb = vcoef[j]
                    if sp == 2:
                        i = 2 * j - m
                        tl = (verr[i] - cb) / vden[i]
                        tr = (verr[i + 1] + cb) / vden[i + 1]
                        if tl >= tr:
                            vt[j] = tl
                            vtg[j] = -tr
                        else:
                            vt[j] = tr
                            vtg[j] = -tl
                    else:
                        bp0 = j << (sub - 1)
                        nlp = 1 << (sub - 1)
                        bpm = bp0 + (nlp >> 1)
                        for jp in range(bp0, bpm):
                            i = 2 * jp - m
                            tl = (verr[i] - cb) / vden[i]
                            tr = (verr[i + 1] - cb) / vden[i + 1]
                            if tl >= tr:
                                vt[jp] = tl
                                vtg[jp] = -tr
                            else:
                                vt[jp] = tr
                                vtg[jp] = -tl
                        for jp in range(bpm, bp0 + nlp):
                            i = 2 * jp - m
                            tl = (verr[i] + cb) / vden[i]
                            tr = (verr[i + 1] + cb) / vden[i + 1]
                            if tl >= tr:
                                vt[jp] = tl
                                vtg[jp] = -tr
                            else:
                                vt[jp] = tr
                                vtg[jp] = -tl
                        self._rebuild_sc_int(vt, vtg, j, sub - 2)
                    x = vt[j]
                    g = vtg[j]
                    mr = x if x >= g else g
                    vma[j] = mr
                    if mr < vms[j]:
                        vms[j] = mr
                        packf[0] = mr + 0.0
                        heappush(heap, (packi[0] << id_bits) | j)
            else:
                if not alive[a0 : a0 + nb].any():
                    continue
                self._fill_level_terms(L, lo, hi)
                tq = self._tq[L]
                tg = self._tg[L]
                self._rebuild_vec(tq, tg, k, depth - 1, d)
                self._batch_push(tq, tg, a0, nb)

        # Ancestor levels: [lo, hi) lies in one half of the single
        # dirtied block, so the term shift is uniform (+c if k descends
        # from the right child, -c from the left).
        for L in range(Lk - 1, -1, -1):
            a = k >> (Lk - L)
            if not valive[a]:
                continue
            ca = vcoef[a]
            delta = ca if (k >> (Lk - L - 1)) & 1 else -ca
            vt = self._vtq[L]
            vtg = self._vtg[L]
            if small:
                for j in range(lp0, lp1):
                    i = 2 * j - m
                    tl = (verr[i] + delta) / vden[i]
                    tr = (verr[i + 1] + delta) / vden[i + 1]
                    if tl >= tr:
                        vt[j] = tl
                        vtg[j] = -tr
                    else:
                        vt[j] = tr
                        vtg[j] = -tl
                self._rebuild_sc_int(vt, vtg, k, depth - 2)
            else:
                tq = self._tq[L]
                seg = self._lterm[leaf0 : leaf0 + s]
                np.add(err[lo:hi], delta, out=seg)
                seg /= den[lo:hi]
                self._rebuild_vec(tq, self._tg[L], k, depth - 1, 0)
            cx = vt[k]
            cg = vtg[k]
            child = k
            while child > a:
                q = child >> 1
                sib = child ^ 1
                t = vt[sib]
                if t > cx:
                    cx = t
                t = vtg[sib]
                if t > cg:
                    cg = t
                vt[q] = cx
                vtg[q] = cg
                child = q
            mr = cx if cx >= cg else cg
            vma[a] = mr
            if mr < vms[a]:
                vms[a] = mr
                packf[0] = mr + 0.0
                heappush(heap, (packi[0] << id_bits) | a)

        return ex if ex >= eg else eg


def greedy_rel_order(
    coefficients: ArrayLike,
    leaf_values: ArrayLike,
    sanity_bound: float = DEFAULT_SANITY_BOUND,
    initial_errors: ArrayLike | None = None,
    include_average: bool = True,
) -> GreedyRun:
    """Run the relative-error greedy engine to exhaustion."""
    tree = GreedyRelTree(coefficients, leaf_values, sanity_bound, initial_errors, include_average)
    return tree.run_to_exhaustion()


def greedy_rel(
    data: ArrayLike, budget: int, sanity_bound: float = DEFAULT_SANITY_BOUND
) -> WaveletSynopsis:
    """Centralized GreedyRel: best max-rel synopsis within ``budget``."""
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    values = np.asarray(data, dtype=np.float64)
    coefficients = haar_transform(values)
    run = greedy_rel_order(coefficients, values, sanity_bound)
    step, error = run.best_cut(budget)
    retained = {r.node: r.value for r in run.removals[step:]}
    return WaveletSynopsis(
        n=int(values.shape[0]),
        coefficients=retained,
        meta={
            "algorithm": "GreedyRel",
            "budget": budget,
            "max_rel_error": error,
            "sanity_bound": sanity_bound,
        },
    )
