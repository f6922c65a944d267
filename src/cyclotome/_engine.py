"""Vectorized enumeration cores behind the weight-distribution methods.

Grids over GF(r)^t use "dlog-plus-zero" code order: code 0 is the zero
element, code 1 + k is gamma^k.  The flat grid index treats x_1 as the
most significant coordinate, so flat order is plain lexicographic order
of (x_1, ..., x_t) code tuples.

Everything here works on packed element ints (see gf).  Additions ride on
FieldTower.add_arrays (radix-p^j addition tables, XOR when p = 2),
multiplications on the power table through logs, so a pass over a grid is
a handful of numpy gathers.  Products read the tower's power table written
out twice (FieldTower.exp2).  Folding an axis into a grid is one outer
add_arrays (fold_sum).

The naive and period-sum kernels sweep slabs of fixed x_1 over the grid of
(x_2, ..., x_t), one x_1 per orbit of the code's automorphisms
(x1_orbit_representatives), and count each slab with its orbit size.  So
(d_1 + 1) r^(t-1) inputs stand for all r^t, and every count stays exact.

Memory is bounded by the byte budget SWEEP_BYTES, not by r^t.  The naive
kernel takes the codeword coordinates in blocks of SWEEP_BYTES of int32
symbols over the (x_2, ..., x_t) grid.  Period sums and class profiles are
one sweep (_sweep) with two sets of per-h tables: it keeps only the folds
of the trailing axes resident and walks the leading codes in blocks.  Where
the folds are large, runs of g period arguments share one composed table
and one gather per input.  The sampler at t = 2 adds in the log domain
through Zech's logarithms (Lidl & Niederreiter, Finite Fields), one table
lookup per period argument.  It keeps a count per weight, not a weight per
draw: past its blocks it holds a slot per weight 0..n and a count per
expected weight.

A sweep or a sample that needs more than one block at the full budget runs
its blocks on WORKERS threads, one per CPU the process may use (_in_order;
numpy's gathers, ufuncs and bincount release the GIL).  The calling thread
makes each block's inputs, head rows or draws, in block order.  One budget
covers all threads: threaded sweep blocks take SWEEP_BYTES / WORKERS, and
threaded sample blocks 1/(4 WORKERS) of a serial block's rows, since their
temporaries take two to five times the draws and each thread's malloc
arena keeps what it freed.  Tallies are exact integer sums and each weight
has its own slot, so no result depends on the thread count.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from itertools import chain
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import DerivedParams
from .errors import CapExceeded, NegativePeriodSum, NonIntegralWeight
from .gf import FieldTower


def fold_sum(tower: FieldTower, luts: list[np.ndarray]) -> np.ndarray:
    """Values of sum_tau lut_tau[code_tau] over the full grid, flat order:
    each further axis is one outer field addition."""
    arr = luts[0]
    for lut in luts[1:]:
        arr = tower.add_arrays(arr[:, None], lut[None, :]).ravel()
    return arr


def x1_orbit_representatives(tower: FieldTower, derived: DerivedParams
                             ) -> list[tuple[int, int]]:
    """(x_1 code, multiplicity) pairs: one x_1 per orbit, multiplicities
    summing to r.

    Two maps keep every codeword's Hamming weight: the cyclic shift
    x_j -> x_j gamma^(a_j) (it rotates the codeword) and scaling all x_j by
    c in GF(q)* (it scales the codeword).  Each maps the slab of inputs
    with x_1 = rho one to one onto the slab with x_1 = rho gamma^(a_1)
    (or c rho), so all slabs with x_1 in a coset of
    H = <gamma^(a_1)> GF(q)* = <gamma^(d_1)>, d_1 = gcd(r-1, a_1, (r-1)/(q-1)),
    have the same weight distribution.

    The pairs are code 0 once, then code 1 + k for k < d_1, each with
    multiplicity |H| = (r-1)/d_1.
    """
    r1 = tower.r - 1
    d1 = gcd(r1, derived.a_list[0], r1 // (tower.q - 1))
    return [(0, 1)] + [(1 + k, r1 // d1) for k in range(d1)]


# ----------------------------------------------------------------------
# Naive weights: count nonzero trace symbols of every codeword.
# ----------------------------------------------------------------------

def naive_weight_counts(tower: FieldTower, derived: DerivedParams) -> np.ndarray:
    """counts[w] = number of inputs whose codeword has Hamming weight w.

    Trace is additive, so symbol i of the input (rho, x_2, ..., x_t) is
    zero exactly when S_i = sum_{j>=2} Tr(x_j gamma^(a_j i)) equals
    Tr(-rho gamma^(a_1 i)), and one S_i over the grid of (x_2, ..., x_t)
    serves every representative rho.  Code 1 + k of axis j gives
    Tr(gamma^(k + a_j i)), so over the codes of one axis S_i is a window of
    the trace of the power table written out twice, with code 0 set to 0.
    Coordinates go in blocks of SWEEP_BYTES at 4 bytes a symbol (symbols
    take the narrowest dtype that holds an element, at most int32): per
    block and axis one window gather, per further axis one outer field
    addition, and per representative one compare summed over the block.
    Only code automorphisms enter, no period theory.
    """
    r, t, n = tower.r, derived.t, derived.n
    r1 = r - 1
    reps = x1_orbit_representatives(tower, derived)
    size = r ** (t - 1)
    trace = tower.trace_q_vector[tower.exp2]
    windows = sliding_window_view(trace, r)
    minus_one = tower.dlog_of(tower.neg(1))
    a_1, a_rest = derived.a_list[0], derived.a_list[1:]

    wdtype = np.uint16 if n < 2**16 else np.uint32
    zeros = np.zeros((len(reps), size), dtype=wdtype)
    block = max(1, SWEEP_BYTES // (4 * size))
    for lo in range(0, n, block):
        i = np.arange(lo, min(lo + block, n), dtype=np.int64)
        S = None
        for a in a_rest:
            # row[:, 1 + k] = Tr(gamma^(k + a i)): window a i - 1
            row = windows[(a * i - 1) % r1]
            row[:, 0] = 0
            S = row if S is None else tower.add_arrays(
                S[:, :, None], row[:, None, :]).reshape(i.size, -1)
        for z, (code, _) in zip(zeros, reps):
            target = trace[(a_1 * i + minus_one + code - 1) % r1] if code \
                else np.zeros(i.size, dtype=trace.dtype)
            z += (S == target[:, None]).sum(axis=0, dtype=wdtype)
    counts = np.zeros(n + 1, dtype=np.int64)
    for z, (_, mult) in zip(zeros, reps):
        counts += mult * np.bincount(n - z, minlength=n + 1)
    return counts


# ----------------------------------------------------------------------
# One sweep over the period arguments v_h(x), in chunks of the input grid.
# ----------------------------------------------------------------------

# bytes of the e resident trailing-axis folds the sweep may hold
SWEEP_BYTES = 1 << 22

# threads that weigh the blocks of a sweep or a sample past one full block
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _in_order(work, blocks, threaded: bool):
    """work(block) for each block, yielded in block order.  Threaded, block
    i runs on lane i % WORKERS of a pool once that lane has handed back
    block i - WORKERS, so at most WORKERS blocks are in flight and the
    iterator runs on this thread.  A worker's exception is raised here in
    its block's turn, and every thread is joined before this returns.

    Hand-rolled: a block reaches its lane through one SimpleQueue, with no
    Future, lock or condition per block.  A ThreadPoolExecutor with the same
    window (in-process A/B, 30 alternations, 2 CPUs) was 1.13-1.24x slower
    in median on the 2^20 sampler, 0.98-1.07x on the 7^5 sampler and the
    open-case sweep."""
    if not threaded:
        yield from map(work, blocks)
        return
    from queue import SimpleQueue

    def serve(inbox, outbox):
        # "is not", since == on an array block compares element by element
        while (block := inbox.get()) is not None:
            try:
                outbox.put(work(block))
            except BaseException as exc:  # re-raised on the calling thread
                outbox.put(exc)

    lanes = [(SimpleQueue(), SimpleQueue()) for _ in range(WORKERS)]
    pool = [threading.Thread(target=serve, args=lane) for lane in lanes]
    for thread in pool:
        thread.start()
    try:
        for i, block in enumerate(chain(blocks, [None] * WORKERS)):
            inbox, outbox = lanes[i % WORKERS]
            if i >= WORKERS:
                value = outbox.get()
                if isinstance(value, BaseException):
                    raise value
                yield value
            inbox.put(block)
    finally:
        for (inbox, _), thread in zip(lanes, pool):
            inbox.put(None)
            thread.join()


def _per_h_luts(tower: FieldTower, derived: DerivedParams
                ) -> list[list[np.ndarray]]:
    """luts[h][tau][code] = K * elem(code) with K = (g b_tau)^h, of log
    k = h a_tau mod (r-1), since log(g b_tau) = a_tau.  Code 1 + i is
    gamma^i, so past code 0 a lut is the power table rotated by k: a slice
    of the tower's table written out twice."""
    r1 = tower.r - 1
    out = []
    for h in range(derived.e):
        row = []
        for ai in derived.a_list:
            k = h * ai % r1
            lut = np.zeros(tower.r, dtype=tower.exp2.dtype)
            lut[1:] = tower.exp2[k:k + r1]
            row.append(lut)
        out.append(row)
    return out


def _run_width(r: int, e: int, size: int) -> int:
    """The largest g <= e whose r^g-entry composed rows are at most 1/8 of
    a fold of `size` entries, and 1 if none is."""
    g = 1
    while g < e and 8 * r ** (g + 1) <= size:
        g += 1
    return g


def _sweep(tower: FieldTower, luts: list[list[np.ndarray]],
           tables: list[np.ndarray], slabs: list[tuple[int, int]],
           size: int) -> np.ndarray:
    """tally[X] = number of inputs with X = sum_h tables[h][v_h(x)], where
    v_h(x) = sum_tau luts[h][tau][code of x_tau], x_1 runs over the slab
    codes and each input counts with its slab's multiplicity.

    Only the folds of x_(k+2)..x_t stay resident, k the least for which the
    e int32 folds fit SWEEP_BYTES.  A head fixes x_1..x_(k+1), so there
    v_h = head_h + fold_h: one field addition composes the r-entry row
    tables[h][head_h + .], gathered through the fold.  The h go in runs of
    g, the largest g with 8 r^g <= fold size: a run's g rows are outer-added
    into one r^g-entry row, gathered once through the run index
    sum_j fold_(h_j) r^j (intp, in place of the run's folds, which are
    released as it is built), so an input costs e/g gathers, not e.  At
    g = 1 the folds are the indexes.  Heads go in blocks of SWEEP_BYTES:
    per head the e r-entry sums, the composed rows, and over the fold the
    accumulator, one gathered term and bincount's intp copy (threaded,
    blocks of SWEEP_BYTES / WORKERS).  The accumulator holds e times the
    largest |table entry| in the narrowest signed dtype, so it never wraps.
    """
    r, e, t = tower.r, len(luts), len(luts[0])
    k = next((k for k in range(t - 2)
              if 4 * e * r ** (t - 1 - k) <= SWEEP_BYTES), t - 2)
    codes = [c for c, _ in slabs]
    heads = np.array([fold_sum(tower, [row[0][codes]] + row[1:k + 1])
                      for row in luts])
    folds = [fold_sum(tower, row[k + 1:]) for row in luts]
    size_f = folds[0].size
    g = _run_width(r, e, size_f)
    runs = [range(h, min(h + g, e)) for h in range(0, e, g)]
    if g > 1:  # each run's intp index replaces its folds
        index = []
        for run in runs:
            idx = folds[run[-1]].astype(np.intp)
            for h in reversed(run[:-1]):
                idx *= r
                idx += folds[h]
            for h in run:
                folds[h] = None
            index.append(idx)
        folds = index
    bound = e * max(int(np.abs(tab).max()) for tab in tables)
    acc_dtype = next(dt for dt in (np.int8, np.int16, np.int32, np.int64)
                     if bound <= np.iinfo(dt).max)
    tables = [tab.astype(acc_dtype) for tab in tables]
    item = np.dtype(acc_dtype).itemsize
    mults = np.repeat([mult for _, mult in slabs], r ** k)
    per_head = 4 * e * r + 2 * item * (r ** g + size_f) + 8 * size_f
    step = max(1, SWEEP_BYTES // per_head)
    threaded = WORKERS > 1 and mults.size > step
    if threaded:
        step = max(1, step // WORKERS)
    cuts = set(range(0, mults.size, step))
    cuts.update(np.flatnonzero(np.diff(mults)) + 1)
    bounds = sorted(cuts) + [mults.size]
    elems = np.arange(r, dtype=np.int32)

    def block_counts(block):
        lo, v = block
        acc = None
        for run, idx in zip(runs, folds):
            row = tables[run[0]].take(v[run[0]])
            for h in run[1:]:
                row = (tables[h].take(v[h])[:, :, None] + row[:, None, :]
                       ).reshape(len(row), -1)
            if acc is None:
                acc = row.take(idx, axis=1)
            else:
                acc += row.take(idx, axis=1)
        if acc.min() < 0:
            raise NegativePeriodSum("negative scaled period sum")
        return mults[lo] * np.bincount(acc.ravel())

    blocks = ((lo, tower.add_arrays(elems, heads[:, lo:hi, None]))
              for lo, hi in zip(bounds, bounds[1:]))
    tally = np.zeros(size, dtype=np.int64)
    for counts in _in_order(block_counts, blocks, threaded):
        tally[:counts.size] += counts
    return tally


def period_sum_tally(tower: FieldTower, derived: DerivedParams,
                     nval_by_elem: np.ndarray) -> np.ndarray:
    """tally[X] = number of inputs with X = e(r-1) - sum_h nval[v_h(x)].

    With nval holding N * eta(class) at nonzero elements and r - 1 at zero,
    X is the scaled period sum the weight formula consumes.  X fixes the
    weight, so one slab of x_1 per orbit (x1_orbit_representatives) stands
    for its whole orbit."""
    r, e = tower.r, derived.e
    return _sweep(tower, _per_h_luts(tower, derived),
                  [(r - 1) - nval_by_elem] * e,
                  x1_orbit_representatives(tower, derived),
                  2 * e * (r - 1) + 1)


PROFILE_SPACE_LIMIT = 1 << 24


def profile_code_tally(tower: FieldTower, derived: DerivedParams,
                       N: int) -> np.ndarray:
    """tally[c] = number of inputs whose per-coordinate class sequence packs
    to code c = sum_h digit_h (N+1)^h, digit_h in {0..N-1: class, N: zero}.

    digit_h classifies v_h(x).  Only practical while (N+1)^e stays small;
    the weight methods use period_sum_tally, since the periods are integers
    and the weight depends on the input only through their sum.
    """
    r, e = tower.r, derived.e
    base = N + 1
    if base ** e > PROFILE_SPACE_LIMIT:
        raise CapExceeded(
            f"profile space (N+1)^e = {base}^{e} is too large to tabulate")
    cls = np.full(r, N, dtype=np.int64)
    cls[tower.exp] = np.arange(r - 1, dtype=np.int64) % N
    return _sweep(tower, _per_h_luts(tower, derived),
                  [cls * base ** h for h in range(e)],
                  [(c, 1) for c in range(r)], base ** e)


# ----------------------------------------------------------------------
# Weights from scaled period sums, and seeded sampling through them.
# ----------------------------------------------------------------------

def weights_of_period_sums(X: np.ndarray, q: int, delta: int,
                           e: int) -> np.ndarray:
    """w = (q-1) X / (q delta e) for scaled period sums X, the one form of
    the weight formula the enumeration and sampling kernels share."""
    num = (q - 1) * X
    den = q * delta * e
    if np.any(num % den):
        raise NonIntegralWeight("a period-sum weight is not an integer")
    return num // den


def _zech_tables(tower: FieldTower, N: int, nval_by_elem: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(cls3, vals) for log-domain addition of two nonzero elements.

    gamma^a + gamma^b = gamma^a (1 + gamma^(b-a)), so its class is
    a + C[b - a] mod N, with C[j] the class of 1 + gamma^j (Zech's
    logarithm mod N), or the code Z = 3N - 1 where 1 + gamma^j = 0.
    cls3 is C written out three times, in the narrowest unsigned dtype that
    holds Z.  vals[i] is nval of class i mod N for i < Z and nval[0] from Z
    on, so vals[s + A + c] is the value for every shift s, A < N."""
    one_plus = tower.add_arrays(tower.exp, np.ones(1, dtype=tower.exp.dtype))
    logs = tower.dlog.take(one_plus)
    cls = (logs % N).astype(np.min_scalar_type(3 * N - 1))
    cls[logs < 0] = 3 * N - 1
    cls3 = np.tile(cls, 3)
    by_class = nval_by_elem.take(tower.exp[:N])
    vals = np.concatenate([np.tile(by_class, 3)[:3 * N - 1],
                           np.full(2 * N - 1, nval_by_elem[0])])
    return cls3, vals


def sample_weights(tower: FieldTower, derived: DerivedParams,
                   nval_by_elem: np.ndarray, support, count: int,
                   seed: int) -> dict[int, int]:
    """{weight: draws} over `count` seeded-uniform inputs, weighed through
    the period identity: each weight drawn, ascending, with its exact count.

    nval_by_elem[v] must hold N * eta(class of v) for v != 0 and r - 1 at
    v = 0 (rational periods only).  support holds the K weights expected,
    ascending (a closed table's).  A block's weights go to their slots
    through one (n+1)-entry table of the narrowest dtype that holds K, and
    one bincount over K + 1 slots counts them; np.unique counts the draws
    outside the support.  No array as long as the draws is kept.

    Inputs are drawn as int32 codes (an int64 draw's numbers, r <= 2^31)
    and weighed in row blocks of SWEEP_BYTES // (8 t) codes (threaded,
    1/(4 WORKERS) of that); consecutive blocks of one generator's draws are
    the draws of one (count, t) call, so counts ignore the block size.
    Products go through logs: code c >= 1 is gamma^(c-1), so its product
    with gamma^k, k = h a_tau mod (r-1), is exp2[c - 1 + k] in the power
    table, and a zero code contributes zero.  At t = 2 the sum is not formed:
    v_h = gamma^a + gamma^b with a = l_1 + k_h1, b = l_2 + k_h2 has class
    a + C[b - a] mod N (_zech_tables), one narrow gather and one value
    gather per h.  Draws with a zero code take the value of the other
    summand (or of 0), patched by index.  At t >= 3 each v_h is summed as
    an element with add_arrays.
    """
    r, t, e, N = tower.r, derived.t, derived.e, derived.N
    r1, exp2 = r - 1, tower.exp2
    logs = [[h * ai % r1 for ai in derived.a_list] for h in range(e)]
    if t == 2:
        cls3, vals = _zech_tables(tower, N, nval_by_elem)
    rng = np.random.default_rng(seed)
    rows = max(1, SWEEP_BYTES // (8 * t))
    threaded = WORKERS > 1 and count > rows
    if threaded:
        rows = max(1, rows // (4 * WORKERS))
        tower.add_arrays(exp2[:1], exp2[:1])  # lazy tables, not in a worker
    support = np.asarray(support, dtype=np.int64)
    K, n = len(support), derived.n
    slots = np.full(n + 1, K, dtype=np.min_scalar_type(K))
    fits = (support >= 0) & (support <= n)
    slots[support[fits]] = np.flatnonzero(fits)

    def weigh(drawn):
        lg = np.ascontiguousarray(drawn.T)
        lg -= 1
        zeros = [np.flatnonzero(row < 0) for row in lg]
        for row, z in zip(lg, zeros):
            row[z] = 0
        acc = np.zeros(len(drawn), dtype=np.int64)
        if t == 2:
            l1, l2 = lg
            diff = np.subtract(l2, l1, dtype=np.intp)
            diff += r1
            base = np.remainder(l1, N, dtype=np.intp)
            both = np.intersect1d(*zeros, assume_unique=True)
            for k1, k2 in logs:
                c = cls3[(k2 - k1) % r1:].take(diff)
                val = vals[k1 % N:].take(base + c)
                for z, row, k in ((zeros[0], l2, k2), (zeros[1], l1, k1)):
                    val[z] = nval_by_elem.take(exp2.take(row[z] + k))
                val[both] = nval_by_elem[0]
                acc += val
        else:
            for ks in logs:
                v = None
                for row, z, k in zip(lg, zeros, ks):
                    term = exp2.take(row + k)
                    term[z] = 0
                    v = term if v is None else tower.add_arrays(v, term)
                acc += nval_by_elem.take(v)
        ws = weights_of_period_sums(e * r1 - acc, tower.q, derived.delta, e)
        slot = slots.take(ws, mode="clip")
        outside = support.take(slot, mode="clip") != ws
        slot[outside] = K
        return (np.bincount(slot, minlength=K + 1),
                np.unique(ws[outside], return_counts=True))

    draws = (rng.integers(0, r, size=(min(rows, count - lo), t),
                          dtype=exp2.dtype)
             for lo in range(0, count, rows))
    inside, tally = np.zeros(K + 1, dtype=np.int64), Counter()
    for counts, (ws, cs) in _in_order(weigh, draws, threaded):
        inside += counts
        tally.update(dict(zip(ws.tolist(), cs.tolist())))
    tally.update(dict(zip(support.tolist(), inside.tolist())))
    return {w: c for w, c in sorted(tally.items()) if c}
