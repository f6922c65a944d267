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

The naive kernel sweeps slabs of fixed x_1 over the grid of
(x_2, ..., x_t), one x_1 per orbit of the code's automorphisms
(x1_orbit_representatives) on lead_axes' first axis, and counts each slab
with its orbit size, so (d_1 + 1) r^(t-1) inputs stand for all r^t.  The
period-sum kernel goes one axis further: one (x_1, x_2) per orbit of the
shift, GF(q)* scaling and Frobenius (pair_orbit_representatives), on the
pair of axes whose orbits are fewest (lead_axes).  Neither depends on the
order of the offsets, and every count stays exact.

Memory is bounded by the byte budget SWEEP_BYTES, not by r^t.  The naive
kernel takes the codeword coordinates in blocks of SWEEP_BYTES of int32
symbols over the (x_2, ..., x_t) grid.  Period sums and class profiles are
one sweep (_sweep) over the multipliers' logs h a_tau mod (r-1)
(log_matrix): it builds a multiplier's row only to fold it, keeps the
folds of the trailing axes resident, walks the slabs and leading codes in
blocks, and where the folds are large lets runs of g period arguments
share one composed table.  Both period-sum kernels read the class values
as compact units (compact_units).  The sampler weighs each draw by a key
that fixes its weight, through one table per call from key to slot: at
t = 2 the draw's orbit under the N-th powers, read through Zech's
logarithms (Lidl & Niederreiter, Finite Fields), otherwise the period sum
in compact units.  It keeps a count per weight, not a weight per draw.

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
from functools import reduce
from itertools import chain, combinations
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import DerivedParams
from .errors import CapExceeded, NegativePeriodSum, NonIntegralWeight
from .gf import FieldTower


def fold_sum(tower: FieldTower, rows: list[np.ndarray]) -> np.ndarray:
    """Values of sum_tau rows_tau[code_tau] over the full grid, flat order:
    each further axis is one outer field addition."""
    arr = rows[0]
    for row in rows[1:]:
        arr = tower.add_arrays(arr[:, None], row[None, :]).ravel()
    return arr


def x1_orbit_representatives(tower: FieldTower, a1: int
                             ) -> list[tuple[int, int]]:
    """(x_1 code, multiplicity) pairs: one x_1 per orbit, multiplicities
    summing to r, for the axis of exponent a1.

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
    d1 = gcd(r1, a1, r1 // (tower.q - 1))
    return [(0, 1)] + [(1 + k, r1 // d1) for k in range(d1)]


def _cycle_min(perm: np.ndarray, length: int) -> np.ndarray:
    """The least index on each index's cycle of perm, whose cycle lengths
    divide `length`: the minimum over 2^j iterates, doubling j."""
    least, step, span = np.arange(perm.size), perm, 1
    while span < length:
        least = np.minimum(least, least[step])
        step, span = step[step], 2 * span
    return least


def lead_axes(tower: FieldTower, a_list) -> list[int]:
    """The axes in sweep order: first the pair (i, j) with the fewest orbits
    of the shift and GF(q)* scaling on (x_i, x_j), 1 + d_i + d_j + d_i s_ij
    (pair_orbit_representatives), ties to the least exponents; within it
    the axis with fewer x orbits (d) first; then the rest in their order.
    So the orbits visited depend on the set of exponents, not their order.
    """
    r1 = tower.r - 1
    Q = r1 // (tower.q - 1)
    d = [gcd(Q, a) for a in a_list]

    def rank(pair):
        i, j = pair
        s = gcd(r1, (a_list[j] - a_list[i]) * (Q // d[i]))
        return d[i] * s + d[i] + d[j], sorted((a_list[i], a_list[j]))

    pair = min(combinations(range(len(a_list)), 2), key=rank)
    i, j = sorted(pair, key=lambda k: (d[k], a_list[k]))
    return [i, j] + [k for k in range(len(a_list)) if k not in pair]


def pair_orbit_representatives(tower: FieldTower, a1: int, a2: int):
    """(c1, c2, mult) arrays: one (x_1, x_2) code pair per orbit of the
    group G generated by the shift, GF(q)* scaling and Frobenius on the
    axes of exponents a1 and a2, with its orbit size, ascending by size;
    the sizes sum to r^2.  None when the orbits of the shift and scaling
    alone number more than SWEEP_BYTES / 64 (the arrays below take about
    64 bytes each).

    Frobenius (x_j) -> (x_j^p) maps the codeword c to (c_(i/p mod n))^p,
    since Tr(y^p) = Tr(y)^p, so it keeps weights too (MacWilliams & Sloane
    ch. 8), and it maps the slab at (x_1, x_2) one to one onto the slab at
    (x_1^p, x_2^p).  In logs (l_1, l_2), M = r - 1, Q = M/(q-1), the shift
    and scaling generate the translations A = <(a1, a2), (Q, Q)> and
    Frobenius multiplies by p, which normalizes A (it maps the shift to its
    p-th power).  A's orbits:
      - (0, 0);
      - (0, gamma^j) for j < d_2 = gcd(Q, a2), each of M/d_2 inputs;
      - (gamma^k, 0) for k < d_1 = gcd(Q, a1), each of M/d_1;
      - (gamma^k, gamma^l) for k < d_1, l < s, each of M^2/(d_1 s): the
        first coordinates of A are <d_1>, and the second coordinates of its
        elements with first coordinate 0 are <s>,
        s = gcd(M, (a2 - a1) Q/d_1).  E = (d_1, w_1) in A, with
        w_1 = d_1 + x (a2 - a1) for x a1 = d_1 mod Q, brings (l_1, l_2) to
        (l_1 mod d_1, l_2 - (l_1 div d_1) w_1 mod s).
    Frobenius permutes these orbits; its cycles (whose lengths divide
    the degree of GF(r)) join them into the orbits of G.
    """
    r1, p = tower.r - 1, tower.p
    Q = r1 // (tower.q - 1)
    d1, d2 = gcd(Q, a1), gcd(Q, a2)
    s = gcd(r1, (a2 - a1) * (Q // d1))
    if 64 * (1 + d1 + d2 + d1 * s) > SWEEP_BYTES:
        return None
    w1 = (d1 + pow(a1 // d1, -1, Q // d1) * (a2 - a1)) % r1
    j, k = np.arange(d2), np.arange(d1)
    kk, ll = np.divmod(np.arange(d1 * s), s)
    l1 = p * kk % r1
    frob = np.concatenate([[0], 1 + p * j % d2, 1 + d2 + p * k % d1,
                           1 + d2 + d1 + l1 % d1 * s
                           + (p * ll - l1 // d1 * w1) % s])
    size = np.repeat([1, r1 // d2, r1 // d1, r1 * r1 // (d1 * s)],
                     [1, d2, d1, d1 * s])
    c1 = np.concatenate([[0], np.zeros(d2, np.int64), 1 + k, 1 + kk])
    c2 = np.concatenate([[0], 1 + j, np.zeros(d1, np.int64), 1 + ll])
    least = _cycle_min(frob, tower.degree)
    reps = np.flatnonzero(least == np.arange(least.size))
    mult = np.bincount(least)[reps] * size[reps]
    order = np.argsort(mult, kind="stable")
    return c1[reps[order]], c2[reps[order]], mult[order]


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
    Only code automorphisms enter, no period theory.  x_1 is lead_axes'
    first axis, so the slabs visited do not depend on the offset order.
    """
    r, t, n = tower.r, derived.t, derived.n
    r1 = r - 1
    a_rest = list(derived.a_list)
    a_1 = a_rest.pop(lead_axes(tower, a_rest)[0])
    reps = x1_orbit_representatives(tower, a_1)
    size = r ** (t - 1)
    trace = tower.trace_q_vector[tower.exp2]
    windows = sliding_window_view(trace, r)
    minus_one = tower.dlog_of(tower.neg(1))

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


def log_matrix(tower: FieldTower, a_list, e: int) -> np.ndarray:
    """logs[h, tau] = h a_tau mod (r-1), the log of (g b_tau)^h, the
    multiplier of x_tau in the period argument v_h (log(g b_tau) = a_tau)."""
    return np.arange(e)[:, None] * np.asarray(a_list, np.int64) % (tower.r - 1)


def _row(tower: FieldTower, k: int) -> np.ndarray:
    """gamma^k times the element of each code: 0 at code 0, then the power
    table rotated by k, a slice of the table written out twice."""
    row = np.empty(tower.r, dtype=tower.exp2.dtype)
    row[0] = 0
    row[1:] = tower.exp2[k:k + tower.r - 1]
    return row


def _run_width(r: int, e: int, size: int) -> int:
    """The largest g <= e whose r^g-entry composed rows are at most 1/8 of
    a fold of `size` entries, and 1 if none is."""
    g = 1
    while g < e and 8 * r ** (g + 1) <= size:
        g += 1
    return g


def _sweep(tower: FieldTower, lead: np.ndarray, mults: np.ndarray,
           logs: np.ndarray, tables: list[np.ndarray],
           size: int) -> np.ndarray:
    """tally[X] = number of inputs with X = sum_h tables[h][v_h], where
    v_h = lead[h, i] + sum_tau gamma^logs[h, tau] y_tau: slab i fixes the
    lead axes (their part of v_h is lead[h, i]) and counts mults[i] times,
    and y runs over the u remaining axes, logs' columns.

    Only the folds of y_(k+1)..y_u stay resident, k the least for which the
    e int32 folds fit SWEEP_BYTES, each folded from its h's rows (_row).  A
    head fixes a slab and y_1..y_k, so there v_h = head_h + fold_h: one
    field addition composes the r-entry row tables[h][head_h + .], gathered
    through the fold.  The h go in runs of g, the largest g with
    8 r^g <= fold size: a run's g rows are outer-added into one r^g-entry
    row, gathered once through the run index sum_j fold_(h_j) r^j (intp, in
    place of the run's folds, which are released as it is built), so an
    input costs e/g gathers, not e.  At g = 1 the folds are the indexes.
    With no remaining axis (u = 0) a head is one input, and tables[h] is
    gathered at head_h itself.  Heads go in blocks of SWEEP_BYTES: per head
    the e r-entry sums, the composed rows, and over the fold the
    accumulator, one gathered term and bincount's intp copy (threaded,
    blocks of SWEEP_BYTES / WORKERS).  A block takes one bincount per run
    of heads of equal multiplicity, so slabs grouped by multiplicity cost
    few.  The tables hold non-negative ints, and the accumulator holds e
    times the largest in the narrowest dtype.
    """
    r, (e, u) = tower.r, logs.shape
    k = next((k for k in range(u - 1)
              if 4 * e * r ** (u - k) <= SWEEP_BYTES), max(u - 1, 0))
    heads, folds = [], []
    for row_lead, ks in zip(lead, logs.tolist()):
        rows = [_row(tower, j) for j in ks]
        heads.append(fold_sum(tower, [row_lead, *rows[:k]]))
        folds.append(fold_sum(tower, rows[k:]) if u else None)
    heads = np.array(heads) if k else lead
    size_f, width = (folds[0].size, r) if u else (1, 1)
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
    distinct = {id(tab): tab for tab in tables}  # tsum passes one e times
    acc_dtype = np.min_scalar_type(
        e * max(int(tab.max()) for tab in distinct.values()))
    cast = {key: tab.astype(acc_dtype) for key, tab in distinct.items()}
    tables = [cast[id(tab)] for tab in tables]
    item = np.dtype(acc_dtype).itemsize
    mults = np.repeat(mults, r ** k)
    per_head = 4 * e * width + 2 * item * (width ** g + size_f) + 8 * size_f
    step = max(1, SWEEP_BYTES // per_head)
    threaded = WORKERS > 1 and mults.size > step
    if threaded:
        step = max(1, step // WORKERS)
    bounds = list(range(0, mults.size, step)) + [mults.size]
    elems = np.arange(r, dtype=np.int32)

    def block_counts(block):
        lo, v = block
        acc = None
        for run, idx in zip(runs, folds):
            row = tables[run[0]].take(v[run[0]])
            for h in run[1:]:
                row = (tables[h].take(v[h])[:, :, None] + row[:, None, :]
                       ).reshape(len(row), -1)
            term = row if idx is None else row.take(idx, axis=1)
            acc = term if acc is None else np.add(acc, term, out=acc)
        block_mults = mults[lo:lo + len(acc)]
        cuts = [0, *np.flatnonzero(np.diff(block_mults)) + 1, len(acc)]
        top = int(acc.max()) + 1 if len(cuts) > 2 else 0
        return sum(block_mults[i] * np.bincount(acc[i:j].ravel(),
                                                minlength=top)
                   for i, j in zip(cuts, cuts[1:]))

    blocks = ((lo, tower.add_arrays(elems, heads[:, lo:hi, None]) if u
               else heads[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    tally = np.zeros(size, dtype=np.int64)
    for counts in _in_order(block_counts, blocks, threaded):
        tally[:counts.size] += counts
    return tally


def compact_units(tower: FieldTower, e: int, class_values
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, by_class, X): the N + 1 class values as compact units, the
    one per-element table of the period-sum kernels.

    class_values holds N * eta_0, ..., N * eta_(N-1) and r - 1, the value
    at 0 (rational periods only); gamma^k is in class k mod N.  Each value
    is low + gd * unit, low the least value and gd the gcd of the
    differences, so an input's key sum_h unit(v_h) runs to e times the
    largest unit, and its scaled period sum e(r-1) - sum_h value(v_h) is
    X[key] = e(r - 1 - low) - gd * key.  by_class and units (per element,
    read off dlog in chunks of 2^16) take the narrowest dtype."""
    r, N = tower.r, len(class_values) - 1
    seen = np.asarray(class_values, dtype=np.int64)
    low = int(seen.min())
    gd = int(np.gcd.reduce(seen - low)) or 1
    top = (int(seen.max()) - low) // gd
    by_class = ((seen - low) // gd).astype(np.min_scalar_type(top))
    units = np.empty(r, dtype=by_class.dtype)
    for i in range(0, r, 1 << 16):
        units[i:i + (1 << 16)] = by_class[tower.dlog[i:i + (1 << 16)] % N]
    units[0] = by_class[N]
    X = e * (r - 1 - low) - gd * np.arange(e * top + 1, dtype=np.int64)
    return units, by_class, X


def period_sum_tally(tower: FieldTower, derived: DerivedParams,
                     class_values) -> dict[int, int]:
    """{X: number of inputs} over the scaled period sums X that occur: the
    sweep tallies the keys of compact_units, and no X may be negative.

    X fixes the weight, so one slab per orbit stands for its whole orbit:
    one (x_1, x_2) per orbit of the shift, GF(q)* scaling and Frobenius on
    the lead pair of axes (lead_axes, pair_orbit_representatives), sorted
    by multiplicity; or one x_1 per orbit (x1_orbit_representatives) where
    the sweep is too small to pay for listing pairs, or the pairs are too
    many to list."""
    r, e, t = tower.r, derived.e, derived.t
    a = [derived.a_list[i] for i in lead_axes(tower, derived.a_list)]
    logs = log_matrix(tower, a, e)
    reps = x1_orbit_representatives(tower, a[0])
    # listing pairs takes some 40 numpy calls, about the time of sweeping
    # SWEEP_BYTES / 64 period arguments, so a smaller x_1 sweep keeps them
    pairs = (pair_orbit_representatives(tower, a[0], a[1])
             if e * len(reps) * r ** (t - 1) > SWEEP_BYTES // 64 else None)
    *slabs, mults = pairs or zip(*reps)
    lead = np.empty((e, len(mults)), dtype=tower.exp2.dtype)
    for h, ks in enumerate(logs.tolist()):  # lead axes' rows at the slabs
        lead[h] = reduce(tower.add_arrays, (_row(tower, k).take(codes)
                                            for k, codes in zip(ks, slabs)))
    units, _, X = compact_units(tower, e, class_values)
    tally = _sweep(tower, lead, np.array(mults), logs[:, len(slabs):],
                   [units] * e, X.size)
    keys = np.flatnonzero(tally)
    if X[keys[-1]] < 0:
        raise NegativePeriodSum("negative scaled period sum")
    return dict(zip(X[keys].tolist(), tally[keys].tolist()))


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
    cls = compact_units(tower, e, range(base))[0].astype(np.int64)
    logs = log_matrix(tower, derived.a_list, e)
    lead = np.array([_row(tower, k) for k in logs[:, 0].tolist()])
    return _sweep(tower, lead, np.ones(r, dtype=np.int64), logs[:, 1:],
                  [cls * base ** h for h in range(e)], base ** e)


# ----------------------------------------------------------------------
# Weights from scaled period sums, and seeded sampling through them.
# ----------------------------------------------------------------------

def weights_of_period_sums(tower: FieldTower, derived: DerivedParams,
                           X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, integral): w = (q-1) X / (q delta e) rounded down for scaled
    period sums X, and where it is exact; the one weight map of all kernels."""
    w, rem = np.divmod((tower.q - 1) * X, tower.q * derived.delta * derived.e)
    return w, rem == 0


def _pair_keys(tower: FieldTower, derived: DerivedParams,
               units: np.ndarray, slots: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, col, table) at t = 2: draw (c_1, c_2) has key
    base[c_1] + col[c_2], and table[key] = slots[sum_h units[class v_h]].

    Scaling both coordinates by an N-th power keeps every class of v_h, so
    with l = c - 1 a draw's key need only tell l_1 mod N and l_2 - l_1
    mod M, M = r - 1, and which coordinates are 0.  Row i < N holds
    x_1 = gamma^l_1 with l_1 = i mod N, row N holds x_1 = 0; each row has
    3M entries: (x_1, 0) at M - l_1 in 1..M and x_2 = gamma^l_2 at
    2M + l_2 - l_1 in M+1..3M-1 (row N: M and 2M + l_2).  So
    base[c] = 3M (l mod N) + 2M - l, base[0] = 3MN + 2M, col[c] = l and
    col[0] = -M, and no draw needs a patch.  Keys are int32, like the
    codes: the table is used only at 3M(N+1) < 2^31.

    The sums come from Zech's logarithms: gamma^a + gamma^b =
    gamma^a (1 + gamma^(b-a)) has class a + C[b - a] mod N, C[j] the class
    of 1 + gamma^j, or the code Z = 3N - 1 where 1 + gamma^j = 0.  cls2 is
    C written out twice, in the narrowest unsigned dtype that holds Z;
    vals[i] is units[i mod N] for i < Z and units[N] (at 0) from Z on.  So
    x_1 = gamma^i, x_2 = gamma^(i+d) gives v_h the unit
    vals[i + k_1 + cls2[d + k_2 - k_1]], k_tau = h a_tau mod M; each h
    gathers through an intp index of N M entries."""
    M, N = tower.r - 1, derived.N
    logs = tower.dlog.take(tower.add_arrays(tower.exp, tower.exp[:1]))
    cls2 = (logs % N).astype(np.min_scalar_type(3 * N - 1))
    cls2[logs < 0] = 3 * N - 1
    cls2 = np.tile(cls2, 2)
    vals = np.concatenate([np.tile(units[:N], 3)[:3 * N - 1],
                           np.full(2 * N - 1, units[N])])
    dtype = np.min_scalar_type(derived.e * int(vals.max()))
    rows = np.arange(N)[:, None]
    pair = np.zeros((N, M), dtype=dtype)     # both nonzero, d = l_2 - l_1
    lone = np.zeros((2, N), dtype=dtype)     # x_2 = 0 at l_1 = i; x_1 = 0
    for k1, k2 in log_matrix(tower, derived.a_list, derived.e).tolist():
        pair += vals.take(cls2[(k2 - k1) % M:][:M] + (rows + k1 % N))
        lone += vals[np.arange(N) + np.array([[k1 % N], [k2 % N]])]
    pair, lone = slots.take(pair), slots.take(lone)
    table = np.empty((N + 1, 3 * M), dtype=slots.dtype)
    table[:N, :M + 1] = lone[0][:, None]
    table[:N, M + 1:2 * M] = pair[:, 1:]
    table[:N, 2 * M:] = pair
    table[N] = slots[derived.e * int(units[N])]
    table[N, 2 * M:] = np.tile(lone[1], M // N)
    code = np.arange(tower.r, dtype=np.int32) - 1
    base = 3 * M * (code % N) + 2 * M - code
    base[0] = 3 * M * N + 2 * M
    code[0] = -M
    return base, code, table.ravel()


def sample_weights(tower: FieldTower, derived: DerivedParams,
                   class_values, support, count: int,
                   seed: int) -> dict[int, int]:
    """{weight: draws} over `count` seeded-uniform inputs, weighed through
    the period identity: each weight drawn, ascending, with its exact count.

    class_values holds the N + 1 ints N * eta_0, ..., N * eta_(N-1) and
    r - 1, the value at 0 (rational periods only).  support holds the K
    weights expected, ascending (a closed table's).  A draw's weight is
    fixed by its key, and one table built per call gives each key its slot:
    the support weight's index, K for an integral weight outside the
    support, K + 1 for one that is not an integer.  So a block costs one
    gather per draw into the slot table and one bincount over K + 2 slots;
    the draws in slot K are weighed again and counted by weight, and a draw
    in slot K + 1 raises NonIntegralWeight.  No array as long as the draws
    is kept.

    The key is the period sum in compact units (compact_units), one slot
    per X.  At t = 2, while the 3M(N+1) entries of its key table are fewer
    than the draws and 8 N M bytes fit SWEEP_BYTES, the key is read from a
    table over the orbits of the N-th powers (_pair_keys): two narrow
    gathers and one from the table per draw.  Otherwise each v_h is summed
    as an element: code c >= 1 times gamma^k, k from log_matrix, is
    exp2[k:][c - 1], a view of the power table, a zero code gives zero,
    and add_arrays sums them.

    Inputs are drawn as int32 codes (an int64 draw's numbers, r <= 2^31)
    and weighed in row blocks of SWEEP_BYTES // (8 t) codes (threaded,
    1/(4 WORKERS) of that); consecutive blocks of one generator's draws are
    the draws of one (count, t) call, so counts ignore the block size.
    """
    r, t, e, N = tower.r, derived.t, derived.e, derived.N
    r1, exp2 = r - 1, tower.exp2
    logs = log_matrix(tower, derived.a_list, e).tolist()
    units, by_class, X = compact_units(tower, e, class_values)
    support = np.asarray(support, dtype=np.int64)
    K = len(support)
    w, integral = weights_of_period_sums(tower, derived, X)
    slots = np.where(~integral, K + 1, np.where(
        np.isin(w, support), np.searchsorted(support, w), K)
    ).astype(np.min_scalar_type(K + 1))
    keyed = (t == 2 and 3 * (N + 1) * r1 < count
             and 8 * N * r1 <= SWEEP_BYTES)
    if keyed:
        base, col, table = _pair_keys(tower, derived, by_class, slots)
    rng = np.random.default_rng(seed)
    rows = max(1, SWEEP_BYTES // (8 * t))
    threaded = WORKERS > 1 and count > rows
    if threaded:
        rows = max(1, rows // (4 * WORKERS))
        tower.add_arrays(exp2[:1], exp2[:1])  # lazy tables, not in a worker

    def keys(drawn):
        lg = np.subtract(drawn.T, 1, order="C")
        zeros = [np.flatnonzero(row < 0) for row in lg]
        for row, z in zip(lg, zeros):
            row[z] = 0
        acc = np.zeros(len(drawn), dtype=np.min_scalar_type(X.size - 1))
        for ks in logs:
            v = None
            for row, z, k in zip(lg, zeros, ks):
                term = exp2[k:].take(row)
                term[z] = 0
                v = term if v is None else tower.add_arrays(v, term)
            acc += units.take(v)
        return acc

    def weigh(drawn):
        if keyed:
            key = base.take(drawn[:, 0])
            key += col.take(drawn[:, 1])
            slot = table.take(key)
        else:
            key = keys(drawn)
            slot = slots.take(key)
        counts = np.bincount(slot, minlength=K + 2)
        if counts[K + 1]:
            raise NonIntegralWeight("a sampled weight is not an integer")
        outside = keys(drawn[slot == K]) if counts[K] else key[:0]
        return counts[:K], np.unique(w.take(outside), return_counts=True)

    draws = (rng.integers(0, r, size=(min(rows, count - i), t),
                          dtype=exp2.dtype)
             for i in range(0, count, rows))
    inside, tally = np.zeros(K, dtype=np.int64), Counter()
    for counts, (ws, cs) in _in_order(weigh, draws, threaded):
        inside += counts
        tally.update(dict(zip(ws.tolist(), cs.tolist())))
    tally.update(dict(zip(support.tolist(), inside.tolist())))
    return {w: c for w, c in sorted(tally.items()) if c}
