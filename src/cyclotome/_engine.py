"""Vectorized enumeration cores behind the weight-distribution methods.

Grids over GF(r)^t use "dlog-plus-zero" code order: code 0 is the zero
element, code 1 + k is gamma^k.  The flat grid index treats x_1 as the
most significant coordinate, so flat order is plain lexicographic order
of (x_1, ..., x_t) code tuples.

Everything here works on packed element ints (see gf).  Additions ride on
per-digit arithmetic (XOR when p = 2), multiplications on per-constant
lookup tables, so a pass over a grid is a handful of numpy gathers.

The naive and period-sum kernels sweep slabs of fixed x_1 over the grid of
(x_2, ..., x_t), one x_1 per orbit of the code's automorphisms
(x1_orbit_representatives), and count each slab with its orbit size.  So
(d_1 + 1) r^(t-1) inputs stand for all r^t, and every count stays exact.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .codes import DerivedParams
from .errors import CapExceeded, NegativePeriodSum, NonIntegralWeight
from .gf import FieldTower


def elem_of_code(tower: FieldTower) -> np.ndarray:
    out = np.empty(tower.r, dtype=np.int64)
    out[0] = 0
    out[1:] = tower.exp
    return out


def _vadd_outer(tower: FieldTower, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All pairwise field sums, flattened: result[i*len(B)+j] = A[i] + B[j]."""
    if tower.p == 2:
        return (A[:, None] ^ B[None, :]).ravel()
    dm = tower.digit_matrix
    dig = (dm[A][:, None, :].astype(np.int16) + dm[B][None, :, :]) % tower.p
    return (dig.astype(np.int64) @ tower._packing_weights).ravel()


def _vadd(tower: FieldTower, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise field sum of same-shape packed arrays."""
    if tower.p == 2:
        return A ^ B
    dm = tower.digit_matrix
    dig = (dm[A].astype(np.int16) + dm[B]) % tower.p
    return dig.astype(np.int64) @ tower._packing_weights


def fold_sum(tower: FieldTower, luts: list[np.ndarray]) -> np.ndarray:
    """Values of sum_tau lut_tau[code_tau] over the full grid, flat order."""
    arr = luts[0]
    for lut in luts[1:]:
        arr = _vadd_outer(tower, arr, lut)
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

    Walks the n coordinates once over the grid of (x_2, ..., x_t), holding
    U_i = sum_{j>=2} x_j gamma^(a_j i).  Trace is additive, so symbol i of
    the input (rho, x_2, ..., x_t) is nonzero exactly when
    Tr(U_i) != Tr(-rho gamma^(a_1 i)): one trace gather per coordinate
    serves every representative rho.  Moving from coordinate i to i+1
    multiplies x_j by gamma^(a_j), which on the grid is a fixed permutation
    (a rotation of each axis's nonzero codes), applied as one flat gather
    per step.  Only code automorphisms enter, no period theory.
    """
    r, t, n = tower.r, derived.t, derived.n
    reps = x1_orbit_representatives(tower, derived)
    size = r ** (t - 1)
    U = fold_sum(tower, [elem_of_code(tower)] * (t - 1))

    P = np.zeros((r,) * (t - 1), dtype=np.int32 if size < 2**31 else np.int64)
    for j, a in enumerate(derived.a_list[1:]):
        pi = np.empty(r, dtype=np.int64)
        pi[0] = 0
        pi[1:] = 1 + (np.arange(r - 1) + a) % (r - 1)
        stride = r ** (t - 2 - j)
        shape = (1,) * j + (r,) + (1,) * (t - 2 - j)
        P += (pi * stride).astype(P.dtype).reshape(shape)
    P = P.ravel()

    # target[i, k] = Tr(-rho_k gamma^(a_1 i)), with Tr(0) = 0 for rho_0 = 0
    trace = tower.trace_q_vector
    ks = np.array([c - 1 for c, _ in reps[1:]], dtype=np.int64)
    minus_one = tower.dlog_of(tower.neg(1))
    steps = derived.a_list[0] * np.arange(n, dtype=np.int64) + minus_one
    target = np.zeros((n, len(reps)), dtype=trace.dtype)
    target[:, 1:] = trace[tower.exp[(steps[:, None] + ks) % (r - 1)]]

    wdtype = np.uint16 if n < 2**16 else np.uint32
    wacc = np.zeros((len(reps), size), dtype=wdtype)
    for i in range(n):
        wacc += trace[U] != target[i][:, None]
        if i + 1 < n:
            U = U[P]
    counts = np.zeros(n + 1, dtype=np.int64)
    for row, (_, mult) in zip(wacc, reps):
        counts += mult * np.bincount(row, minlength=n + 1)
    return counts


# ----------------------------------------------------------------------
# Period-argument class profiles, swept by slabs of x_1.
# ----------------------------------------------------------------------

def _per_h_luts(tower: FieldTower, derived: DerivedParams,
                with_g: bool) -> list[list[np.ndarray]]:
    """luts[h][tau][code] = K * elem(code) with K = (g b_tau)^h (or b_tau^h)."""
    eoc = elem_of_code(tower)
    out = []
    for h in range(derived.e):
        row = []
        for b in derived.betas:
            base = tower.mul(derived.g, b) if with_g else b
            row.append(tower.mul_constant_table(tower.pow(base, h))[eoc])
        out.append(row)
    return out


def period_argument_folds(tower: FieldTower, derived: DerivedParams):
    """Per-coordinate machinery for the e period arguments
    v_h(x) = g^h sum_tau x_tau beta_tau^h: returns (luts, subs) where
    luts[h][0] covers the x_1 axis by code and subs[h] is the folded value
    of the remaining axes (length r^(t-1))."""
    luts = _per_h_luts(tower, derived, with_g=True)
    subs = [fold_sum(tower, luts[h][1:]).astype(np.int32)
            for h in range(derived.e)]
    return luts, subs


def period_sum_tally(tower: FieldTower, derived: DerivedParams,
                     nval_by_elem: np.ndarray) -> np.ndarray:
    """tally[X] = number of inputs with X = e(r-1) - sum_h nval[v_h(x)].

    With nval holding N * eta(class) at nonzero elements and r - 1 at zero,
    X is the scaled period sum the weight formula consumes.  X fixes the
    weight, so one slab of x_1 per orbit (x1_orbit_representatives) stands
    for its whole orbit.  Within the slab x_1 = rho, v_h = off_h + sub_h
    with off_h fixed, so each term (r-1) - nval[v_h] is one gather through
    an r-entry table indexed by the sub-fold sub_h."""
    r, e = tower.r, derived.e
    luts, subs = period_argument_folds(tower, derived)
    top = 2 * e * (r - 1)
    dtype = np.int32 if top < 2**31 else np.int64
    elems = np.arange(r, dtype=np.int64)
    tally = np.zeros(top + 1, dtype=np.int64)
    for c1, mult in x1_orbit_representatives(tower, derived):
        X = None
        for h in range(e):
            v = tower.add_arrays(elems, luts[h][0][c1])
            table = ((r - 1) - nval_by_elem[v]).astype(dtype)
            if X is None:
                X = table[subs[h]]
            else:
                X += table[subs[h]]
        if X.min() < 0:
            raise NegativePeriodSum("negative scaled period sum")
        tally += mult * np.bincount(X, minlength=top + 1)
    return tally


PROFILE_SPACE_LIMIT = 1 << 24


def profile_code_tally(tower: FieldTower, derived: DerivedParams,
                       N: int) -> np.ndarray:
    """tally[c] = number of inputs whose per-coordinate class sequence packs
    to code c = sum_h digit_h (N+1)^h, digit_h in {0..N-1: class, N: zero}.

    digit_h classifies v_h(x).  Only practical while (N+1)^e stays small;
    the weight methods use period_sum_tally instead whenever the period
    values are rational.
    """
    r, e = tower.r, derived.e
    base = N + 1
    if base ** e > PROFILE_SPACE_LIMIT:
        raise CapExceeded(
            f"profile space (N+1)^e = {base}^{e} is too large to tabulate")
    cls = np.full(r, N, dtype=np.int64)
    cls[tower.exp] = np.arange(r - 1, dtype=np.int64) % N
    luts, subs = period_argument_folds(tower, derived)
    powers = [base ** h for h in range(e)]
    tally = np.zeros(base ** e, dtype=np.int64)
    dm = tower.digit_matrix
    if tower.p != 2:
        sub_digits = [dm[s].astype(np.int16) for s in subs]
    for c1 in range(r):
        code = None
        for h in range(e):
            off = luts[h][0][c1]
            if tower.p == 2:
                v = subs[h] ^ off
            else:
                dig = (sub_digits[h] + dm[off]) % tower.p
                v = dig.astype(np.int64) @ tower._packing_weights
            term = cls[v] * powers[h]
            code = term if code is None else code + term
        tally += np.bincount(code, minlength=base ** e)
    return tally


def decode_profile(code: int, N: int, e: int) -> tuple[int, tuple[int, ...]]:
    """(u_zero, per-class counts) of a packed class-sequence code."""
    counts = [0] * (N + 1)
    for _ in range(e):
        code, digit = divmod(code, N + 1)
        counts[digit] += 1
    return counts[N], tuple(counts[:N])


# ----------------------------------------------------------------------
# Vanishing patterns of the sparse linear forms sum_tau x_tau beta_tau^h.
# ----------------------------------------------------------------------

def vanishing_mask_tally(tower: FieldTower, derived: DerivedParams) -> np.ndarray:
    """tally[mask] = number of inputs (including 0) whose form values vanish
    exactly on the coordinate set encoded by mask's bits."""
    r, e = tower.r, derived.e
    luts = _per_h_luts(tower, derived, with_g=False)
    subs = [fold_sum(tower, luts[h][1:]) for h in range(e)]
    tally = np.zeros(1 << e, dtype=np.int64)
    for c1 in range(r):
        mask = None
        for h in range(e):
            v = _vadd(tower, subs[h], np.int64(luts[h][0][c1]))
            bit = (v == 0).astype(np.int64) << h
            mask = bit if mask is None else mask + bit
        tally += np.bincount(mask, minlength=1 << e)
    return tally


# ----------------------------------------------------------------------
# Seeded sampling of codeword weights through the period identity.
# ----------------------------------------------------------------------

def sample_weights(tower: FieldTower, derived: DerivedParams,
                   nval_by_elem: np.ndarray, q_delta_e: tuple[int, int, int],
                   count: int, seed: int) -> np.ndarray:
    """Weights of `count` seeded-uniform inputs, via the period identity.

    nval_by_elem[v] must hold N * eta(class of v) for v != 0 and r - 1 at
    v = 0 (rational periods only).  Returns an int64 weight per sample.
    """
    q, delta, e = q_delta_e
    r, t = tower.r, derived.t
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, r, size=(count, t))
    elems = elem_of_code(tower)[codes]
    acc = np.zeros(count, dtype=np.int64)
    for h in range(e):
        v = None
        for tau in range(t):
            k = tower.pow(tower.mul(derived.g, derived.betas[tau]), h)
            term = tower.mul_constant_table(k)[elems[:, tau]]
            v = term if v is None else _vadd(tower, v, term)
        acc += nval_by_elem[v]
    num = (q - 1) * (e * (tower.r - 1) - acc)
    den = q * delta * e
    if np.any(num % den):
        raise NonIntegralWeight("sampled weight is not an integer")
    return num // den
