"""Shared test utilities: cached towers, independent float oracles, the
unpruned modulus scan and scalar power table, the unreduced and unchunked
enumeration kernels (with their own digit-by-digit field additions), the
unblocked sampling kernel, scalar powers and the GF(q) membership test,
the trace basis and scalar traces, the scalar polynomial product and long
division behind the reference parity-check and generator polynomials, scalar
codewords and the scalar period-sum weight, the t = e closed table summed
over compositions, class tables, vanishing-pattern counts, the
deterministic spec grid used by the method-agreement and invariant tests,
and wrappers that validate a spec before classify, wd_closed and
build_polynomials."""

from __future__ import annotations

import cmath
import functools
import random
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from cyclotome import _engine
from cyclotome._engine import weights_of_period_sums
from cyclotome.codes import (
    CodeSpec,
    build_polynomials,
    derive_params,
    validate_assumptions,
)
from cyclotome.errors import (
    CapExceeded,
    GammaNotPrimitive,
    NonIntegralWeight,
    NotADivisor,
)
from cyclotome.gf import _x_is_primitive, build_field, is_irreducible
from cyclotome.weights import classify, integer_periods, wd_closed


@functools.lru_cache(maxsize=None)
def tower(p, s, m, modulus=None):
    return build_field(p, s, m, modulus=modulus)


def tower_for(spec: CodeSpec):
    return tower(spec.p, spec.s, spec.m, spec.modulus)


def classify_spec(tw, spec: CodeSpec, derived):
    """classify with the spec's own assumption report."""
    return classify(tw, spec, derived, validate_assumptions(tw, spec, derived))


def closed_dist(tw, spec: CodeSpec, derived):
    """wd_closed of the spec's own classification."""
    return wd_closed(tw, derived, classify_spec(tw, spec, derived))


def polynomials(tw, spec: CodeSpec, derived):
    """build_polynomials from the spec's own assumption report."""
    return build_polynomials(tw, derived,
                             validate_assumptions(tw, spec, derived))


@functools.lru_cache(maxsize=None)
def digit_matrix(tower):
    """Shape (r, d) array of GF(p) coefficient vectors, row k = coeffs(k),
    stored digit-major: each column is one contiguous r-vector."""
    dtype = (np.uint8 if tower.p < 2 ** 8 else
             np.uint16 if tower.p < 2 ** 16 else np.int64)
    out = np.empty((tower.degree, tower.r), dtype=dtype)
    rest = np.arange(tower.r, dtype=np.int64)
    for i in range(tower.degree):
        rest, out[i] = np.divmod(rest, tower.p)
    out.setflags(write=False)
    return out.T


@functools.lru_cache(maxsize=None)
def trace_basis(tower) -> tuple[int, ...]:
    """Tr_{r/p}(x^i) for i < d, via Newton's identities on the modulus."""
    p, d = tower.p, tower.degree
    a = tower.modulus  # a[i] is the coefficient of x^i, a[d] = 1
    s = [0] * d
    s[0] = d % p
    for k in range(1, d):
        acc = (k * a[d - k]) % p
        for i in range(1, k):
            acc = (acc + a[d - i] * s[k - i]) % p
        s[k] = (-acc) % p
    return tuple(s)


def trace_to_p(tower, a):
    """Tr_{r/p}(a) = sum of the p-power conjugates, as an int in [0, p):
    the scalar form of tower.trace_p_vector, through the trace basis."""
    basis = trace_basis(tower)
    p, out = tower.p, 0
    for i in range(tower.degree):
        a, c = divmod(a, p)
        out = (out + c * basis[i]) % p
    return out


def field_pow(tower, a, k):
    """a^k in GF(r) for any int k, through the power table."""
    if a == 0:
        if k < 0:
            raise ZeroDivisionError("0 is not invertible")
        return 0 if k else 1
    return int(tower.exp[int(tower.dlog[a]) * k % (tower.r - 1)])


def in_subfield_q(tower, a):
    """Whether a lies in the GF(q) subfield: a = 0 or a^q = a."""
    return a == 0 or field_pow(tower, a, tower.q) == a


def trace_to_q(tower, a):
    """Tr_{r/q}(a) = sum_{i<m} a^(q^i), an element of the GF(q) subfield:
    the scalar form of tower.trace_q_vector."""
    out = 0
    for i in range(tower.m):
        out = tower.add(out, field_pow(tower, a, tower.q ** i))
    return out


def float_periods(tw, L):
    """Independent complex-arithmetic period oracle (rounded)."""
    vals = [0j] * L
    for k in range(tw.r - 1):
        x = int(tw.exp[k])
        vals[k % L] += cmath.exp(2j * cmath.pi * trace_to_p(tw, x) / tw.p)
    return [complex(round(v.real, 6), round(v.imag, 6)) for v in vals]


def cyclo_to_complex(p, row):
    """The complex value of sum_c row[c] zeta_p^c."""
    z = cmath.exp(2j * cmath.pi / p)
    return sum(c * z ** i for i, c in enumerate(row))


def default_modulus_unpruned(p, d):
    """Reference for gf.default_modulus at degree d >= 2: the first monic
    polynomial with x primitive, scanning every constant term."""
    r = p ** d
    counters = [0] * d  # c_0 .. c_{d-1}, c_0 varies slowest
    while True:
        if counters[0] != 0:  # constant term 0 means x divides f
            f = tuple(counters) + (1,)
            if is_irreducible(f, p) and _x_is_primitive(f, p, r):
                return f
        # increment the lex counter: last coefficient fastest
        i = d - 1
        while i >= 0:
            counters[i] += 1
            if counters[i] < p:
                break
            counters[i] = 0
            i -= 1
        if i < 0:
            raise GammaNotPrimitive(
                f"no primitive polynomial of degree {d} over GF({p})")


def power_table_scalar(tower):
    """Reference for FieldTower.exp: gamma^k for k < r-1, one element at a
    time by shift-and-reduce, in the dtype of the tower's tables."""
    p, d, r = tower.p, tower.degree, tower.r
    exp = np.empty(r - 1, dtype=tower.dlog.dtype)
    if d == 1:
        g = tower.gamma
        v = 1
        for k in range(r - 1):
            exp[k] = v
            v = (v * g) % p
    elif p == 2:
        # packed bits; reduction is a single XOR with the modulus mask
        fmask = 0
        for i, c in enumerate(tower.modulus):
            fmask |= c << i
        top = 1 << d
        v = 1
        for k in range(r - 1):
            exp[k] = v
            v <<= 1
            if v & top:
                v ^= fmask
        assert v == 1
    else:
        mod = tower.modulus[:d]
        coeffs = [0] * d
        coeffs[0] = 1
        ppow = [p ** i for i in range(d)]
        for k in range(r - 1):
            exp[k] = sum(c * w for c, w in zip(coeffs, ppow))
            carry = coeffs[d - 1]
            coeffs[1:] = coeffs[: d - 1]
            coeffs[0] = 0
            if carry:
                for i in range(d):
                    coeffs[i] = (coeffs[i] - carry * mod[i]) % p
        assert coeffs[0] == 1 and not any(coeffs[1:])
    return exp


def elem_of_code(tower):
    """Element of each grid code: code 0 is zero, code 1 + k is gamma^k."""
    return np.concatenate(([0], tower.exp))


def _vadd_outer(tower, A, B):
    """All pairwise field sums, flattened: result[i*len(B)+j] = A[i] + B[j]."""
    if tower.p == 2:
        return (A[:, None] ^ B[None, :]).ravel()
    dm = digit_matrix(tower)
    dig = (dm[A][:, None, :].astype(np.int16) + dm[B][None, :, :]) % tower.p
    return (dig.astype(np.int64) @ tower._packing_weights).ravel()


def _vadd(tower, A, B):
    """Elementwise field sum of same-shape packed arrays."""
    if tower.p == 2:
        return A ^ B
    dm = digit_matrix(tower)
    dig = (dm[A].astype(np.int16) + dm[B]) % tower.p
    return dig.astype(np.int64) @ tower._packing_weights


def fold_sum(tower, luts):
    """Values of sum_tau lut_tau[code_tau] over the full grid, flat order."""
    arr = luts[0]
    for lut in luts[1:]:
        arr = _vadd_outer(tower, arr, lut)
    return arr


def mul_constant_table(tower, c):
    """Lookup table t with t[x] = c * x for every element x."""
    out = np.zeros(tower.r, dtype=np.int64)
    if c != 0:
        k = tower.dlog_of(c)
        out[tower.exp] = tower.exp[(np.arange(tower.r - 1) + k) % (tower.r - 1)]
    return out


def step_and_roots(tower, derived):
    """The step g = gamma^a and the column roots beta_tau = gamma^(a_tau - a)
    as field elements, for references that multiply by them."""
    return (tower.gamma_pow(derived.a),
            [tower.gamma_pow(ai - derived.a) for ai in derived.a_list])


def _per_h_luts(tower, derived, with_g):
    """luts[h][tau][code] = K * elem(code) with K = (g b_tau)^h (or b_tau^h),
    through one multiplication table per constant."""
    eoc = elem_of_code(tower)
    g, betas = step_and_roots(tower, derived)
    out = []
    for h in range(derived.e):
        row = []
        for b in betas:
            base = tower.mul(g, b) if with_g else b
            row.append(mul_constant_table(
                tower, field_pow(tower, base, h))[eoc].astype(np.int32))
        out.append(row)
    return out


def period_argument_folds(tower, derived):
    """Per-coordinate machinery for the e period arguments
    v_h(x) = g^h sum_tau x_tau beta_tau^h: returns (luts, subs) where
    luts[h][0] covers the x_1 axis by code and subs[h] is the folded value
    of the remaining axes (length r^(t-1))."""
    luts = _per_h_luts(tower, derived, with_g=True)
    subs = [fold_sum(tower, luts[h][1:]).astype(np.int32)
            for h in range(derived.e)]
    return luts, subs


def naive_weight_counts_unreduced(tower, derived):
    """Reference for _engine.naive_weight_counts: counts[w] over all r^t
    inputs, walking the n coordinates on the full t-axis grid."""
    r, t = tower.r, derived.t
    size = r ** t
    U = fold_sum(tower, [elem_of_code(tower)] * t)

    P = np.zeros((r,) * t, dtype=np.int32 if size < 2**31 else np.int64)
    for j, a in enumerate(derived.a_list):
        pi = np.empty(r, dtype=np.int64)
        pi[0] = 0
        pi[1:] = 1 + (np.arange(r - 1) + a) % (r - 1)
        stride = r ** (t - 1 - j)
        shape = (1,) * j + (r,) + (1,) * (t - 1 - j)
        P += (pi * stride).astype(P.dtype).reshape(shape)
    P = P.ravel()

    nz = tower.trace_q_vector != 0
    wdtype = np.uint16 if derived.n < 2**16 else np.uint32
    wacc = np.zeros(size, dtype=wdtype)
    for i in range(derived.n):
        wacc += nz[U]
        if i + 1 < derived.n:
            U = U[P]
    return np.bincount(wacc, minlength=derived.n + 1)


def period_sum_tally_unreduced(tower, derived, nval_by_elem):
    """Reference for _engine.period_sum_tally: tally[X] over all r^t inputs,
    one slab per x_1, with field additions done digit by digit."""
    r, e = tower.r, derived.e
    luts, subs = period_argument_folds(tower, derived)
    top = 2 * e * (r - 1)
    tally = np.zeros(top + 1, dtype=np.int64)
    dm = digit_matrix(tower)
    if tower.p != 2:
        sub_digits = [dm[s].astype(np.int16) for s in subs]
    for c1 in range(r):
        acc = None
        for h in range(e):
            off = luts[h][0][c1]
            if tower.p == 2:
                v = subs[h] ^ off
            else:
                dig = (sub_digits[h] + dm[off]) % tower.p
                v = dig.astype(np.int64) @ tower._packing_weights
            term = nval_by_elem[v]
            acc = term.copy() if acc is None else acc + term
        X = e * (r - 1) - acc
        assert X.min() >= 0, "negative scaled period sum"
        tally += np.bincount(X, minlength=top + 1)
    return tally


def period_sum_tally_all_slabs(tower, derived, nval_by_elem):
    """Reference for _engine.period_sum_tally at sizes the digit-by-digit
    oracle cannot reach: the engine's sweep (checked against that oracle
    on small specs) with every x_1 code a slab of multiplicity 1, so no
    orbit is reduced."""
    r, e = tower.r, derived.e
    luts = np.array(_per_h_luts(tower, derived, with_g=True))
    return _engine._sweep(tower, luts[:, 0], np.ones(r, dtype=np.int64),
                          luts[:, 1:], [(r - 1) - nval_by_elem] * e,
                          2 * e * (r - 1) + 1)


def pair_orbit_labels(tower, a1, a2):
    """Brute-force orbits of the shift (x_1, x_2) -> (x_1 g^a1, x_2 g^a2),
    GF(q)* scaling and Frobenius on all r^2 code pairs (flat index
    c1 r + c2): a label per pair, equal exactly within an orbit.  Union by
    label propagation: each round takes the least label over each
    generator's image and then the label's own label, until nothing moves,
    so every label stays a member of its pair's orbit and ends constant on
    it."""
    r, r1, p = tower.r, tower.r - 1, tower.p
    codes = np.arange(r)

    def mapped(k):  # code of gamma^k times each code
        return np.where(codes == 0, 0, 1 + (codes - 1 + k) % r1)

    frob = np.where(codes == 0, 0, 1 + (codes - 1) * p % r1)
    scale = r1 // (tower.q - 1)
    gens = [(mapped(a1)[:, None] * r + mapped(a2)[None, :]).ravel(),
            (mapped(scale)[:, None] * r + mapped(scale)[None, :]).ravel(),
            (frob[:, None] * r + frob[None, :]).ravel()]
    label = np.arange(r * r)
    while True:
        new = label
        for g in gens:
            new = np.minimum(new, new[g])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def profile_code_tally_unchunked(tower, derived, N):
    """Reference for _engine.profile_code_tally: one slab per x_1 over the
    whole (t-1)-axis fold, with field additions done digit by digit."""
    r, e = tower.r, derived.e
    base = N + 1
    cls = np.full(r, N, dtype=np.int64)
    cls[tower.exp] = np.arange(r - 1, dtype=np.int64) % N
    luts, subs = period_argument_folds(tower, derived)
    powers = [base ** h for h in range(e)]
    tally = np.zeros(base ** e, dtype=np.int64)
    dm = digit_matrix(tower)
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


def vanishing_mask_tally_unchunked(tower, derived):
    """Reference for vanishing_mask_tally: one slab per x_1 over
    the whole (t-1)-axis fold, with field additions done digit by digit."""
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


def sample_weights_unblocked(tower, derived, class_values, q_delta_e,
                             count, seed):
    """Reference for _engine.sample_weights, whose tally is the Counter of
    these per-draw weights: one (count, t) draw, one r-entry multiplication
    table per (h, tau), and the N + 1 class values spread into one value
    per element (gamma^k takes class k mod N, 0 the last value)."""
    q, delta, e = q_delta_e
    r, t = tower.r, derived.t
    class_values = np.asarray(class_values, dtype=np.int64)
    nval_by_elem = np.full(r, class_values[derived.N])
    nval_by_elem[tower.exp] = class_values[np.arange(r - 1) % derived.N]
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, r, size=(count, t))
    elems = elem_of_code(tower)[codes]
    g, betas = step_and_roots(tower, derived)
    acc = np.zeros(count, dtype=np.int64)
    for h in range(e):
        v = None
        for tau in range(t):
            k = field_pow(tower, tower.mul(g, betas[tau]), h)
            term = mul_constant_table(tower, k)[elems[:, tau]]
            v = term if v is None else tower.add_arrays(v, term)
        acc += nval_by_elem[v]
    num = (q - 1) * (e * (tower.r - 1) - acc)
    den = q * delta * e
    if np.any(num % den):
        raise NonIntegralWeight("sampled weight is not an integer")
    return num // den


def trace_to_subfield(tower, x, target):
    """Trace of x down to GF(q) (target="q") or GF(p) (target="p")."""
    if target == "q":
        return trace_to_q(tower, x)
    if target == "p":
        return trace_to_p(tower, x)
    raise ValueError(f"target must be 'q' or 'p', got {target!r}")


@dataclass(frozen=True)
class CyclotomicClassTable:
    """Order-L cyclotomic classes of GF(r)*: class i is gamma^i <gamma^L>."""

    tower: object
    L: int

    @property
    def class_size(self):
        return (self.tower.r - 1) // self.L

    def index_of(self, x):
        return self.tower.dlog_of(x) % self.L

    def class_elements(self, i):
        return (int(v) for v in self.tower.exp[i % self.L::self.L])


def cyclotomic_classes(tower, L):
    if L < 1 or (tower.r - 1) % L:
        raise NotADivisor(f"L = {L} does not divide r - 1 = {tower.r - 1}")
    return CyclotomicClassTable(tower, L)


def modified_period(pset, v):
    """(r-1)/L at v = 0, otherwise the period of v's class: a plain int
    whenever the value is rational, else its normalized count row."""
    if v == 0:
        return pset.eta_bar_zero
    return pset.values[pset.tower.dlog_of(v) % pset.L]


def eval_poly(poly, x):
    """Value at x of a SubfieldPolynomial, by Horner's rule in GF(r)."""
    t = poly.tower
    acc = 0
    for c in reversed(poly.coeffs):
        acc = t.add(t.mul(acc, x), c)
    return acc


def subfield_name(tower, c):
    """Printed name of c in GF(q), by search: a GF(p) constant is its int,
    else g^k (plain g at k = 1) for the k with g^k = c, g =
    gamma^((r-1)/(q-1))."""
    if c < tower.p:
        return str(c)
    g = tower.gamma_pow((tower.r - 1) // (tower.q - 1))
    k = next(k for k in range(1, tower.q - 1) if field_pow(tower, g, k) == c)
    return "g" if k == 1 else f"g^{k}"


def poly_str_scalar(tower, coeffs):
    """Text form of a polynomial with GF(q) coefficients, ascending, one
    coefficient at a time: descending terms, 0 left out, 1 x^i as x^i and a
    power of g in parentheses."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            cs = subfield_name(tower, coeffs[i])
            xi = "x" if i == 1 else f"x^{i}"
            terms.append(cs if i == 0 else xi if cs == "1" else f"{cs}{xi}"
                         if cs.isdigit() else f"({cs}){xi}")
    return " + ".join(terms) if terms else "0"


def poly_mul_scalar(tower, a, b):
    """Product of two polynomials with GF(r) coefficients, ascending, one
    scalar multiplication and addition per pair of coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = tower.add(out[i + j], tower.mul(ai, bj))
    return out


def poly_divmod_monic(tower, num, den):
    """(quotient, remainder) of num by the monic den, by scalar long
    division."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for k in range(dd + 1):
                num[i - dd + k] = tower.add(
                    num[i - dd + k], tower.neg(tower.mul(c, den[k])))
    return quot, num[:dd]


def polynomials_by_division(tower, derived):
    """Reference for build_polynomials: (h, g) as coefficient tuples.  Each
    h_i is the product of X - c over the conjugates c = beta^(q^j) of
    beta = gamma^(-a_i), found by powering; h is their scalar product and
    g = (x^n - 1) / h by scalar long division, whose remainder must be 0."""
    h = [1]
    for ai in derived.a_list:
        c = beta = tower.gamma_pow(-ai)
        while True:
            h = poly_mul_scalar(tower, h, [tower.neg(c), 1])
            c = field_pow(tower, c, tower.q)
            if c == beta:
                break
    xn1 = [tower.neg(1)] + [0] * (derived.n - 1) + [1]
    g, rem = poly_divmod_monic(tower, xn1, h)
    if any(rem):
        raise ArithmeticError("h does not divide x^n - 1")
    return tuple(h), tuple(g)


def codeword(tower, derived, x_vec):
    """Symbols Tr_{r/q}(sum_j x_j gamma^(a_j i)) for i = 0..n-1."""
    powers = [tower.gamma_pow(ai) for ai in derived.a_list]
    cur = list(x_vec)
    out = []
    for _ in range(derived.n):
        acc = 0
        for xj in cur:
            acc = tower.add(acc, xj)
        out.append(trace_to_q(tower, acc))
        cur = [tower.mul(xj, w) for xj, w in zip(cur, powers)]
    return tuple(out)


def period_arguments(tower, derived, x_vec):
    """The e period arguments g^h sum_tau x_tau beta_tau^h, one at a time."""
    g, betas = step_and_roots(tower, derived)
    out = []
    for h in range(derived.e):
        v = 0
        for x, b in zip(x_vec, betas):
            v = tower.add(v, tower.mul(x, field_pow(tower, b, h)))
        out.append(tower.mul(field_pow(tower, g, h), v))
    return out


def codeword_weight_from_periods(tower, derived, pset, x_vec):
    """Scalar oracle: the Hamming weight of the codeword of x_vec via the
    period-sum identity, in ints,

        w = (q-1)/(q delta e) * [ e (r-1) - N T ],
        T = sum_h modified_period(g^h * sum_tau x_tau beta_tau^h).
    """
    if pset.L != derived.N:
        raise ValueError(f"need periods of order N = {derived.N}, got {pset.L}")
    periods = integer_periods(pset)
    q, r, e = tower.q, tower.r, derived.e
    NT = sum(r - 1 if v == 0 else derived.N * periods[tower.dlog_of(v) % pset.L]
             for v in period_arguments(tower, derived, x_vec))
    num = (q - 1) * (e * (r - 1) - NT)
    den = q * derived.delta * e
    if num % den:
        raise NonIntegralWeight(f"weight {num}/{den} is not an integer")
    w = num // den
    if not 0 <= w <= derived.n:
        raise NonIntegralWeight(f"weight {w} outside [0, n]")
    return w


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def closed_te_n2_compositions(tower, derived, periods):
    """Reference for weights._closed_te_n2: one term per composition
    u_0 + ... + u_mu = e of the e period arguments over zero and the mu
    distinct period values, with its multinomial frequency."""
    r, e, N = tower.r, derived.e, derived.N
    groups = sorted(Counter(periods).items())  # (eta_j, tau_j)
    out = {}
    for u in _compositions(e, len(groups) + 1):
        u0, us = u[0], u[1:]
        X = sum(uj * ((r - 1) - N * eta) for uj, (eta, _) in zip(us, groups))
        freq = (factorial(e) // prod(factorial(x) for x in u)
                * ((r - 1) // N) ** (e - u0)
                * prod(tau ** uj for (_, tau), uj in zip(groups, us)))
        out[X] = out.get(X, 0) + freq
    return out


def decode_profile(code, N, e):
    """(u_zero, per-class counts) of a packed class-sequence code."""
    counts = [0] * (N + 1)
    for _ in range(e):
        code, digit = divmod(code, N + 1)
        counts[digit] += 1
    return counts[N], tuple(counts[:N])


def profile_weight(tower, derived, periods, u_zero, class_counts):
    """The weight of every input whose period arguments are u_zero zeros and
    class_counts[i] members of class i, through the engine's weight map."""
    r, N = tower.r, derived.N
    X = (derived.e - u_zero) * (r - 1) - N * sum(
        c * eta for c, eta in zip(class_counts, periods))
    return int(weights_of_period_sums(np.array([X]), tower.q, derived.delta,
                                      derived.e)[0])


def vanishing_mask_tally(tower, derived):
    """tally[mask] = number of inputs (including 0) whose sparse linear forms
    sum_tau x_tau beta_tau^h vanish exactly on the coordinate set encoded by
    mask's bits: the engine's sweep with one bit table per h."""
    r, e = tower.r, derived.e
    is_zero = (np.arange(r) == 0).astype(np.int64)
    luts = np.array(_per_h_luts(tower, derived, with_g=False))
    return _engine._sweep(tower, luts[:, 0], np.ones(r, dtype=np.int64),
                          luts[:, 1:], [is_zero << h for h in range(e)],
                          1 << e)


def count_vanishing_patterns(tower, derived, E, cap=10 ** 8):
    """Number of nonzero inputs whose form values sum_tau x_tau beta_tau^h
    vanish exactly for h in E (and nowhere else)."""
    size = tower.r ** derived.t
    if size > cap:
        raise CapExceeded(f"r^t = {size} exceeds the cap {cap}")
    E = frozenset(E)
    if not all(0 <= h < derived.e for h in E):
        raise ValueError("pattern indices must lie in [0, e)")
    count = int(vanishing_mask_tally(tower, derived)[sum(1 << h for h in E)])
    if len(E) == derived.e:
        count -= 1  # the all-zero input vanishes everywhere
    return count


GRID_TOWERS = (
    (2, 1, 4), (2, 2, 2), (2, 1, 6), (2, 2, 3), (2, 3, 2),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 1, 5), (3, 1, 6),
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 2, 2),
    (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2), (17, 1, 2),
    (19, 1, 2), (23, 1, 2), (29, 1, 2), (31, 1, 2),
)
GRID_SEED = 20260811
GRID_MAX_INPUTS = 10 ** 6
GRID_MAX_WORK = 6 * 10 ** 8  # inputs * length, bounds the naive pass


@functools.lru_cache(maxsize=1)
def criterion_grid():
    """Deterministic, seeded grid of valid closed-form specs with
    r^t <= 1e6, spanning every supported classification."""
    rng = random.Random(GRID_SEED)
    specs = []
    seen = set()
    per_cat_tower = Counter()
    per_cat = Counter()
    for (p, s, m) in GRID_TOWERS:
        tw = tower(p, s, m)
        r = tw.r
        for e in [e for e in range(2, 20) if (r - 1) % e == 0]:
            for t in sorted({e, 2, 3} & set(range(2, e + 1))):
                if r ** t > GRID_MAX_INPUTS:
                    continue
                a_cands = sorted(set(
                    list(range(1, 13))
                    + [rng.randrange(1, r - 1) for _ in range(6)]))
                for a in a_cands:
                    if t == e:
                        deltas = tuple(range(e))
                    else:
                        start = rng.randrange(e)
                        deltas = tuple(sorted((start + i) % e
                                              for i in range(t)))
                    key = (p, s, m, e, t, a, deltas)
                    if key in seen:
                        continue
                    seen.add(key)
                    sp = CodeSpec(p, s, m, e, t, a, deltas)
                    d = derive_params(tw, sp)
                    if r ** t * d.n > GRID_MAX_WORK:
                        continue
                    rep = validate_assumptions(tw, sp, d)
                    if not rep.all_hold:
                        continue
                    cl = classify(tw, sp, d, rep)
                    if not cl.supported:
                        continue
                    cat = (cl.tag, cl.period_source)
                    if per_cat_tower[(cat, r)] >= 2 or per_cat[cat] >= 12:
                        continue
                    per_cat_tower[(cat, r)] += 1
                    per_cat[cat] += 1
                    specs.append((sp, d, cl))
    return tuple(specs)
