"""Exact arithmetic in the field tower GF(p) <= GF(q) <= GF(r).

Here q = p^s and r = q^m.  GF(r) is realized as GF(p)[x]/(f) for a monic
primitive f of degree d = s*m, so the residue class of x (written gamma)
generates the multiplicative group.  A field element with coefficient
vector (c_0, ..., c_{d-1}) over GF(p) is stored as the plain int
sum_i c_i * p**i; zero is 0, one is 1, and gamma is the int p when d >= 2
(for d = 1 gamma is the chosen primitive root itself).

Construction builds the full power table exp[k] = gamma^k and its inverse
dlog, so multiplication, inversion, and subgroup/coset questions are table
lookups.  That caps the usable field size (r <= DEFAULT_TABLE_CAP =
2^21), which is ample for desk-scale work; everything downstream indexes
cyclotomic structure through dlog.  The power table and the trace vectors
come from tables of GF(p)-linear maps (multiplication by gamma^B, Tr_{r/p}
and Tr_{r/q}), which one primitive, FieldTower._linear_map, writes digit
by digit in chunks, as dlog is filled.  Each r-entry table has the least
dtype for its values, set by r and p, written in it: exp2 (the power
table twice; exp views its first r - 1), dlog and the linear maps are
int32 while r <= 2^31, Tr_{r/p} fits p - 1 and Tr_{r/q} r - 1 (at s = 1
one table serves both).  Scalar reads go through int(): int32 * int wraps.

A FieldTower is immutable once built (its numpy tables are marked
read-only), so concurrent readers are safe.  build_field keeps the tower of
its last successful call and returns it again for equal arguments, so
consecutive builds of one field share one tower, with its lazily built trace
vectors and addition tables.  At most one tower is held: a new field drops
it once its modulus passes the checks, before the new tables are built.

Polynomials over GF(q) stay on the tower's arrays: a SubfieldPolynomial is
one read-only coefficient array, poly_mul_packed the one product, and
printing names each distinct coefficient value once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from math import isqrt

import numpy as np

from .errors import (
    GammaNotPrimitive,
    InvalidParameters,
    ModulusNotIrreducible,
    NotPrime,
    TowerTooLarge,
)

# A field element: coefficient vector over GF(p) packed in base p.
Element = int

DEFAULT_TABLE_CAP = 1 << 21


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays desk-sized here)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ----------------------------------------------------------------------
# Polynomials over GF(p): coefficient tuples, ascending degree, trimmed.
# ----------------------------------------------------------------------

def poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(tuple(out))


def poly_mod(a, f, p: int) -> tuple[int, ...]:
    """Remainder of a modulo f; f need not be monic."""
    a = list(poly_trim(a))
    f = poly_trim(f)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def poly_powmod(base, e: int, f, p: int) -> tuple[int, ...]:
    result = (1,)
    base = poly_mod(base, f, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), f, p)
        base = poly_mod(poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def poly_gcd(a, b, p: int) -> tuple[int, ...]:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def poly_sub(a, b, p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim(tuple((x - y) % p for x, y in zip(a, b)))


def is_irreducible(poly, p: int) -> bool:
    """Irreducibility over GF(p) by the derandomized Frobenius criterion.

    A monic f of degree d is irreducible iff x^(p^d) = x (mod f) and, for
    every prime divisor l of d, gcd(x^(p^(d/l)) - x, f) = 1.
    """
    f = poly_trim(tuple(c % p for c in poly))
    if len(f) <= 1:
        return False  # zero or a unit
    d = len(f) - 1
    if d == 1:
        return True
    x = (0, 1)
    for ell in factorize(d):
        xp = poly_powmod(x, p ** (d // ell), f, p)
        diff = poly_sub(xp, x, p)
        if not diff or len(poly_gcd(diff, f, p)) != 1:
            return False
    return poly_powmod(x, p ** d, f, p) == x


def _x_is_primitive(f, p: int, r: int) -> bool:
    """Does x generate the multiplicative group of GF(p)[x]/(f)?"""
    for ell in factorize(r - 1):
        if poly_powmod((0, 1), (r - 1) // ell, f, p) == (1,):
            return False
    return True


def _is_primitive_root(g: int, p: int) -> bool:
    """Does g generate GF(p)*?  (For p = 2 that is g = 1.)"""
    return g % p != 0 and all(
        pow(g, (p - 1) // ell, p) != 1 for ell in factorize(p - 1))


def smallest_primitive_root(p: int) -> int:
    for g in range(1, p):
        if _is_primitive_root(g, p):
            return g
    raise NotPrime(f"{p} has no primitive root; not prime?")


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Deterministic monic primitive modulus of degree d over GF(p).

    Degree 1 uses x - g with g the smallest primitive root mod p, so that
    gamma is the smallest primitive root.  Degree >= 2 returns the first
    monic polynomial with x primitive in lexicographic order of the
    ascending coefficient list (c_0 first, varying slowest).  The constant
    term of a primitive polynomial of degree d is (-1)^d times a primitive
    root of GF(p) (Lidl & Niederreiter, Finite Fields, Thm 3.18), so the
    scan visits only the c_0 blocks where (-1)^d * c_0 is a primitive root;
    no polynomial in a skipped block could have been selected.
    """
    if d == 1:
        g = smallest_primitive_root(p)
        return ((-g) % p, 1)
    r = p ** d
    sign = -1 if d % 2 else 1
    for c0 in range(1, p):
        if not _is_primitive_root(sign * c0, p):
            continue
        for tail in itertools.product(range(p), repeat=d - 1):
            f = (c0,) + tail + (1,)
            if is_irreducible(f, p) and _x_is_primitive(f, p, r):
                return f
    raise GammaNotPrimitive(
        f"no primitive polynomial of degree {d} over GF({p})")


def cyclotomic_coset(a: int, q: int, r: int) -> set[int]:
    """The orbit {a * q^j mod r-1}; its size is the degree of the minimal
    polynomial over GF(q) of gamma^(-a)."""
    n = r - 1
    a %= n
    coset = {a}
    b = (a * q) % n
    while b != a:
        coset.add(b)
        b = (b * q) % n
    return coset


# ----------------------------------------------------------------------
# The tower itself.
# ----------------------------------------------------------------------

class FieldTower:
    """GF(p) <= GF(q = p^s) <= GF(r = q^m) with a primitive gamma and full
    discrete-log table.  Use build_field() to construct: it checks p, s, m,
    the table cap and that the modulus is monic, of degree s*m and
    irreducible, and the constructor takes them as given.  A modulus whose x
    is not primitive fails in _build_tables."""

    def __init__(self, p: int, s: int, m: int, modulus: tuple[int, ...]):
        d = s * m
        self.p, self.s, self.m = p, s, m
        self.q = p ** s
        self.r = p ** d
        self.degree = d
        self.modulus = modulus
        self._build_tables()
        self.gamma: Element = int(self.exp2[1])

    def _linear_map(self, images, dtype) -> np.ndarray:
        """The image of every element, in element order, in `dtype`, under
        the GF(p)-linear map sending x^i to images[i].  Digit by digit, least
        significant first: each step outer-adds the p multiples of one image
        to the table so far, in chunks of 2^16 entries or one row."""
        p, table, step = self.p, np.zeros(1, dtype=dtype), 1 << 16
        k = np.arange(p, dtype=np.int64)[:, None]  # k c reaches (p - 1)^2
        for img in images:
            multiples = ((k * self.coeffs(img)) % p @ self._packing_weights
                         ).astype(dtype)
            out = np.empty((p, table.size), dtype)
            rows = max(1, step // table.size)
            for lo in range(0, p, rows):
                for j in range(0, table.size, step):
                    out[lo:lo + rows, j:j + step] = self.add_arrays(
                        multiples[lo:lo + rows, None], table[j:j + step])
            table = out.ravel()
        return table

    def _build_tables(self) -> None:
        """exp[k] = gamma^k in blocks of B = isqrt(r).  The first B + d
        powers come one at a time from the x gamma table; multiplication by
        gamma^B is GF(p)-linear, with x^i = gamma^i sent to gamma^(B+i), so
        every later block (and gamma^(r-1) = 1) comes from its table."""
        p, d, r = self.p, self.degree, self.r
        # multiplication by gamma sends x^i to x^(i+1), and x^(d-1) to
        # x^d = -(c_0 + ... + c_{d-1} x^(d-1))
        by_gamma = [p ** (i + 1) for i in range(d - 1)]
        by_gamma.append(self.from_coeffs(-c for c in self.modulus[:d]))
        times_gamma = self._linear_map(by_gamma, self._packing_weights.dtype)
        B = isqrt(r)
        head = [1]
        while len(head) < B + d:
            head.append(int(times_gamma[head[-1]]))
        del times_gamma  # one r-entry table off the peak
        times_block = self._linear_map(head[B:], self._packing_weights.dtype)
        exp2 = np.empty(2 * (r - 1), dtype=self._packing_weights.dtype)
        exp = exp2[:r - 1]
        exp[:B] = head[:B]
        for lo in range(B, r - 1, B):
            hi = min(lo + B, r - 1)
            exp[lo:hi] = times_block[exp[lo - B:hi - B]]
        if times_block[exp[r - 1 - B]] != 1:
            raise GammaNotPrimitive("gamma^(r-1) != 1 in the power table")
        del times_block
        exp2[r - 1:] = exp
        dlog = np.full(r, -1, dtype=exp.dtype)
        for lo in range(0, r - 1, 1 << 16):  # no r-entry arange
            part = exp[lo:lo + (1 << 16)]
            dlog[part] = np.arange(lo, lo + part.size, dtype=exp.dtype)
        if dlog[0] != -1 or np.any(dlog[1:] < 0):
            raise GammaNotPrimitive(
                f"x has order < r-1 modulo {self.modulus} over GF({p})")
        exp2.setflags(write=False)  # before the view, which copies the flag
        dlog.setflags(write=False)
        self.exp2, self.exp, self.dlog = exp2, exp2[:r - 1], dlog

    # -- element accessors -------------------------------------------------

    def coeffs(self, a: Element) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{d-1}) of a over GF(p)."""
        out = []
        for _ in range(self.degree):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> Element:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def gamma_pow(self, k: int) -> Element:
        return int(self.exp[k % (self.r - 1)])

    def dlog_of(self, a: Element) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no discrete log")
        return int(self.dlog[a])

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        if self.p == 2:
            return a ^ b
        p, out, w = self.p, 0, 1
        for _ in range(self.degree):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += ((ca + cb) % p) * w
            w *= p
        return out

    def neg(self, a: Element) -> Element:
        return self.mul(a, self.p - 1)

    def mul(self, a: Element, b: Element) -> Element:
        if a == 0 or b == 0:
            return 0
        k = int(self.dlog[a]) + int(self.dlog[b])
        return int(self.exp[k % (self.r - 1)])

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return int(self.exp[-int(self.dlog[a]) % (self.r - 1)])

    # -- bulk tables used by the enumeration and cyclotomy layers ------------

    def _trace_vector(self, k: int, top: int) -> np.ndarray:
        """sum_{j < d/k} x^(p^(kj)) of every element, shape (r,), read-only,
        in the least dtype that holds top.  The map is GF(p)-linear, so it is
        the linear map sending x^i = gamma^i to sum_j gamma^(i p^(kj))."""
        images = [reduce(self.add, (self.gamma_pow(i * self.p ** (k * j))
                                    for j in range(self.degree // k)))
                  for i in range(self.degree)]
        out = self._linear_map(images, np.min_scalar_type(top))
        out.setflags(write=False)
        return out

    @cached_property
    def trace_p_vector(self) -> np.ndarray:
        """Tr_{r/p} of every element, an int in [0, p)."""
        return self._trace_vector(1, self.p - 1)

    @cached_property
    def trace_q_vector(self) -> np.ndarray:
        """Tr_{r/q}(x) = sum_{i<m} x^(q^i) of every element, a packed GF(q)
        subfield value: an element of GF(r), not an int below q; at s = 1,
        Tr_{r/p}."""
        return (self.trace_p_vector if self.s == 1
                else self._trace_vector(self.s, self.r - 1))

    @cached_property
    def _add_tables(self) -> tuple[tuple[np.ndarray, int, np.ndarray], ...]:
        """(col, n, tab) per radix-P chunk of an element, least significant
        first.  P = p^j with j = d // 2 the largest j for which P^2 <= r
        (j = 1 when d = 1), and the last chunk may hold fewer digits.
        col[x] is the chunk of element x (r entries), and tab[u * n + v] is
        the digit-wise sum of chunks u and v, shifted into place (n^2 <= r
        entries)."""
        p, d, dtype = self.p, self.degree, self._packing_weights.dtype
        j = max(1, d // 2)
        digit = np.arange(p, dtype=dtype)
        one = (digit[:, None] + digit) % p
        out = []
        for lo in range(0, d, j):
            s = one
            for _ in range(min(j, d - lo) - 1):
                # prepend a more significant digit to both chunks
                n = len(s)
                s = (one[:, None, :, None] * n + s[None, :, None, :]
                     ).reshape(n * p, n * p)
            n = len(s)
            tab = (s * p ** lo).ravel()
            col = (np.arange(self.r) // p ** lo % n).astype(
                np.uint16 if n <= 2 ** 16 else np.int64)
            col.setflags(write=False)
            tab.setflags(write=False)
            out.append((col, n, tab))
        return tuple(out)

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition of packed-element arrays (broadcasts):
        XOR for p = 2, (a + b) mod p for d = 1, else one gather per radix-P
        chunk from its digit-wise addition table, sum_c tab_c[col_c[a] n_c +
        col_c[b]].  The result is int32 while r <= 2^31."""
        if self.p == 2:
            return a ^ b
        dtype = self._packing_weights.dtype
        if self.degree == 1:
            out = np.add(a, b, dtype=dtype)
            np.subtract(out, self.p, out=out, where=out >= self.p)
            return out
        out = None
        for col, n, tab in self._add_tables:
            idx = np.multiply(col.take(a), n, dtype=dtype) + col.take(b)
            term = tab.take(idx)
            out = term if out is None else np.add(out, term, out=out)
        return out

    @cached_property
    def _packing_weights(self) -> np.ndarray:
        return np.array([self.p ** i for i in range(self.degree)],
                        dtype=np.int32 if self.r <= 2 ** 31 else np.int64)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"FieldTower(p={self.p}, s={self.s}, m={self.m}, "
                f"r={self.r}, modulus={self.modulus})")


def build_field(p: int, s: int, m: int, modulus=None) -> FieldTower:
    """Construct the tower GF(p) <= GF(p^s) <= GF(p^(s*m)).

    The table cap is checked first: is_prime's trial division to sqrt(p)
    and p^(s m) past the cap's bit length never run for an oversized field.
    If modulus is omitted, a deterministic primitive modulus is selected
    (see default_modulus), so repeated builds agree.  A call with the same
    arguments as the last successful one (a list or tuple modulus alike)
    returns the same tower; a failed build is not kept.
    """
    return _build_field(p, s, m, None if modulus is None else tuple(modulus))


# One entry: the tower must not refer back to itself, so that reference
# counting frees the held tower when a miss clears the cache, before the
# next tables are built; the new tower is kept once it is built.
@lru_cache(maxsize=1)
def _build_field(p: int, s: int, m: int, modulus: tuple[int, ...] | None
                 ) -> FieldTower:
    if s < 1 or m < 1:
        raise InvalidParameters("s and m must be positive")
    d, cap = s * m, DEFAULT_TABLE_CAP
    if p > 1 and (d > cap.bit_length() or p ** d > cap):
        raise TowerTooLarge(f"r = {p}^{d} exceeds the table cap {cap}")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if modulus is None:  # the search returns only an irreducible modulus
        modulus = default_modulus(p, d)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise InvalidParameters(
                f"modulus must be monic of degree {d}, got {modulus}")
        if not is_irreducible(modulus, p):
            raise ModulusNotIrreducible(f"{modulus} factors over GF({p})")
    _build_field.cache_clear()
    return FieldTower(p, s, m, modulus)


# ----------------------------------------------------------------------
# Minimal polynomials over the middle field GF(q).
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubfieldPolynomial:
    """A monic polynomial with coefficients in the GF(q) subfield of GF(r).

    coeffs is one array of packed GF(r) elements in the tower's dtype,
    ascending, made read-only here; each is 0 or has log c = 0 mod
    (r-1)/(q-1), one array test.  Printing names each distinct value once: a
    GF(p) constant by its int, any other c by g^(log c / ((r-1)/(q-1))), g
    the generator gamma^((r-1)/(q-1)) of GF(q)*.  At s = 1, gfp_coeffs()
    gives the coefficients as a tuple of ints in [0, p).
    """

    tower: FieldTower
    coeffs: np.ndarray

    def __post_init__(self):
        tw, c = self.tower, np.asarray(self.coeffs, self.tower.exp2.dtype)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        bad = (c != 0) & (tw.dlog[c] % ((tw.r - 1) // (tw.q - 1)) != 0)
        if bad.any():
            raise ValueError(f"coefficient {c[bad.argmax()]} is not in GF(q)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def gfp_coeffs(self) -> tuple[int, ...]:
        if self.tower.s != 1:
            raise ValueError("coefficients live in GF(q) with q > p")
        return tuple(self.coeffs.tolist())  # packed GF(p) constants are ints

    def _names(self) -> tuple[list[str], np.ndarray]:
        """One name per distinct coefficient value, and each index into it."""
        tw = self.tower
        values, index = np.unique(self.coeffs, return_inverse=True)
        powers = tw.dlog[values] // ((tw.r - 1) // (tw.q - 1))
        names = [str(c) if c < tw.p else "g" if k == 1 else f"g^{k}"
                 for c, k in zip(values.tolist(), powers.tolist())]
        return names, index

    def serial(self) -> str:
        """Comma-separated ascending coefficient names."""
        names, index = self._names()
        return ",".join(np.array(names, dtype=object)[index].tolist())

    def __str__(self) -> str:
        return "".join(self.str_chunks(self.degree + 1))

    def str_chunks(self, terms: int):
        """str(self) in pieces of at most `terms` nonzero terms each, highest
        degree first, so that a long polynomial can be written out with no
        str per term held for all of it."""
        names, index = self._names()
        # the scaled name of each distinct nonzero value
        scaled = ["" if c == "1" else c if c.isdigit() else f"({c})"
                  for c in names]
        degrees = np.flatnonzero(self.coeffs)[::-1]
        if not degrees.size:
            yield "0"
        for lo in range(0, degrees.size, terms):
            chunk = degrees[lo:lo + terms]
            text = " + ".join(
                scaled[k] + ("x" if i == 1 else f"x^{i}") if i else names[k]
                for i, k in zip(chunk.tolist(), index[chunk].tolist()))
            yield text if lo == 0 else " + " + text


def poly_mul_packed(tower: FieldTower, a, b) -> np.ndarray:
    """Product of two polynomials with packed GF(r) coefficients, ascending:
    per nonzero coefficient gamma^k of the shorter factor, the longer one
    shifted into place, times gamma^k through its logs (exp2[k + l]), is
    added in with add_arrays."""
    a, b = sorted((np.asarray(x, dtype=tower.exp2.dtype) for x in (a, b)),
                  key=len)
    out = np.zeros(len(a) + len(b) - 1, dtype=a.dtype)
    nonzero, log_b = b != 0, tower.dlog[b]
    for i in np.flatnonzero(a):
        term = np.where(nonzero, tower.exp2[log_b + tower.dlog[a[i]]], 0)
        out[i:i + len(b)] = tower.add_arrays(out[i:i + len(b)], term)
    return out


def min_poly(tower: FieldTower, beta: Element) -> SubfieldPolynomial:
    """Minimal polynomial of beta over GF(q): the product of (X - gamma^k)
    over k in the q-cyclotomic coset of log beta, the conjugates of beta."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    coset = cyclotomic_coset(tower.dlog_of(beta), tower.q, tower.r)
    coeffs = reduce(partial(poly_mul_packed, tower), (
        (tower.neg(tower.gamma_pow(k)), 1) for k in coset), (1,))
    return SubfieldPolynomial(tower, coeffs)
