"""Cyclotomic classes, cyclotomic numbers, and exact Gaussian periods.

The canonical additive character of GF(r) sends x to zeta^Tr(x) with zeta a
primitive p-th root of unity and Tr the trace down to GF(p).  Sums of
character values therefore live in the ring Z[zeta], and a period is kept
exactly as its count row: the multiplicities of zeta^0, ..., zeta^(p-1),
which for the oracle are the numbers of class elements of each trace.
Since 1 + zeta + ... + zeta^(p-1) = 0, adding a constant to a row keeps its
value, and the value is a rational integer exactly when all counts above
index 0 agree.  The order-L periods are one read-only (L, p) int64 count
matrix, and the oracle and every closed form build their GaussianPeriodSet
through one checked constructor: the periods must sum to -1, and integer
periods must satisfy Parseval's L sum eta_i^2 = 1 + (L - 1) r.

The Gaussian period of class i is the character sum over the coset
C_i = gamma^i <gamma^L>, computed here by tallying trace values (the exact
oracle, no floating point anywhere).  When L divides (r-1)/(q-1), as the
order N of the weight formulas does, GF(q)* lies in C_0 and every period
is the integer (q Z_i - |C_i|)/(q-1), Z_i the number of y in C_i with
Tr_{r/q}(y) = 0; irrational values arise only for other L.  Closed forms
are implemented for four classical situations:

* order2:        L = 2, quadratic Gauss sums; at even s*m this is the
                 semiprimitive form with j = 1 (p = -1 mod 2);
* order3:        L = 3 with p = 1 mod 3 and 3 | s*m, via 4p^(sm/3) = c^2 + 27d^2;
* semiprimitive: p^j = -1 mod L, two rational values;
* index2:        L = 3 mod 4 prime, L != 3, with <p> of index 2 in (Z/L)*,
                 i.e. ord_L(p) = (L-1)/2, via the class number of
                 Q(sqrt(-L)) and a^2 + L b^2 = 4 p^h.

applicable_closed_form is the one statement of these hypotheses, and
gaussian_periods_closed_form(tower, L) the one call that picks the form
and builds it, or returns None.  Closed forms are always cross-checkable
against the exact oracle; the order3 and index2 variants use the oracle to
pin the class labels that genuinely depend on the choice of gamma (only
the value multiset is canonical there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from operator import mul

import numpy as np

from .errors import (
    BadL,
    CapExceeded,
    InconsistentPeriods,
    NoDiophantineSolution,
    NotADivisor,
)
from .gf import FieldTower, factorize, is_prime


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


# int64 entries of one order-L count table (L p trace counts, L (L + 1)
# cyclotomic numbers): 32 MB, and every order at p = 2 under the table cap
COUNT_TABLE_ENTRIES = 1 << 22


def _check_order(tower: FieldTower, L: int, entries: int) -> None:
    """Refuse, before any allocation, an L not dividing r - 1 or a table
    of more than COUNT_TABLE_ENTRIES entries."""
    if L < 1 or (tower.r - 1) % L:
        raise NotADivisor(f"L = {L} does not divide r - 1 = {tower.r - 1}")
    if entries > COUNT_TABLE_ENTRIES:
        raise CapExceeded(f"the order-{L} count table has {entries} entries, "
                          f"over the budget of {COUNT_TABLE_ENTRIES}")


def _class_tally(tower: FieldTower, L: int, width: int, label) -> np.ndarray:
    """The (L, width) int64 matrix counting, per class, the x with label(x)
    = c, for label an array map into range(width).  gamma^k is in class
    k mod L, so the power table as rows of L holds class i in column i; it
    is labeled and tallied max(2^16 // L, width) rows at a time."""
    _check_order(tower, L, L * width)
    xs = tower.exp.reshape(-1, L)
    shift, step = np.arange(0, L * width, width), max(2 ** 16 // L, width)
    tall = np.zeros(L * width, dtype=np.int64)
    for lo in range(0, len(xs), step):
        tall += np.bincount((label(xs[lo:lo + step]) + shift).ravel(),
                            minlength=L * width)
    return tall.reshape(L, width)


# ----------------------------------------------------------------------
# Cyclotomic numbers.
# ----------------------------------------------------------------------

def cyclotomic_numbers(tower: FieldTower, L: int) -> np.ndarray:
    """The L x L matrix whose (i, j) entry counts x in C_i with x + 1 in C_j.

    Adding 1 to a packed element only changes its constant digit; the
    class of x + 1 is tallied with x = -1 (x + 1 = 0) in a spare column L.
    """
    p = tower.p

    def class_of_next(x):
        j = tower.dlog.take(x - x % p + (x + 1) % p)
        return np.where(j < 0, L, j % L)

    return _class_tally(tower, L, L + 1, class_of_next)[:, :L]


# ----------------------------------------------------------------------
# Gaussian periods: exact oracle.
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianPeriodSet:
    """Exact order-L Gaussian periods of GF(r), indexed by class.

    rows is the (L, p) int64 count matrix, made read-only here:
    rows[i, c] is the multiplicity of zeta^c in eta_i.  values[i] is the
    int rows[i, 0] - rows[i, 1] when the counts past index 0 agree, and
    otherwise the row shifted to end in 0, so that equal periods have equal
    values.  _period_set is the checked constructor.
    """

    tower: FieldTower
    L: int
    rows: np.ndarray

    def __post_init__(self):
        self.rows.flags.writeable = False

    @property
    def eta_bar_zero(self) -> int:
        """The modified period at the zero argument, (r - 1) / L."""
        return (self.tower.r - 1) // self.L

    @cached_property
    def values(self) -> tuple:
        rows = self.rows
        values = (rows[:, 0] - rows[:, 1]).tolist()
        unequal = rows[:, 2:] != rows[:, 1:2]
        if unequal.any():
            irr = np.flatnonzero(unequal.any(axis=1))
            shifted = (rows[irr] - rows[irr, -1:]).tolist()
            for i, row in zip(irr.tolist(), shifted):
                values[i] = tuple(row)
        return tuple(values)

    @property
    def rational_values(self) -> tuple:
        return tuple(v if isinstance(v, int) else None for v in self.values)


def _period_set(tower: FieldTower, L: int, rows: np.ndarray
                ) -> GaussianPeriodSet:
    """The period set of count matrix rows, checked two ways: the periods
    sum to -1 (G(chi_0) = -1), and integer periods have the second moment
    L sum eta_i^2 = 1 + (L - 1) r (Parseval, from |G(chi)|^2 = r)."""
    total = rows.sum(axis=0).tolist()
    if len(set(total[1:])) != 1 or total[0] - total[1] != -1:
        raise InconsistentPeriods(
            "period sum must be -1 (character orthogonality)")
    pset = GaussianPeriodSet(tower, L, rows)
    ints = pset.rational_values
    if (None not in ints
            and L * sum(map(mul, ints, ints)) != 1 + (L - 1) * tower.r):
        raise InconsistentPeriods(
            "L sum eta_i^2 must be 1 + (L - 1) r (Parseval)")
    return pset


def _int_rows(p: int, values) -> np.ndarray:
    """The count matrix with rows (v, 0, ..., 0) of integer periods v."""
    rows = np.zeros((len(values), p), dtype=np.int64)
    rows[:, 0] = values
    return rows


def gaussian_periods(tower: FieldTower, L: int) -> GaussianPeriodSet:
    """Exact periods by tallying trace values over each class (the
    oracle)."""
    return _period_set(tower, L, _class_tally(
        tower, L, tower.p, tower.trace_p_vector.take))


# ----------------------------------------------------------------------
# Closed forms.
# ----------------------------------------------------------------------

def imaginary_quadratic_class_number(L: int) -> int:
    """Class number of Q(sqrt(-L)) for prime L = 3 mod 4, L != 3, via a
    count of reduced primitive binary quadratic forms of discriminant -L."""
    if L == 3 or L % 4 != 3 or not is_prime(L):
        raise BadL(f"L = {L} must be a prime = 3 mod 4, L != 3")
    h = 0
    b = 1  # -L = 1 mod 4 forces b odd
    while b * b <= L // 3:
        ac4 = b * b + L
        a = max(b, 1)
        while 4 * a * a <= ac4:
            if ac4 % (4 * a) == 0:
                c = ac4 // (4 * a)
                if gcd(gcd(a, b), c) == 1:
                    h += 1 if (a == b or a == c) else 2
            a += 1
        b += 2
    return h


def solve_index2_form(L: int, p: int, h_L: int) -> tuple[int, int]:
    """The unique (a, b) with a^2 + L b^2 = 4 p^h_L, b > 0, p not dividing b,
    and a = -2 p^((L-1+2h_L)/4) mod L."""
    target = 4 * p ** h_L
    a_cong = (-2 * pow(p, (L - 1 + 2 * h_L) // 4, L)) % L
    b = 1
    while L * b * b <= target:
        a2 = target - L * b * b
        a = isqrt(a2)
        if a * a == a2 and b % p != 0:
            for signed in (a, -a):
                if signed % L == a_cong:
                    return signed, b
        b += 1
    raise NoDiophantineSolution(
        f"no (a, b) with a^2 + {L} b^2 = {target} and the sign congruence")


def _closed_order2(tower: FieldTower):
    p, sm = tower.p, tower.s * tower.m
    if sm % 2 == 0:  # p = -1 mod 2 (j = 1): the semiprimitive form at L = 2
        return (_closed_semiprimitive(tower, 2)[0],
                {"variant": "order2", "branch": "even"})
    # eta_0 = (-1 + K g)/2 with g the quadratic Gauss sum over GF(p)
    # and K = ((-1|p) p)^((sm-1)/2); counts stay integral because K is odd
    K = (legendre(-1, p) * p) ** ((sm - 1) // 2)
    counts = [(1 + K * legendre(c, p)) // 2 if c else 0 for c in range(p)]
    # eta_1 = -1 - eta_0, with -1 = zeta + ... + zeta^(p-1)
    rows = np.array([counts, [-counts[0]] + [1 - c for c in counts[1:]]],
                    dtype=np.int64)
    return rows, {"variant": "order2", "branch": "odd"}


def _closed_order3(tower: FieldTower, exact: GaussianPeriodSet):
    p, sm = tower.p, tower.s * tower.m
    R = p ** (sm // 3)
    target = 4 * R
    candidates = []
    d = 1
    while 27 * d * d < target:
        c2 = target - 27 * d * d
        c = isqrt(c2)
        if c * c == c2 and c % p != 0:
            candidates.append((c, d))
        d += 1
    if not candidates:
        raise NoDiophantineSolution(f"4*{R} = c^2 + 27 d^2 has no p-coprime solution")
    for c_abs, d_abs in candidates:
        c = c_abs if c_abs % 3 == 2 else -c_abs  # integrality: c R = -1 mod 3
        for d in (d_abs, -d_abs):
            eta0, rem0 = divmod(-1 - c * R, 3)
            eta1, rem1 = divmod(-2 + (c + 9 * d) * R, 6)
            eta2, rem2 = divmod(-2 + (c - 9 * d) * R, 6)
            if rem0 or rem1 or rem2:
                continue
            vals = (eta0, eta1, eta2)
            if vals == exact.values:
                return _int_rows(p, vals), {"variant": "order3",
                                            "c1": c, "d1": d}
    raise NoDiophantineSolution(
        "no sign choice reproduces the exact order-3 periods")


def semiprimitive_j(p: int, L: int, sm: int) -> int | None:
    """The least j with p^j = -1 mod L, or None when there is none, for L
    dividing p^sm - 1: such a j lies below ord_L(p), which divides sm."""
    return next((j for j in range(1, sm + 1) if pow(p, j, L) == L - 1),
                None)


def _closed_semiprimitive(tower: FieldTower, L: int):
    p, sm = tower.p, tower.s * tower.m
    j = semiprimitive_j(p, L, sm)
    v = sm // (2 * j)
    sqrt_r = p ** (j * v)
    if v % 2 and p % 2 and ((p ** j + 1) // L) % 2:
        special_index = L // 2
        special, rs = divmod((L - 1) * sqrt_r - 1, L)
        common, rc = divmod(-(sqrt_r + 1), L)
        branch = "all-odd"
    else:
        special_index = 0
        sgn = -1 if v % 2 else 1
        special, rs = divmod(-sgn * (L - 1) * sqrt_r - 1, L)
        common, rc = divmod(sgn * sqrt_r - 1, L)
        branch = "general"
    if rs or rc:
        raise InconsistentPeriods(f"non-integral semiprimitive periods, L = {L}")
    vals = tuple(special if i == special_index else common for i in range(L))
    return _int_rows(p, vals), {"variant": "semiprimitive",
                                "branch": branch, "j": j, "v": v}


def _closed_index2(tower: FieldTower, L: int, exact: GaussianPeriodSet):
    p, sm = tower.p, tower.s * tower.m
    k = 2 * sm // (L - 1)
    h_L = imaginary_quadratic_class_number(L)
    a, b = solve_index2_form(L, p, h_L)
    exponent4 = k * (L - 1 - 2 * h_L)
    if exponent4 % 4 or exponent4 < 0:
        raise InconsistentPeriods(f"index-2 exponent k(L-1-2h_L) = {exponent4}")
    P = (-1) ** (k - 1) * p ** (exponent4 // 4)
    # ((a + b sqrt(-L)) / 2)^k = A + B sqrt(-L), tracked exactly
    A, B = Fraction(a, 2), Fraction(b, 2)
    for _ in range(k - 1):
        A, B = A * Fraction(a, 2) - L * B * Fraction(b, 2), \
               A * Fraction(b, 2) + B * Fraction(a, 2)
    eta0_f = (P * A * (L - 1) - 1) / L
    eta_plus_f = -(P * A + P * B * L + 1) / L
    eta_minus_f = -(P * A - P * B * L + 1) / L
    fvals = (eta0_f, eta_plus_f, eta_minus_f)
    if not all(f.denominator == 1 for f in fvals):
        raise NoDiophantineSolution(f"non-integral index-2 periods {fvals}")
    eta0, eta_plus, eta_minus = (int(f) for f in fvals)
    # the +/- labeling depends on gamma; try both against the exact oracle
    for ep, em in ((eta_plus, eta_minus), (eta_minus, eta_plus)):
        vals = tuple(eta0 if i == 0 else (ep if legendre(i, L) == 1 else em)
                     for i in range(L))
        if vals == exact.values:
            return _int_rows(p, vals), {
                "variant": "index2", "h_L": h_L, "a_qf": a, "b_qf": b,
                "k": k, "P_k": P, "A_k": str(A), "B_k": str(B)}
    raise NoDiophantineSolution(
        "index-2 closed form does not reproduce the exact periods")


def applicable_closed_form(tower: FieldTower, L: int) -> str | None:
    """The closed-form variant whose hypotheses hold at order L, or None.

    The one statement of the four hypotheses, a test on (p, s*m, L) alone.
    L | r - 1 makes ord_L(p) divide s*m, so the divisibility each form needs
    (2j | s*m, (L-1)/2 | s*m) holds already.  No two hypotheses hold at
    once: p^j = -1 mod L needs ord_L(p) even, index 2 has it odd, and at
    L = 3 order3 asks p = 1 mod 3 where semiprimitive has p = 2 mod 3.
    """
    p, sm = tower.p, tower.s * tower.m
    if L < 2 or (tower.r - 1) % L:
        return None
    if L == 2:
        return "order2"
    if L == 3 and p % 3 == 1 and sm % 3 == 0:
        return "order3"
    if semiprimitive_j(p, L, sm) is not None:
        return "semiprimitive"
    half = (L - 1) // 2
    if (L % 4 == 3 and L != 3 and is_prime(L) and pow(p, half, L) == 1
            and all(pow(p, half // ell, L) != 1 for ell in factorize(half))):
        return "index2"
    return None


def gaussian_periods_closed_form(
        tower: FieldTower, L: int, exact: GaussianPeriodSet | None = None
) -> tuple[GaussianPeriodSet, dict] | None:
    """Closed-form periods of order L, labeled by class, and the solved
    constants behind them: a dict of the variant, then the constants it
    solved for (A_k and B_k as fraction strings).  None when no closed
    form applies at L.

    The order3 and index2 variants consult the exact oracle to resolve the
    gamma-dependent labels (signs of d1, the +/- class split); the value
    multiset itself comes from the solved closed form.  exact, when given,
    is gaussian_periods(tower, L), already tallied by the caller.
    """
    _check_order(tower, L, L * tower.p)
    variant = applicable_closed_form(tower, L)
    if variant is None:
        return None
    if variant == "order2":
        rows, params = _closed_order2(tower)
    elif variant == "order3":
        rows, params = _closed_order3(tower, exact or gaussian_periods(tower, 3))
    elif variant == "semiprimitive":
        rows, params = _closed_semiprimitive(tower, L)
    else:
        rows, params = _closed_index2(tower, L,
                                      exact or gaussian_periods(tower, L))
    return _period_set(tower, L, rows), params
