"""Construction of the trace-defined cyclic code family.

A code instance is fixed by (p, s, m, e, t, a, D_1..D_t) with q = p^s,
r = q^m, e | r - 1, and exponents a_i = a + (r-1)/e * D_i mod r-1.  The
codeword attached to (x_1, ..., x_t) in GF(r)^t has i-th symbol
Tr_{r/q}(sum_j x_j gamma^(a_j i)) for i = 0..n-1, where n = (r-1)/delta
and delta = gcd(r-1, a_1, ..., a_t).  Under the validity conditions below
this is an [n, t*m] cyclic code over GF(q) whose parity-check polynomial
is the product of the minimal polynomials of the gamma^(-a_i).

Validity conditions checked by validate_assumptions:
  i)   a != 0 mod r-1 and e | r-1 (derive_params raises EDoesNotDivide
       when e does not divide r-1, so the report never sees that case);
  ii)  the D_i are distinct mod e and gcd(D_2-D_1, ..., D_t-D_1, e) = 1;
  iii) each minimal polynomial has full degree m and they are pairwise
       distinct (equivalently the q-cyclotomic cosets of the a_i mod r-1
       have size m and are pairwise disjoint).
Condition iii has two fast sufficient criteria (N <= sqrt(r); or no
(r-1)/(q^l - 1) with l a proper divisor of m divides N); the report
records which fired, but the direct coset computation is always run and
is the verdict of record.

g = (x^n - 1)/h takes no division.  Under iii, h is squarefree with tm roots
rho = gamma^(-c), c in the q-cyclotomic cosets of the a_i, and rho^n = 1, so
by partial fractions g_i = sum_rho rho^(-1-i) / h'(rho), i < n.  The roots
of a coset are conjugates, so g is the codeword of one input (L&N ch. 8):
g_i = sum_j Tr_{r/q}(lambda_j gamma^(a_j i)), lambda_j = gamma^(a_j) /
h'(gamma^(-a_j)).  gf.poly_mul_packed, one product on the tower's arrays,
forms h and checks h g = x^n - 1.

Every function here is pure; towers and derived parameter bundles are
immutable, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations
from math import gcd

import numpy as np

from .errors import (
    AssumptionViolated,
    CriterionMismatch,
    DivisionNotExact,
    EDoesNotDivide,
    InvalidParameters,
    MinorBudgetExceeded,
)
from .gf import (
    Element,
    FieldTower,
    SubfieldPolynomial,
    build_field,
    cyclotomic_coset,
    min_poly,
    poly_mul_packed,
)


@dataclass(frozen=True)
class CodeSpec:
    """Input parameters of one code instance.

    deltas are the offsets D_1..D_t (mod e); modulus, when given, pins the
    field realization so printed polynomials are reproducible.
    """

    p: int
    s: int
    m: int
    e: int
    t: int
    a: int
    deltas: tuple[int, ...]
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.deltas) != self.t:
            raise InvalidParameters(f"need exactly t = {self.t} offsets,"
                                    f" got {len(self.deltas)}")
        if not (2 <= self.t <= self.e):
            raise InvalidParameters(
                f"need e >= t >= 2, got e = {self.e}, t = {self.t}")

    @property
    def q(self) -> int:
        return self.p ** self.s

    @property
    def r(self) -> int:
        return self.p ** (self.s * self.m)

    def to_json_dict(self) -> dict:
        out = {"p": self.p, "s": self.s, "m": self.m, "e": self.e,
               "t": self.t, "a": self.a,
               "delta": ",".join(str(d) for d in self.deltas)}
        if self.modulus is not None:
            out["modulus"] = ",".join(str(c) for c in self.modulus)
        return out


def build_tower(spec: CodeSpec) -> FieldTower:
    return build_field(spec.p, spec.s, spec.m, modulus=spec.modulus)


@dataclass(frozen=True)
class DerivedParams:
    """Integers derived from a spec: exponents a_i, delta = gcd(r-1, a_i),
    length n = (r-1)/delta and N = gcd((r-1)/(q-1), a e).  The step
    g = gamma^a and the column roots beta_tau = gamma^((r-1) D_tau / e)
    enter as logs: log(g beta_tau) = a_tau and log(beta_tau) = a_tau - a."""

    e: int
    t: int
    a: int
    a_list: tuple[int, ...]
    delta: int
    n: int
    N: int


def derive_params(tower: FieldTower, spec: CodeSpec) -> DerivedParams:
    r1 = tower.r - 1
    if r1 % spec.e:
        raise EDoesNotDivide(f"e = {spec.e} does not divide r - 1 = {r1}")
    a_list = tuple((spec.a + r1 // spec.e * d) % r1 for d in spec.deltas)
    delta = gcd(r1, *a_list)
    n = r1 // delta
    N = gcd(r1 // (tower.q - 1), spec.a * spec.e)
    return DerivedParams(e=spec.e, t=spec.t, a=spec.a % r1, a_list=a_list,
                         delta=delta, n=n, N=N)


@dataclass(frozen=True)
class AssumptionReport:
    """Per-condition verdicts, with the method that settled iii and any
    failing witnesses."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    iii_method: str  # "sqrt-bound" | "divisor-criterion" | "direct-only"
    witnesses: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    def failing(self) -> list[str]:
        out = []
        if not self.cond_i:
            out.append("i")
        if not self.cond_ii:
            out.append("ii")
        if not self.cond_iii:
            out.append("iii")
        return out

    def to_json_dict(self) -> dict:
        return {"i": self.cond_i, "ii": self.cond_ii, "iii": self.cond_iii,
                "iii_method": self.iii_method,
                "witnesses": {k: str(v) for k, v in self.witnesses.items()}}


def validate_assumptions(tower: FieldTower, spec: CodeSpec,
                         derived: DerivedParams) -> AssumptionReport:
    r1 = tower.r - 1
    witnesses: dict = {}

    cond_i = spec.a % r1 != 0
    if not cond_i:
        witnesses["i"] = f"a = {spec.a} mod {r1}, e = {spec.e}"

    residues = [d % spec.e for d in spec.deltas]
    distinct = len(set(residues)) == spec.t
    g_all = gcd(spec.e, *[(d - spec.deltas[0]) % spec.e
                          for d in spec.deltas[1:]])
    cond_ii = distinct and g_all == 1
    if not distinct:
        witnesses["ii"] = f"repeated offsets mod e: {sorted(residues)}"
    elif g_all != 1:
        witnesses["ii"] = f"gcd of offset differences with e is {g_all}"

    # fast sufficient criteria for iii (they presuppose i and ii);
    # recorded but never trusted alone
    method = "direct-only"
    if cond_i and cond_ii:
        if derived.N * derived.N <= tower.r:
            method = "sqrt-bound"
        else:
            m = tower.m
            proper = [l for l in range(1, m) if m % l == 0]
            if all(derived.N % (r1 // (tower.q ** l - 1)) for l in proper):
                method = "divisor-criterion"

    cosets = [frozenset(cyclotomic_coset(ai, tower.q, tower.r))
              for ai in derived.a_list]
    sizes_ok = all(len(c) == tower.m for c in cosets)
    disjoint = len(set(cosets)) == spec.t
    cond_iii = sizes_ok and disjoint
    if not sizes_ok:
        bad = next(ai for ai, c in zip(derived.a_list, cosets)
                   if len(c) != tower.m)
        witnesses["iii"] = f"coset of {bad} has size != m"
    elif not disjoint:
        witnesses["iii"] = "two exponents share a q-cyclotomic coset"
    if method != "direct-only" and not cond_iii:
        raise CriterionMismatch(
            "fast criterion claimed condition iii but the cosets disagree")
    return AssumptionReport(cond_i, cond_ii, cond_iii, method, witnesses)


# Gaussian-elimination steps independent_power_rows may spend, t^3 a minor
MINOR_BUDGET = 500_000


def independent_power_rows(tower: FieldTower, derived: DerivedParams) -> bool:
    """Whether every t x t minor of the e x t matrix with rows
    (beta_1^h, ..., beta_t^h), h = 0..e-1, is invertible over GF(r).

    beta_tau^h = gamma^(h (a_tau - a)) = omega^(h D_tau), omega =
    gamma^((r-1)/e) of order e.  When the D_tau are D_0 + k j mod e (j < t)
    with gcd(k, e) = 1, every minor is a row-scaled Vandermonde matrix in
    the distinct omega^(k h), so none is singular and no minor is tested.  Otherwise the minors are tested in
    turn, MINOR_BUDGET // t^3 of them at most: MinorBudgetExceeded is raised
    once that many are invertible and more remain, so at t^3 > MINOR_BUDGET
    it is raised before any minor is tested."""
    if _unit_step_progression(tower, derived):
        return True
    limit = MINOR_BUDGET // derived.t ** 3
    rows = [[tower.gamma_pow(h * (ai - derived.a)) for ai in derived.a_list]
            for h in range(derived.e)]
    for i, pick in enumerate(combinations(range(derived.e), derived.t)):
        if i == limit:
            raise MinorBudgetExceeded(
                f"the t x t minors of the power matrix need more than the"
                f" budget of {MINOR_BUDGET} elimination steps (t^3 a minor)")
        mat = [list(rows[h]) for h in pick]
        if _det_is_zero(tower, mat):
            return False
    return True


def _unit_step_progression(tower: FieldTower, derived: DerivedParams) -> bool:
    """Whether the offsets D_tau = ((a_tau - a) mod (r-1)) / ((r-1)/e) are
    D_0 + k j mod e, j < t, for some D_0 and some k coprime to e."""
    r1, e = tower.r - 1, derived.e
    offsets = {(ai - derived.a) % r1 // (r1 // e) for ai in derived.a_list}
    return any(offsets == {(d0 + k * j) % e for j in range(derived.t)}
               for k in range(1, e) if gcd(k, e) == 1 for d0 in offsets)


def _det_is_zero(tower: FieldTower, mat: list[list[Element]]) -> bool:
    n = len(mat)
    for col in range(n):
        piv = next((row for row in range(col, n) if mat[row][col]), None)
        if piv is None:
            return True
        mat[col], mat[piv] = mat[piv], mat[col]
        minus_inv = tower.neg(tower.inv(mat[col][col]))
        for row in range(col + 1, n):
            if mat[row][col]:
                f = tower.mul(mat[row][col], minus_inv)
                for k in range(col, n):
                    mat[row][k] = tower.add(mat[row][k],
                                            tower.mul(f, mat[col][k]))
    return False


# ----------------------------------------------------------------------
# Parity-check and generator polynomials.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodePolynomials:
    factors: tuple[SubfieldPolynomial, ...]  # h_{a_i}, ascending a_i order
    h: SubfieldPolynomial
    g: SubfieldPolynomial


def build_polynomials(tower: FieldTower, derived: DerivedParams,
                      report: AssumptionReport) -> CodePolynomials:
    """h_i = minimal polynomial of gamma^(-a_i) over GF(q); h = prod h_i;
    g = (x^n - 1) / h as the codeword of the input (lambda_j), with log h'(rho)
    the sum of the logs of rho - rho' over the other roots (module docstring).
    DivisionNotExact unless g is monic of degree n - tm, 0 above it and
    h g = x^n - 1; AssumptionViolated unless the assumption report holds."""
    if not report.all_hold:
        raise AssumptionViolated(
            f"conditions {report.failing()} fail: {report.witnesses}")
    r1, n = tower.r - 1, derived.n
    factors = tuple(min_poly(tower, tower.gamma_pow(-ai))
                    for ai in derived.a_list)
    h = reduce(partial(poly_mul_packed, tower), (f.coeffs for f in factors))
    minus_one = tower.dlog_of(tower.neg(1))
    minus_roots = tower.exp[[(minus_one - c) % r1 for c in set().union(
        *(cyclotomic_coset(ai, tower.q, tower.r) for ai in derived.a_list))]]
    i, word = np.arange(n, dtype=np.int64), 0
    for aj in derived.a_list:
        diffs = tower.add_arrays(tower.gamma_pow(-aj), minus_roots)
        log_h1 = tower.dlog[diffs[diffs != 0]].sum(dtype=np.int64)
        word = tower.add_arrays(word, tower.exp[(aj - log_h1 + aj * i) % r1])
    g = tower.trace_q_vector[word]
    deg = n - (len(h) - 1)
    if (g[deg] != 1 or g[deg + 1:].any() or not np.array_equal(
            poly_mul_packed(tower, h, g[:deg + 1]),
            [tower.neg(1)] + [0] * (n - 1) + [1])):
        raise DivisionNotExact("parity-check polynomial does not divide x^n - 1")
    return CodePolynomials(factors=factors, h=SubfieldPolynomial(tower, h),
                           g=SubfieldPolynomial(tower, g[:deg + 1]))
