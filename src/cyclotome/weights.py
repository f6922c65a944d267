"""Weight distributions by three mutually checking routes.

1. naive: enumerate inputs, build every codeword, count nonzero symbols.
2. period sums: enumerate inputs, but reduce each one to the class profile
   of its e period arguments; the weight depends on the input only through
   that profile, via

       w = (q-1)/(q delta) [ (r-1) - (N/e) T ],
       T = sum_h modified_period( g^h sum_tau x_tau beta_tau^h ).

3. closed form: evaluate the applicable frequency table directly, with
   exact big-integer combinatorics.

The closed tables, keyed by the case classification:

* t = e, N = 1: weight (q-1) r u / (delta e q) occurs C(e,u) (r-1)^u times.
* t = e, N >= 2: for the mu distinct period values eta_j (tau_j classes
  each) and every composition u_0 + ... + u_mu = e,
      weight    (q-1)/(delta e q) * sum_j u_j (r - 1 - N eta_j),
      frequency e!/(u_0! ... u_mu!) ((r-1)/N)^(e-u_0) prod_j tau_j^(u_j).
* t < e, N = 1 (needs every t x t minor of the column-root power matrix
  invertible): weight (q-1) r (e-t+u)/(delta e q), u = 1..t, with frequency
      C(e, t-u) sum_{k=0}^{u-1} (-1)^k C(e-t+u, k) (r^(u-k) - 1).
* e = 3, t = 2, N = 2: six nonzero weights obtained by pushing the period
  sums {3 eta_0, 2 eta_0 + eta_1, eta_0 + 2 eta_1, 3 eta_1,
  (r-1)/2 + 2 eta_0, (r-1)/2 + 2 eta_1} through the weight formula; the
  frequencies come from order-2 cyclotomic numbers (here r = 1 mod 4, so
  (0,0) = (r-5)/4 and the other three equal (r-1)/4).

Frequencies are arbitrary-precision ints throughout; equal weights arising
from different compositions are merged before anything is compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial, isqrt, prod

import numpy as np

from . import _engine
from .codes import (
    CodeSpec,
    DerivedParams,
    build_tower,
    derive_params,
    independent_power_rows,
    validate_assumptions,
)
from .cyclotomy import (
    CyclotomicInteger,
    DistinctPeriodMultiset,
    GaussianPeriodSet,
    distinct_values,
    gaussian_periods,
    gaussian_periods_closed_form,
    legendre,
)
from .errors import (
    CapExceeded,
    FrequencySumMismatch,
    IndependenceFails,
    NonIntegralWeight,
    UnsupportedCase,
)
from .gf import FieldTower, is_prime

DEFAULT_NAIVE_CAP = 10 ** 7
DEFAULT_TSUM_CAP = 10 ** 8
DEFAULT_SAMPLE_COUNT = 10 ** 6


@dataclass(frozen=True)
class Caps:
    """Enumeration budgets and the sampling seed."""

    naive: int = DEFAULT_NAIVE_CAP
    tsum: int = DEFAULT_TSUM_CAP
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = 0


# ----------------------------------------------------------------------
# Distributions.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs over all r^t inputs, plus the code
    summary [n, kappa, d]."""

    n: int
    kappa: int
    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, n: int, kappa: int, counts) -> "WeightDistribution":
        if isinstance(counts, dict):
            items = counts.items()
        else:
            items = ((w, int(c)) for w, c in enumerate(counts))
        merged: dict[int, int] = {}
        for w, c in items:
            if c:
                merged[int(w)] = merged.get(int(w), 0) + int(c)
        return cls(n, kappa, tuple(sorted(merged.items())))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def d(self) -> int | None:
        nz = [w for w, _ in self.entries if w > 0]
        return min(nz) if nz else None

    @property
    def frequency_at_zero(self) -> int:
        return dict(self.entries).get(0, 0)

    def first_moment(self) -> int:
        return sum(w * c for w, c in self.entries)

    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.entries)

    def enumerator_str(self) -> str:
        parts = []
        for w, c in self.entries:
            if w == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}z^{w}" if c != 1 else f"z^{w}")
        return " + ".join(parts) if parts else "0"

    def to_json_entries(self) -> list[dict]:
        return [{"w": w, "count": str(c)} for w, c in self.entries]


# ----------------------------------------------------------------------
# Case classification.
# ----------------------------------------------------------------------

TAG_TE_N1 = "t=e,N=1"
TAG_TE_N2 = "t=e,N>=2"
TAG_TLT_N1 = "t<e,N=1"
TAG_E3T2N2 = "e=3,t=2,N=2"
TAG_UNSUPPORTED = "unsupported"

SOURCE_ORDER2 = "order2"
SOURCE_ORDER3 = "order3"
SOURCE_SEMIPRIMITIVE = "semiprimitive"
SOURCE_INDEX2 = "index2"
SOURCE_EXACT = "exact"


@dataclass(frozen=True)
class CaseClassification:
    tag: str
    period_source: str | None = None
    reason: str | None = None  # set when unsupported

    @property
    def supported(self) -> bool:
        return self.tag != TAG_UNSUPPORTED

    def to_json_dict(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.period_source is not None:
            out["period_source"] = self.period_source
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _semiprimitive_j(p: int, N: int) -> int | None:
    for j in range(1, N + 1):
        if pow(p, j, N) == N - 1:
            return j
    return None


def classify(tower: FieldTower, spec: CodeSpec, derived: DerivedParams,
             report=None) -> CaseClassification:
    """The most specific closed-form case covering this spec."""
    if report is None:
        report = validate_assumptions(tower, spec, derived)
    if not report.all_hold:
        return CaseClassification(
            TAG_UNSUPPORTED, reason=f"conditions {report.failing()} fail")
    N, p, sm = derived.N, tower.p, tower.s * tower.m
    if spec.t == spec.e:
        if N == 1:
            return CaseClassification(TAG_TE_N1)
        if N == 2:
            return CaseClassification(TAG_TE_N2, SOURCE_ORDER2)
        if N == 3 and p % 3 == 1:
            return CaseClassification(TAG_TE_N2, SOURCE_ORDER3)
        if N > 2 and _semiprimitive_j(p, N) is not None:
            return CaseClassification(TAG_TE_N2, SOURCE_SEMIPRIMITIVE)
        if (N != 3 and N % 4 == 3 and is_prime(N)
                and legendre(p, N) == 1 and (2 * sm) % (N - 1) == 0):
            return CaseClassification(TAG_TE_N2, SOURCE_INDEX2)
        return CaseClassification(TAG_TE_N2, SOURCE_EXACT)
    if N == 1:
        if independent_power_rows(tower, derived):
            return CaseClassification(TAG_TLT_N1)
        return CaseClassification(
            TAG_UNSUPPORTED, reason="a t x t minor of the power matrix is singular")
    if spec.e == 3 and spec.t == 2 and N == 2:
        return CaseClassification(TAG_E3T2N2)
    return CaseClassification(
        TAG_UNSUPPORTED, reason=f"t < e with N = {N} has no closed form here")


def periods_for_classification(tower: FieldTower, derived: DerivedParams,
                               classification: CaseClassification
                               ) -> GaussianPeriodSet | None:
    """The period set the closed route should consume (closed-form where one
    exists, the exact oracle otherwise); None when no periods are needed."""
    if classification.tag == TAG_E3T2N2:
        return gaussian_periods_closed_form("order2", tower, 2)[0]
    if classification.tag != TAG_TE_N2:
        return None
    src = classification.period_source
    if src == SOURCE_EXACT:
        return gaussian_periods(tower, derived.N)
    return gaussian_periods_closed_form(src, tower, derived.N)[0]


# ----------------------------------------------------------------------
# Profiles of the period arguments.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TProfile:
    """How the e period arguments of one input split: u_zero of them are 0,
    class_counts[i] of them land in cyclotomic class i."""

    u_zero: int
    class_counts: tuple[int, ...]

    def __post_init__(self):
        if self.u_zero < 0 or any(c < 0 for c in self.class_counts):
            raise ValueError("negative profile count")

    @property
    def e(self) -> int:
        return self.u_zero + sum(self.class_counts)


def profile_weight(tower: FieldTower, derived: DerivedParams,
                   pset: GaussianPeriodSet, profile: TProfile) -> int:
    """The common weight of all inputs with this argument profile."""
    r, q, e, delta = tower.r, tower.q, derived.e, derived.delta
    NT = CyclotomicInteger.from_int(tower.p, profile.u_zero * (r - 1))
    for i, c in enumerate(profile.class_counts):
        if c:
            NT = NT + (c * derived.N) * pset.value(i)
    scaled = e * (r - 1) - NT
    if not scaled.is_rational():
        raise NonIntegralWeight(f"irrational period sum for {profile}")
    num = (q - 1) * scaled.rational_value()
    den = q * delta * e
    if num % den:
        raise NonIntegralWeight(f"weight {num}/{den} for {profile}")
    return num // den


# ----------------------------------------------------------------------
# Method 1: naive enumeration.
# ----------------------------------------------------------------------

def wd_naive(tower: FieldTower, derived: DerivedParams,
             cap: int = DEFAULT_NAIVE_CAP) -> WeightDistribution:
    """Enumerate every input and count nonzero codeword symbols directly."""
    size = tower.r ** derived.t
    if size > cap:
        raise CapExceeded(f"r^t = {size} exceeds the naive cap {cap}")
    counts = _engine.naive_weight_counts(tower, derived)
    return WeightDistribution.from_counts(
        derived.n, derived.t * tower.m, counts)


# ----------------------------------------------------------------------
# Method 2: exact period sums.
# ----------------------------------------------------------------------

def _nval_by_elem(tower: FieldTower, N: int, rationals) -> np.ndarray:
    """nval[v] = N * eta(class of v) for v != 0 and r - 1 at v = 0, so that
    the scaled period sum e(r-1) - sum_h nval[v_h] feeds the weight formula."""
    nval = np.zeros(tower.r, dtype=np.int64)
    nval[0] = tower.r - 1
    vals = np.array(rationals, dtype=np.int64) * N
    nval[tower.exp] = vals[np.arange(tower.r - 1) % N]
    return nval


def wd_tsum(tower: FieldTower, derived: DerivedParams,
            pset: GaussianPeriodSet | None = None,
            cap: int = DEFAULT_TSUM_CAP) -> WeightDistribution:
    """Enumerate inputs through the exact period-sum identity (much cheaper
    per word than building codewords; length never enters)."""
    size = tower.r ** derived.t
    if size > cap:
        raise CapExceeded(f"r^t = {size} exceeds the period-sum cap {cap}")
    N = derived.N
    if pset is None:
        pset = gaussian_periods(tower, N)
    elif pset.L != N:
        raise ValueError(f"need periods of order {N}, got {pset.L}")
    rationals = pset.rational_values
    weight_counts: dict[int, int] = {}
    if all(v is not None for v in rationals):
        tally = _engine.period_sum_tally(
            tower, derived, _nval_by_elem(tower, N, rationals))
        xs = np.nonzero(tally)[0]
        ws = _engine.weights_of_period_sums(xs, tower.q, derived.delta,
                                            derived.e)
        for w, c in zip(ws.tolist(), tally[xs].tolist()):
            weight_counts[w] = weight_counts.get(w, 0) + c
    else:
        # irrational periods: tally full class profiles and reduce each one
        # in exact cyclotomic arithmetic
        tally = _engine.profile_code_tally(tower, derived, N)
        codes = np.nonzero(tally)[0]
        for code, c in zip(codes.tolist(), tally[codes].tolist()):
            u0, cls_counts = _engine.decode_profile(int(code), N, derived.e)
            w = profile_weight(tower, derived, pset,
                               TProfile(u0, cls_counts))
            weight_counts[w] = weight_counts.get(w, 0) + c
    return WeightDistribution.from_counts(
        derived.n, derived.t * tower.m, weight_counts)


# ----------------------------------------------------------------------
# Method 3: closed-form tables.
# ----------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise NonIntegralWeight(f"{what}: {num}/{den} is not an integer")
    return num // den


def _closed_te_n1(tower, derived) -> dict[int, int]:
    r, q, e, delta = tower.r, tower.q, derived.e, derived.delta
    out: dict[int, int] = {}
    for u in range(e + 1):
        w = _exact_div((q - 1) * r * u, delta * e * q, "table weight")
        out[w] = out.get(w, 0) + comb(e, u) * (r - 1) ** u
    return out


def _closed_te_n2(tower, derived, multiset: DistinctPeriodMultiset
                  ) -> dict[int, int]:
    r, q, e, delta, N = tower.r, tower.q, derived.e, derived.delta, derived.N
    taus = multiset.taus
    vals = [v for v, _ in multiset.pairs]
    out: dict[int, int] = {}
    for u in _compositions(e, multiset.mu + 1):
        u0, us = u[0], u[1:]
        scaled = CyclotomicInteger.from_int(tower.p, 0)
        for uj, eta in zip(us, vals):
            if uj:
                scaled = scaled + uj * ((r - 1) - N * eta)
        if not scaled.is_rational():
            raise NonIntegralWeight(f"irrational table weight at {u}")
        w = _exact_div((q - 1) * scaled.rational_value(), delta * e * q,
                       "table weight")
        freq = (factorial(e) // prod(factorial(x) for x in u)
                * ((r - 1) // N) ** (e - u0)
                * prod(t ** uj for t, uj in zip(taus, us)))
        out[w] = out.get(w, 0) + freq
    return out


def _closed_tlt_n1(tower, derived) -> dict[int, int]:
    r, q, e, t, delta = tower.r, tower.q, derived.e, derived.t, derived.delta
    out = {0: 1}
    for u in range(1, t + 1):
        w = _exact_div((q - 1) * r * (e - t + u), delta * e * q, "table weight")
        freq = comb(e, t - u) * sum(
            (-1) ** k * comb(e - t + u, k) * (r ** (u - k) - 1)
            for k in range(u))
        out[w] = out.get(w, 0) + freq
    return out


def _closed_e3t2n2(tower, derived, pset: GaussianPeriodSet) -> dict[int, int]:
    r, q, delta = tower.r, tower.q, derived.delta
    if r % 4 != 1:
        raise UnsupportedCase("this case forces r = 1 mod 4")
    eta = pset.rational_values
    if any(v is None for v in eta) or pset.L != 2:
        raise UnsupportedCase("need rational order-2 periods")
    c00 = (r - 5) // 4
    mixed = 3 * (r - 1) // 4  # (0,1) + (1,0) + (1,1)
    half = (r - 1) // 2

    def weight_of(T: int) -> int:
        return _exact_div((q - 1) * (3 * (r - 1) - 2 * T), q * delta * 3,
                          "table weight")

    rows = [(3 * half, 1)]  # all three arguments zero
    for v in eta:
        rows.append((half + 2 * v, 3 * (r - 1) // 2))
        rows.append((3 * v, half * c00))
    rows.append((2 * eta[0] + eta[1], half * mixed))
    rows.append((eta[0] + 2 * eta[1], half * mixed))
    out: dict[int, int] = {}
    for T, freq in rows:
        w = weight_of(T)
        out[w] = out.get(w, 0) + freq
    return out


def wd_closed(tower: FieldTower, spec: CodeSpec, derived: DerivedParams,
              classification: CaseClassification | None = None,
              pset: GaussianPeriodSet | None = None) -> WeightDistribution:
    """Evaluate the closed-form table for the classified case (no
    enumeration; frequencies are exact big integers)."""
    if classification is None:
        classification = classify(tower, spec, derived)
    if not classification.supported:
        if classification.reason and "minor" in classification.reason:
            raise IndependenceFails(classification.reason)
        raise UnsupportedCase(classification.reason or "unsupported case")
    if pset is None:
        pset = periods_for_classification(tower, derived, classification)
    if classification.tag == TAG_TE_N1:
        table = _closed_te_n1(tower, derived)
    elif classification.tag == TAG_TE_N2:
        table = _closed_te_n2(tower, derived, distinct_values(pset))
    elif classification.tag == TAG_TLT_N1:
        table = _closed_tlt_n1(tower, derived)
    else:
        table = _closed_e3t2n2(tower, derived, pset)
    dist = WeightDistribution.from_counts(derived.n, derived.t * tower.m, table)
    if dist.total != tower.r ** derived.t:
        raise FrequencySumMismatch(
            "closed table frequencies do not sum to r^t")
    return dist


# ----------------------------------------------------------------------
# Vanishing-pattern counts (supports the t < e frequency derivation).
# ----------------------------------------------------------------------

def count_vanishing_patterns(tower: FieldTower, derived: DerivedParams,
                             E, cap: int = DEFAULT_TSUM_CAP) -> int:
    """Number of nonzero inputs whose form values sum_tau x_tau beta_tau^h
    vanish exactly for h in E (and nowhere else)."""
    size = tower.r ** derived.t
    if size > cap:
        raise CapExceeded(f"r^t = {size} exceeds the cap {cap}")
    E = frozenset(E)
    if not all(0 <= h < derived.e for h in E):
        raise ValueError("pattern indices must lie in [0, e)")
    tally = _engine.vanishing_mask_tally(tower, derived)
    mask = sum(1 << h for h in E)
    count = int(tally[mask])
    if len(E) == derived.e:
        count -= 1  # the all-zero input vanishes everywhere
    return count


# ----------------------------------------------------------------------
# Cross-verification.
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    spec: CodeSpec
    classification: CaseClassification
    n: int
    kappa: int
    distributions: dict = field(default_factory=dict)   # method -> dist
    skipped: dict = field(default_factory=dict)          # method -> reason
    agreed: bool = True
    first_diff: str | None = None
    invariant_failures: list = field(default_factory=list)
    sampling: dict | None = None

    @property
    def d(self) -> int | None:
        dist = self.reference_distribution()
        return dist.d if dist is not None else None

    @property
    def passed(self) -> bool:
        return (bool(self.distributions) and self.agreed
                and not self.invariant_failures
                and (self.sampling is None or self.sampling["ok"]))

    def reference_distribution(self):
        for name in ("closed", "tsum", "naive"):
            if name in self.distributions:
                return self.distributions[name]
        return None

    def to_json_dict(self) -> dict:
        some = self.reference_distribution()
        return {
            "spec": self.spec.to_json_dict(),
            "classification": self.classification.to_json_dict(),
            "n": self.n,
            "k": self.kappa,
            "d": self.d,
            "weights": some.to_json_entries() if some else [],
            "methods_run": sorted(self.distributions),
            "methods_skipped": {k: v for k, v in sorted(self.skipped.items())},
            "methods_agreed": self.agreed,
            "invariant_failures": list(self.invariant_failures),
            "sampling": self.sampling,
            "passed": self.passed,
        }


def _check_invariants(report: VerificationReport, tower, spec, derived,
                      cond_iii: bool) -> None:
    r, q = tower.r, tower.q
    size = r ** derived.t
    expected_moment = derived.n * size * (q - 1) // q
    claims = {
        TAG_TE_N1: (q - 1) * r // (derived.delta * derived.e * q),
        TAG_TLT_N1: (q - 1) * r * (derived.e - derived.t + 1)
        // (derived.delta * derived.e * q),
    }
    if report.classification.tag == TAG_E3T2N2:
        sqrt_r = isqrt(r)
        if sqrt_r * sqrt_r != r:
            raise UnsupportedCase(
                f"the six-weight case needs r to be a square, got r = {r}")
        claims[TAG_E3T2N2] = (2 * (q - 1) * (r - sqrt_r)
                              // (3 * q * derived.delta))
    for name, dist in report.distributions.items():
        if dist.total != size:
            report.invariant_failures.append(
                f"{name}: total {dist.total} != r^t {size}")
        if dist.first_moment() != expected_moment:
            report.invariant_failures.append(
                f"{name}: first moment {dist.first_moment()} != {expected_moment}")
        if cond_iii and dist.frequency_at_zero != 1:
            report.invariant_failures.append(
                f"{name}: frequency at weight 0 is {dist.frequency_at_zero}")
        claim = claims.get(report.classification.tag)
        if claim is not None and dist.d != claim:
            report.invariant_failures.append(
                f"{name}: d = {dist.d} but the table claims {claim}")


def cross_verify(spec: CodeSpec, caps: Caps = Caps()) -> VerificationReport:
    """Run every feasible method, compare entry lists exactly, check the
    counting invariants, and sample when enumeration is out of reach."""
    tower = build_tower(spec)
    derived = derive_params(tower, spec)
    report_a = validate_assumptions(tower, spec, derived)
    classification = classify(tower, spec, derived, report_a)
    rep = VerificationReport(spec=spec, classification=classification,
                             n=derived.n, kappa=derived.t * tower.m)
    size = tower.r ** derived.t

    if size <= caps.naive:
        rep.distributions["naive"] = wd_naive(tower, derived, cap=caps.naive)
    else:
        rep.skipped["naive"] = f"r^t = {size} > cap {caps.naive}"
    if size <= caps.tsum:
        rep.distributions["tsum"] = wd_tsum(tower, derived, cap=caps.tsum)
    else:
        rep.skipped["tsum"] = f"r^t = {size} > cap {caps.tsum}"
    if classification.supported:
        rep.distributions["closed"] = wd_closed(tower, spec, derived,
                                                classification)
    else:
        rep.skipped["closed"] = classification.reason or "unsupported"

    names = sorted(rep.distributions)
    for a, b in combinations(names, 2):
        ea, eb = rep.distributions[a].entries, rep.distributions[b].entries
        if ea != eb:
            rep.agreed = False
            diff = next((i for i in range(min(len(ea), len(eb)))
                         if ea[i] != eb[i]), min(len(ea), len(eb)))
            rep.first_diff = (f"{a} vs {b} at entry {diff}: "
                              f"{ea[diff] if diff < len(ea) else None} != "
                              f"{eb[diff] if diff < len(eb) else None}")
            break

    _check_invariants(rep, tower, spec, derived, report_a.cond_iii)

    if "closed" in rep.distributions and not any(
            m in rep.distributions for m in ("naive", "tsum")):
        rep.sampling = _sampling_check(tower, derived,
                                       rep.distributions["closed"], caps)
    return rep


def _sampling_check(tower, derived, closed: WeightDistribution,
                    caps: Caps) -> dict:
    """Seeded spot check against a closed-form distribution: every sampled
    weight must lie in its support, and each weight class's observed count
    must sit within 3 sigma of the binomial expectation."""
    pset = gaussian_periods(tower, derived.N)
    rationals = pset.rational_values
    if any(v is None for v in rationals):
        return {"ok": False, "note": "irrational periods, sampling unavailable"}
    ws = _engine.sample_weights(
        tower, derived, _nval_by_elem(tower, derived.N, rationals),
        (tower.q, derived.delta, derived.e), caps.sample_count, caps.seed)
    observed = np.bincount(ws, minlength=derived.n + 1)
    support = set(closed.weights())
    outside = [int(w) for w in np.nonzero(observed)[0] if int(w) not in support]
    total = tower.r ** derived.t
    m = caps.sample_count
    worst = 0.0
    rows = []
    for w, c in closed.entries:
        pw = c / total
        mu = m * pw
        sigma = (m * pw * (1 - pw)) ** 0.5
        dev = abs(int(observed[w]) - mu) / sigma if sigma > 0 else 0.0
        worst = max(worst, dev)
        rows.append({"w": w, "observed": int(observed[w]),
                     "expected": mu, "sigma_dev": dev})
    ok = not outside and worst <= 3.0
    return {"ok": ok, "count": m, "seed": caps.seed,
            "weights_outside_support": outside,
            "max_sigma_dev": worst, "rows": rows}
