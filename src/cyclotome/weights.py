"""Weight distributions by three mutually checking routes.

1. naive: enumerate inputs, build every codeword, count nonzero symbols.
2. period sums: enumerate inputs, but reduce each one to the sum of the
   periods at its e period arguments; the weight depends on the input only
   through that sum, via

       w = (q-1)/(q delta) [ (r-1) - (N/e) T ],
       T = sum_h eta_bar( g^h sum_tau x_tau beta_tau^h ),

   where eta_bar(0) = (r-1)/N and eta_bar(v) is the period of v's class.
   N divides (r-1)/(q-1), so every period is an integer (see cyclotomy).

3. closed form: evaluate the applicable frequency table directly, with
   exact big-integer combinatorics.

The closed tables, keyed by the case classification:

* N = 1, t <= e (at t < e every t x t minor of the column-root power
  matrix must be invertible): the one period is -1, and the code is MDS
  with d = e - t + 1 in units of (q-1) r/(delta e q) (MacWilliams & Sloane,
  ch. 11): weight (q-1) r (e-t+u)/(delta e q), u = 1..t, with frequency
      C(e, t-u) sum_{k=0}^{u-1} (-1)^k C(e-t+u, k) (r^(u-k) - 1),
  which is C(e, u) (r-1)^u at t = e.
* t = e, N >= 2: the e period arguments run independently over GF(r), so
  the scaled sum X is the e-th power of one argument's distribution: X = 0
  once, and X = r - 1 - N eta_j for each of the (r-1)/N members of class
  j.  It is expanded by e sparse convolutions.
* e = 3, t = 2, N = 2: six nonzero weights obtained by pushing the period
  sums {3 eta_0, 2 eta_0 + eta_1, eta_0 + 2 eta_1, 3 eta_1,
  (r-1)/2 + 2 eta_0, (r-1)/2 + 2 eta_1} through the weight formula; the
  frequencies come from order-2 cyclotomic numbers (here r = 1 mod 4, so
  (0,0) = (r-5)/4 and the other three equal (r-1)/4).

Each table is built over the scaled period sums X = e(r-1) - N T and goes
through the same map w = (q-1) X/(q delta e) as the enumerations
(_engine.weights_of_period_sums).  Frequencies are arbitrary-precision
ints throughout; equal weights arising from different compositions are
merged before anything is compared.

classify(tower, spec, derived, report) takes the spec's assumption report
and wd_closed(tower, derived, classification) its classification; neither
recomputes what it is given.  plan() alone decides which methods run, in
the order naive, tsum, closed.  cross_verify derives, validates and
classifies once, runs what it plans and samples when only the closed table
ran; `cyclotome weights --method auto` takes closed, else tsum, from the
same plan.  Both call a method through run_method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, zip_longest
from math import comb, exp, isqrt, log, log1p

import numpy as np

from . import _engine
from .codes import (
    AssumptionReport,
    CodeSpec,
    DerivedParams,
    build_tower,
    derive_params,
    independent_power_rows,
    validate_assumptions,
)
from .cyclotomy import (
    GaussianPeriodSet,
    applicable_closed_form,
    gaussian_periods,
    gaussian_periods_closed_form,
)
from .errors import (
    CapExceeded,
    CyclotomeError,
    FrequencySumMismatch,
    InconsistentPeriods,
    IndependenceFails,
    MinorBudgetExceeded,
    UnsupportedCase,
)
from .gf import FieldTower

DEFAULT_NAIVE_CAP = 10 ** 7
DEFAULT_TSUM_CAP = 10 ** 8
DEFAULT_SAMPLE_COUNT = 10 ** 6
# chance that the sampling check fails a correct table
SAMPLING_ALPHA = 1e-6


@dataclass(frozen=True)
class Caps:
    """Enumeration budgets and the sampling seed."""

    naive: int = DEFAULT_NAIVE_CAP
    tsum: int = DEFAULT_TSUM_CAP
    seed: int = 0


# ----------------------------------------------------------------------
# Distributions.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs over all r^t inputs."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, pairs) -> "WeightDistribution":
        """From (weight, count) pairs: repeated weights merge, zero counts
        drop."""
        merged: dict[int, int] = {}
        for w, c in pairs:
            if c:
                merged[int(w)] = merged.get(int(w), 0) + int(c)
        return cls(tuple(sorted(merged.items())))

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
        parts = [str(c) if w == 0 else f"{c}z^{w}" if c != 1 else f"z^{w}"
                 for w, c in self.entries]
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

SOURCE_EXACT = "exact"


@dataclass(frozen=True)
class CaseClassification:
    tag: str
    period_source: str | None = None
    reason: str | None = None  # set when unsupported
    error: type[CyclotomeError] = UnsupportedCase  # raised when unsupported

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


def classify(tower: FieldTower, spec: CodeSpec, derived: DerivedParams,
             report: AssumptionReport) -> CaseClassification:
    """The most specific closed-form case covering this spec, given its
    assumption report."""
    if not report.all_hold:
        return CaseClassification(
            TAG_UNSUPPORTED, reason=f"conditions {report.failing()} fail")
    N = derived.N
    if spec.t == spec.e:
        if N == 1:
            return CaseClassification(TAG_TE_N1)
        return CaseClassification(
            TAG_TE_N2, applicable_closed_form(tower, N) or SOURCE_EXACT)
    if N == 1:
        try:
            if independent_power_rows(tower, derived):
                return CaseClassification(TAG_TLT_N1)
        except MinorBudgetExceeded as exc:
            return CaseClassification(TAG_UNSUPPORTED, reason=str(exc))
        return CaseClassification(
            TAG_UNSUPPORTED, reason="a t x t minor of the power matrix is singular",
            error=IndependenceFails)
    if spec.e == 3 and spec.t == 2 and N == 2:
        return CaseClassification(TAG_E3T2N2)
    return CaseClassification(
        TAG_UNSUPPORTED, reason=f"t < e with N = {N} has no closed form here")


def integer_periods(pset: GaussianPeriodSet) -> tuple[int, ...]:
    """The periods as ints.  The weight formulas use order N, which divides
    (r-1)/(q-1), so each period is an integer; an irrational one would be
    an internal inconsistency."""
    values = pset.rational_values
    if None in values:
        raise InconsistentPeriods(
            f"the order-{pset.L} periods must be integers here")
    return values


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
    return WeightDistribution.from_counts(enumerate(counts.tolist()))


# ----------------------------------------------------------------------
# Method 2: exact period sums.
# ----------------------------------------------------------------------

def _nval_by_elem(tower: FieldTower, N: int, periods) -> np.ndarray:
    """nval[v] = N * eta(class of v) for v != 0 and r - 1 at v = 0, so that
    the scaled period sum e(r-1) - sum_h nval[v_h] feeds the weight formula.
    |N eta| <= r - 1 fits the tables' dtype; [] skips take's intp copy."""
    vals = np.array([N * v for v in periods], dtype=tower.dlog.dtype)
    nval = vals[tower.dlog % N]
    nval[0] = tower.r - 1
    return nval


def wd_tsum(tower: FieldTower, derived: DerivedParams,
            cap: int = DEFAULT_TSUM_CAP) -> WeightDistribution:
    """Enumerate inputs through the exact period-sum identity (much cheaper
    per word than building codewords; length never enters)."""
    size = tower.r ** derived.t
    if size > cap:
        raise CapExceeded(f"r^t = {size} exceeds the period-sum cap {cap}")
    N = derived.N
    periods = integer_periods(gaussian_periods(tower, N))
    tally = _engine.period_sum_tally(tower, derived,
                                     _nval_by_elem(tower, N, periods))
    xs = np.nonzero(tally)[0]
    return _from_period_sums(tower, derived,
                             dict(zip(xs.tolist(), tally[xs].tolist())))


def _from_period_sums(tower: FieldTower, derived: DerivedParams,
                      sums: dict[int, int]) -> WeightDistribution:
    """The distribution of the weights of scaled period sums X, each with
    its frequency, through the one weight map of the kernels."""
    ws = _engine.weights_of_period_sums(
        np.array(list(sums), dtype=np.int64), tower.q, derived.delta,
        derived.e)
    return WeightDistribution.from_counts(zip(ws.tolist(), sums.values()))


# ----------------------------------------------------------------------
# Method 3: closed-form tables.
# ----------------------------------------------------------------------

def _closed_te_n2(tower, derived, periods: tuple[int, ...]) -> dict[int, int]:
    """The t = e table as the e-th power of one period argument's
    distribution over X: 0 once, and (r-1) - N eta_j for the (r-1)/N
    members of class j, expanded by e sparse convolutions."""
    r, N = tower.r, derived.N
    one = {0: 1}
    for eta in periods:
        X = (r - 1) - N * eta
        one[X] = one.get(X, 0) + (r - 1) // N
    out = {0: 1}
    for _ in range(derived.e):
        nxt: dict[int, int] = {}
        for x, c in out.items():
            for y, k in one.items():
                nxt[x + y] = nxt.get(x + y, 0) + c * k
        out = nxt
    return out


def _closed_tlt_n1(tower, derived) -> dict[int, int]:
    """The N = 1 table at every t <= e: the MDS code's, d = e - t + 1."""
    r, e, t = tower.r, derived.e, derived.t
    out = {0: 1}
    for u in range(1, t + 1):
        out[r * (e - t + u)] = comb(e, t - u) * sum(
            (-1) ** k * comb(e - t + u, k) * (r ** (u - k) - 1)
            for k in range(u))
    return out


def _closed_e3t2n2(tower, derived, eta: tuple[int, ...]) -> dict[int, int]:
    r = tower.r
    if r % 4 != 1:
        raise UnsupportedCase("this case forces r = 1 mod 4")
    c00 = (r - 5) // 4
    mixed = 3 * (r - 1) // 4  # (0,1) + (1,0) + (1,1)
    half = (r - 1) // 2
    rows = [(3 * half, 1)]  # all three arguments zero
    for v in eta:
        rows.append((half + 2 * v, 3 * (r - 1) // 2))
        rows.append((3 * v, half * c00))
    rows.append((2 * eta[0] + eta[1], half * mixed))
    rows.append((eta[0] + 2 * eta[1], half * mixed))
    out: dict[int, int] = {}
    for T, freq in rows:  # X = e (r-1) - N T with e = 3, N = 2
        X = 3 * (r - 1) - 2 * T
        out[X] = out.get(X, 0) + freq
    return out


def wd_closed(tower: FieldTower, derived: DerivedParams,
              classification: CaseClassification) -> WeightDistribution:
    """Evaluate the closed-form table for the classified case (no
    enumeration; frequencies are exact big integers).  The t = e, N >= 2
    and six-weight tables read the order-N periods: closed-form where one
    exists, the exact oracle otherwise."""
    if not classification.supported:
        raise classification.error(classification.reason or "unsupported case")
    tag = classification.tag
    if tag in (TAG_TE_N1, TAG_TLT_N1):
        table = _closed_tlt_n1(tower, derived)
    else:
        closed = gaussian_periods_closed_form(tower, derived.N)
        periods = integer_periods(
            closed[0] if closed else gaussian_periods(tower, derived.N))
        if tag == TAG_TE_N2:
            table = _closed_te_n2(tower, derived, periods)
        else:
            table = _closed_e3t2n2(tower, derived, periods)
    dist = _from_period_sums(tower, derived, table)
    if dist.total != tower.r ** derived.t:
        raise FrequencySumMismatch(
            "closed table frequencies do not sum to r^t")
    return dist


# ----------------------------------------------------------------------
# Cross-verification.
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    """What cross_verify found for one spec.  It holds no tower, so the
    field tables are not kept alive past the next build_field."""

    spec: CodeSpec
    classification: CaseClassification
    derived: DerivedParams
    assumptions: AssumptionReport
    distributions: dict = field(default_factory=dict)   # method -> dist
    skipped: dict = field(default_factory=dict)          # method -> reason
    agreed: bool = True
    first_diff: str | None = None
    invariant_failures: list = field(default_factory=list)
    sampling: dict | None = None

    @property
    def kappa(self) -> int:
        return self.spec.t * self.spec.m

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
        return next((self.distributions[name] for name in
                     ("closed", "tsum", "naive")
                     if name in self.distributions), None)

    def to_json_dict(self) -> dict:
        some = self.reference_distribution()
        return {
            "spec": self.spec.to_json_dict(),
            "classification": self.classification.to_json_dict(),
            "n": self.derived.n,
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


def _check_invariants(report: VerificationReport, tower) -> None:
    r, q, derived = tower.r, tower.q, report.derived
    size = r ** derived.t
    expected_moment = derived.n * size * (q - 1) // q
    tag, claim = report.classification.tag, None
    if tag in (TAG_TE_N1, TAG_TLT_N1):  # MDS, d = e - t + 1
        claim = ((q - 1) * r * (derived.e - derived.t + 1)
                 // (derived.delta * derived.e * q))
    elif tag == TAG_E3T2N2:
        sqrt_r = isqrt(r)
        if sqrt_r * sqrt_r != r:
            raise UnsupportedCase(
                f"the six-weight case needs r to be a square, got r = {r}")
        claim = 2 * (q - 1) * (r - sqrt_r) // (3 * q * derived.delta)
    for name, dist in report.distributions.items():
        if dist.total != size:
            report.invariant_failures.append(
                f"{name}: total {dist.total} != r^t {size}")
        if dist.first_moment() != expected_moment:
            report.invariant_failures.append(
                f"{name}: first moment {dist.first_moment()} != {expected_moment}")
        if report.assumptions.cond_iii and dist.frequency_at_zero != 1:
            report.invariant_failures.append(
                f"{name}: frequency at weight 0 is {dist.frequency_at_zero}")
        if claim is not None and dist.d != claim:
            report.invariant_failures.append(
                f"{name}: d = {dist.d} but the table claims {claim}")


def plan(tower: FieldTower, derived: DerivedParams,
         classification: CaseClassification, caps: Caps
         ) -> dict[str, str | None]:
    """Per method, in run order: None when it runs, else why it is skipped.
    naive and tsum run while r^t is within their caps, closed when the case
    is classified."""
    size = tower.r ** derived.t
    steps = {name: None if size <= cap else f"r^t = {size} > cap {cap}"
             for name, cap in (("naive", caps.naive), ("tsum", caps.tsum))}
    steps["closed"] = (None if classification.supported
                       else classification.reason or "unsupported")
    return steps


def run_method(name: str, tower: FieldTower, derived: DerivedParams,
               classification: CaseClassification, caps: Caps
               ) -> WeightDistribution:
    """The distribution by one method, naive and tsum under their CapExceeded
    guards.  The wd_* names are read when called, so a wrapped one runs."""
    return {"naive": lambda: wd_naive(tower, derived, cap=caps.naive),
            "tsum": lambda: wd_tsum(tower, derived, cap=caps.tsum),
            "closed": lambda: wd_closed(tower, derived, classification),
            }[name]()


def cross_verify(spec: CodeSpec, caps: Caps = Caps()) -> VerificationReport:
    """Run every method the plan runs, compare entry lists exactly, check
    the counting invariants, and sample when only the closed table ran."""
    tower = build_tower(spec)
    derived = derive_params(tower, spec)
    assumptions = validate_assumptions(tower, spec, derived)
    classification = classify(tower, spec, derived, assumptions)
    steps = plan(tower, derived, classification, caps)
    runs = [name for name, why in steps.items() if why is None]
    rep = VerificationReport(
        spec=spec, classification=classification, derived=derived,
        assumptions=assumptions,
        distributions={name: run_method(name, tower, derived, classification,
                                        caps)
                       for name in runs},
        skipped={name: why for name, why in steps.items() if why is not None})

    for a, b in combinations(sorted(rep.distributions), 2):
        pairs = zip_longest(rep.distributions[a].entries,
                            rep.distributions[b].entries)
        diff = next(((i, x, y) for i, (x, y) in enumerate(pairs) if x != y),
                    None)
        if diff is not None:
            rep.agreed = False
            rep.first_diff = "%s vs %s at entry %d: %s != %s" % (a, b, *diff)
            break

    _check_invariants(rep, tower)

    if runs == ["closed"]:
        rep.sampling = _sampling_check(tower, derived,
                                       rep.distributions["closed"], caps)
    return rep


def _chernoff_bound(k: int, m: int, p: float) -> float:
    """exp(-m KL(k/m || p)): a bound on the chance that a Binomial(m, p)
    count lies at least as far from m p as k does, on k's side."""
    a = k / m
    if (a > 0 and p == 0) or (a < 1 and p == 1):
        return 0.0  # p = c / r^t can round to 0 once r^t passes 1e308
    kl = a * log(a / p) if a > 0 else 0.0
    if a < 1:
        kl += (1 - a) * (log1p(-a) - log1p(-p))
    return exp(-m * kl)


def _sampling_check(tower, derived, closed: WeightDistribution,
                    caps: Caps) -> dict:
    """Seeded spot check against a closed-form distribution: every sampled
    weight must lie in its support, and no weight class's count may be too
    unlikely.  A class fails when its Chernoff bound is at most
    SAMPLING_ALPHA / (2K) for K classes; each bound covers one tail, so a
    correct table fails with probability at most SAMPLING_ALPHA.  The rows
    report each class's deviation in binomial sigmas.  The sampler gets
    the class values N eta_j and r - 1 (at 0), not one per element."""
    periods = integer_periods(gaussian_periods(tower, derived.N))
    m = DEFAULT_SAMPLE_COUNT
    support = closed.weights()
    tally = _engine.sample_weights(
        tower, derived, [derived.N * v for v in periods] + [tower.r - 1],
        support, m, caps.seed)
    outside = sorted(set(tally) - set(support))
    total = tower.r ** derived.t
    worst, least = 0.0, 1.0
    rows = []
    for w, c in closed.entries:
        pw = c / total
        mu = m * pw
        sigma = (m * pw * (1 - pw)) ** 0.5
        seen = tally.get(w, 0)
        dev = abs(seen - mu) / sigma if sigma > 0 else 0.0
        worst = max(worst, dev)
        least = min(least, _chernoff_bound(seen, m, pw))
        rows.append({"w": w, "observed": seen,
                     "expected": mu, "sigma_dev": dev})
    ok = not outside and least > SAMPLING_ALPHA / (2 * len(closed.entries))
    return {"ok": ok, "count": m, "seed": caps.seed,
            "weights_outside_support": outside,
            "max_sigma_dev": worst, "rows": rows}
