"""Exact construction and weight analysis of trace-defined cyclic codes.

The package builds finite-field towers GF(p) <= GF(q) <= GF(r), computes
cyclotomic classes, cyclotomic numbers and Gaussian periods exactly, derives
the parameters and polynomials of a family of trace codes, and produces
their weight distributions by three mutually checking methods: direct
enumeration, exact period-sum evaluation, and closed-form tables.
"""

from .codes import (
    AssumptionReport,
    CodePolynomials,
    CodeSpec,
    DerivedParams,
    build_polynomials,
    build_tower,
    derive_params,
    independent_power_rows,
    validate_assumptions,
)
from .corpus import GoldenExample, golden_examples, run_corpus
from .cyclotomy import (
    GaussianPeriodSet,
    applicable_closed_form,
    cyclotomic_numbers,
    gaussian_periods,
    gaussian_periods_closed_form,
    imaginary_quadratic_class_number,
    solve_index2_form,
)
from .errors import (
    AssumptionViolated,
    BadL,
    CapExceeded,
    CriterionMismatch,
    CyclotomeError,
    DivisionNotExact,
    EDoesNotDivide,
    FrequencySumMismatch,
    GammaNotPrimitive,
    InconsistentPeriods,
    IndependenceFails,
    InvalidParameters,
    MinorBudgetExceeded,
    ModulusNotIrreducible,
    NegativePeriodSum,
    NoDiophantineSolution,
    NonIntegralWeight,
    NotADivisor,
    NotPrime,
    TowerTooLarge,
    UnsupportedCase,
)
from .gf import (
    FieldTower,
    SubfieldPolynomial,
    build_field,
    cyclotomic_coset,
    is_irreducible,
    min_poly,
)
from .weights import (
    Caps,
    CaseClassification,
    VerificationReport,
    WeightDistribution,
    classify,
    cross_verify,
    wd_closed,
    wd_naive,
    wd_tsum,
)

__version__ = "0.1.0"
