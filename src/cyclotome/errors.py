"""Exception types shared across the package.

Every error raised on a violated precondition or an unreachable internal
state derives from CyclotomeError, so callers (and the CLI) can catch one
base class.
"""


class CyclotomeError(Exception):
    """Base class for all cyclotome errors."""


class InvalidParameters(CyclotomeError, ValueError):
    """A field or code parameter is out of range or has the wrong shape."""


# field tower construction
class NotPrime(CyclotomeError):
    """The claimed characteristic is not a prime number."""


class ModulusNotIrreducible(CyclotomeError):
    """A supplied modulus polynomial factors over GF(p)."""


class GammaNotPrimitive(CyclotomeError):
    """The modulus is irreducible but x is not a primitive element."""


class TowerTooLarge(CyclotomeError):
    """The field order exceeds the configured table cap."""


# cyclotomy
class NotADivisor(CyclotomeError):
    """The requested class order L does not divide r - 1."""


class NoDiophantineSolution(CyclotomeError):
    """No (a, b) solves the quadratic form constraints; internal inconsistency."""


class InconsistentPeriods(CyclotomeError):
    """Periods break an identity they must satisfy (sum -1, integrality);
    internal inconsistency."""


class BadL(CyclotomeError):
    """Class number requested for an L outside {prime, L = 3 mod 4, L != 3}."""


# code construction
class EDoesNotDivide(CyclotomeError):
    """The column count e does not divide r - 1."""


class AssumptionViolated(CyclotomeError):
    """A construction requires the validity conditions, and one fails."""


class CriterionMismatch(CyclotomeError):
    """A fast validity criterion claims a condition that the direct check
    refutes; internal inconsistency."""


class DivisionNotExact(CyclotomeError):
    """Exact polynomial division left a remainder; internal inconsistency."""


class NonIntegralWeight(CyclotomeError):
    """A weight formula produced a non-integer; internal inconsistency."""


# weight distribution methods
class CapExceeded(CyclotomeError):
    """An enumeration or a count table would exceed its cap."""


class NegativePeriodSum(CyclotomeError):
    """A scaled period sum came out negative; internal inconsistency."""


class FrequencySumMismatch(CyclotomeError):
    """A closed table's frequencies do not add up to r^t; internal
    inconsistency."""


class UnsupportedCase(CyclotomeError):
    """No closed-form table covers this parameter case."""


class IndependenceFails(CyclotomeError):
    """The closed form for t < e needs independent rows, and a minor is singular."""


class MinorBudgetExceeded(UnsupportedCase):
    """Testing the t x t minors for independence would exceed the fixed
    elimination budget (codes.MINOR_BUDGET)."""
