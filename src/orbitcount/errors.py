"""Error taxonomy shared across the package.

Operational errors (precision, budget) are kept distinct from mathematical
preconditions (regularity, membership) so drivers can retry the former and
must surface the latter.
"""


class OrbitCountError(Exception):
    """Base class for all package errors."""


class NotAUnit(OrbitCountError):
    """Inversion of an element with positive valuation outside Laurent mode."""


class PrecisionExhausted(OrbitCountError):
    """An operation needed coefficients beyond the tracked precision."""

    def __init__(self, msg="", needed=None):
        super().__init__(msg or "precision exhausted")
        self.needed = needed


class EtaUndefined(OrbitCountError):
    """The quadratic character was asked of an element indistinguishable from 0."""


class NotStronglyRegular(OrbitCountError):
    """Invariants fail strong regularity (vanishing discriminant or pairing determinant)."""


class Indeterminate(OrbitCountError):
    """A quantity is 0 modulo the working precision, so its valuation is unknown.

    Carries a suggested precision that might resolve the question.
    """

    def __init__(self, msg="", needed=None):
        super().__init__(msg or "indeterminate at working precision")
        self.needed = needed


class BudgetExceeded(OrbitCountError):
    """Enumeration would exceed the configured work budget.

    ``estimate`` is a lower bound for the amount of work that was refused.
    """

    def __init__(self, msg="", estimate=None):
        super().__init__(msg or "enumeration budget exceeded")
        self.estimate = estimate


class InvariantViolation(OrbitCountError):
    """A mathematical invariant that must hold for every input failed.

    Raised by explicit checks, not by assert, so that it still fires
    under python -O; it always means a bug, never bad input.
    """


class GroupConstraintViolated(OrbitCountError):
    """Input invariants do not define a multiplicative-type order (unit or
    twisted-palindromy condition fails, or the moment functional is
    incompatible with the involution)."""


class GeneratorNotFound(OrbitCountError):
    """The search for a residue generator of an order exhausted its attempts."""


class TargetUnreachable(OrbitCountError):
    """Random instance generation failed to hit the requested target
    within the retry cap."""


class SchemaError(OrbitCountError):
    """A serialized instance violates the expected schema; names the field."""

    def __init__(self, field, msg):
        super().__init__(f"{field}: {msg}")
        self.field = field


def require(ok, what):
    """Raise InvariantViolation(what) unless ok: an assert that -O keeps."""
    if not ok:
        raise InvariantViolation(what)
