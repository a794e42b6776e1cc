"""Exception types shared across the package."""


class StrongRealError(Exception):
    """Base class for all errors raised by this package."""


class ExtensionTooLargeError(StrongRealError, ValueError):
    """Requested field extension exceeds the configured bit cap."""


class EnumerationBoundError(StrongRealError, ValueError):
    """An exhaustive enumeration would exceed its configured bound."""


class ZeroInputError(StrongRealError, ZeroDivisionError):
    """Operation undefined at zero (inverse, a -> a^(-q))."""


class TildeUndefinedError(StrongRealError, ValueError):
    """Root inversion is undefined for polynomials with zero constant term."""


class NotUFactorableError(StrongRealError, ValueError):
    """Polynomial is not a product of U-irreducible polynomials."""


class NotOverBaseFieldError(StrongRealError, ValueError):
    """Polynomial has a coefficient outside the GF(q) subfield."""


class DatumError(StrongRealError, ValueError):
    """Invalid class datum (bad block, degree mismatch, non-real input)."""


class NegationUndefinedError(StrongRealError, ValueError):
    """g -> -g does not permute classes in characteristic 2 (t+1 = t-1)."""


class BudgetExceededError(StrongRealError, RuntimeError):
    """Search undecidable at the configured scale; never a verdict."""


class RealizationError(StrongRealError, RuntimeError):
    """A class datum could not be realized as a checked unitary matrix."""


class RealizationBudgetError(BudgetExceededError, RealizationError):
    """The invariant-form scan ran out of realize_scan candidates."""


class GroupClosureError(StrongRealError, RuntimeError):
    """Closure finished with an order that contradicts the group formula."""


class CountMismatchError(StrongRealError, RuntimeError):
    """Direct class enumeration disagrees with a series coefficient."""
