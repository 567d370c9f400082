"""Exception hierarchy for semdisc.

All library-raised errors derive from SemdiscError so callers can catch one
base class. Subclasses distinguish bad values (validation), impossible
requests (infeasible), and broken input files (format).
"""


class SemdiscError(Exception):
    """Base class for all semdisc errors."""


class ValidationError(SemdiscError, ValueError):
    """Input violates a documented invariant (range, uniqueness, shape)."""


class ShapeError(ValidationError):
    """Array dimensions do not match the operation's contract."""


class DegenerateInputError(ValidationError):
    """Input is technically well-formed but the operation is undefined on it
    (e.g. zero column sum, all-equal values under min-max normalization)."""


class UnknownIdError(SemdiscError, KeyError):
    """A concept or feature id was not found. str() gives the message
    itself, not KeyError's quoted repr of it."""

    __str__ = Exception.__str__


class InfeasibleError(SemdiscError):
    """The assignment problem has no injective solution (fewer features
    than concepts)."""


class SingularDesignError(SemdiscError):
    """Regression design matrix is rank deficient."""


class FormatError(SemdiscError):
    """A data file could not be parsed against its documented schema."""


class IntegrityError(SemdiscError):
    """A bundled data file failed its self-check."""
