"""Exception types shared across the package, and the integer and real
number checks of its arguments, which every module may import."""

from numbers import Real
from operator import index


class LqglmError(Exception):
    """Base class for all package errors."""


class DomainError(LqglmError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Carries optional context: the offending ``value`` and the ``index`` of
    the row where it occurred.
    """

    def __init__(self, message, *, value=None, index=None):
        super().__init__(message)
        self.value = value
        self.index = index


class SingularMatrixError(LqglmError, ValueError):
    """A matrix required to be positive definite failed a Cholesky pivot.

    ``pivot`` is the 1-based index of the first non-positive pivot, as
    reported by the factorization.
    """

    def __init__(self, message, *, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class EvaluationError(LqglmError, ValueError):
    """A user-supplied function returned a non-finite value at ``probe``."""

    def __init__(self, message, *, probe=None):
        super().__init__(message)
        self.probe = probe


class BracketError(LqglmError, ValueError):
    """A one-dimensional optimum sits on the boundary of its bracket."""


class UsageError(LqglmError, ValueError):
    """Inconsistent arguments (mismatched fits, wrong shapes, bad config)."""


class DegenerateDirectionError(LqglmError, ValueError):
    """The added-variable direction is (numerically) in the span of X."""


class SelectionError(LqglmError, RuntimeError):
    """Too few grid fits converged for distortion-parameter selection."""


def _integer(value, what):
    """``operator.index(value)``: the ``int`` of a Python or numpy integer.
    UsageError otherwise, since a float would truncate (a seed onto another
    seed's stream, a count onto a smaller one) and a ``bool`` (an ``int``)
    would pass as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise UsageError(f"{what} must be an integer, got {value!r}")


def _real(value, what):
    """``value`` itself if it is a Python or numpy real number (an integer
    included); UsageError otherwise, where a string or None would end in a
    bare TypeError at its first comparison or arithmetic, and a ``bool``
    (a ``numbers.Real``) would pass as 0 or 1."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return value
    raise UsageError(f"{what} must be a real number, got {value!r}")


def _reals(values, what, entry):
    """The floats of the real numbers (``_real``, as ``entry``) ``values``
    holds; UsageError, not a bare TypeError, where it is not iterable."""
    try:
        return tuple(float(_real(v, entry)) for v in values)
    except TypeError:
        raise UsageError(f"{what} must be a sequence of real numbers, got {values!r}") from None
