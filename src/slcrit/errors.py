"""Exception types shared across the package."""


class SlcritError(Exception):
    """Base class for all package errors."""


class DomainError(SlcritError, ValueError):
    """Evaluation point or window lies outside the modelled domain."""


class ValidationError(SlcritError, ValueError):
    """Input data violates a documented structural invariant."""


class UnsupportedInputError(SlcritError, ValueError):
    """Input is valid but outside the representable class of an operation."""


class GenerationError(SlcritError, RuntimeError):
    """A constructive search (e.g. block-height doubling) failed to finish."""


class NumericError(SlcritError, RuntimeError):
    """A numerical kernel (eigensolver, certified bound) failed or was violated."""
