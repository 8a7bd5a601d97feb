"""Shared exception types for lattice_returns."""


class CapacityError(Exception):
    """A dynamic-programming box would exceed its cell budget."""


class DivergenceError(ArithmeticError):
    """The requested series diverges for this dimension."""


class DependencyError(Exception):
    """A required precomputed constant is missing from the bundle."""


class UnsupportedOrderError(ValueError):
    """Asymptotic coefficients beyond MAX_ORDER are not available."""


class InvertibilityError(ZeroDivisionError):
    """Series reciprocal requested for a series with zero constant term."""
