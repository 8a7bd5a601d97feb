"""Shared exception types for lattice_returns."""


class CapacityError(Exception):
    """A computation would exceed its budget, checked before it starts:
    a dynamic-programming box its cell budget, an exact first-return table
    its packed-digit budget, the float B route its byte budget, the
    fixed-point summand stream its term budget, a layer its lattice-point
    budget, a printed X- or A-table its output budget, or the Hadamard
    suite's check product its bit-operation budget."""


class DivergenceError(ArithmeticError):
    """The requested series diverges for this dimension."""


class DependencyError(Exception):
    """A required precomputed constant is missing from the bundle."""


class UnsupportedOrderError(ValueError):
    """Asymptotic coefficients beyond MAX_ORDER are not available."""


class InvertibilityError(ZeroDivisionError):
    """Series reciprocal requested for a series with zero constant term."""
