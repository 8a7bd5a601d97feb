"""Shared exception types for lattice_returns, and the one budget check."""


class CapacityError(Exception):
    """A computation would exceed its budget, checked before it starts by
    ``check_budget``, which names the size that triggered it."""


def check_budget(what: str, estimate: float, unit: str, budget: float) -> None:
    """Raise CapacityError if estimate, in units, is over budget: the only
    place that compares an estimate with a budget.  An int estimate past
    the float range is shown through a Decimal."""
    if estimate > budget:
        if isinstance(estimate, int) and estimate > 1e300:
            from decimal import Decimal

            estimate = Decimal(estimate)
        raise CapacityError("%s needs about %s %s, over the budget %.3g"
                            % (what, format(estimate, ".3g"), unit, budget))


class DivergenceError(ArithmeticError):
    """The requested series diverges for this dimension."""


class DependencyError(Exception):
    """A required precomputed constant is missing from the bundle."""


class UnsupportedOrderError(ValueError):
    """Asymptotic coefficients beyond MAX_ORDER are not available."""


class InvertibilityError(ZeroDivisionError):
    """Series reciprocal requested for a series with zero constant term."""
