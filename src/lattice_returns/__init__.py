"""Exact enumeration and verification toolkit for simple random walks on
the integer lattice: closed-walk counts, first-return counts, endpoint
distributions, their P-recurrences/ODEs, asymptotic expansions, and the
return-probability constants.

The public names below, and the submodules themselves (``lr.walks``),
are imported on first access (PEP 562), so importing one submodule
loads only what it needs: the exact integer paths never load numpy or
mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "asymptotics": "AsymValue LeadingConstant a_coeff a_coeffs correction_factor "
                   "eval_A_asym eval_B_asym eval_X_asym g_coeff leading_constant_a "
                   "r_coeff",
    "constants": "ConstantsBundle Estimate b_constants build_bundle empirical_b1 "
                 "estimate_m estimate_m_tilde normalized_a_series normalized_b_series "
                 "polya_probability",
    "errors": "CapacityError DependencyError DivergenceError InvertibilityError "
              "UnsupportedOrderError",
    "holonomy": "LinearODE PRecurrence TruncatedSeries VerificationReport apply_ode "
                "check_ode check_p_recurrence check_singularities hadamard "
                "legendre_series_identity lucas_check ode_to_recurrence "
                "reciprocal_series recurrence_to_ode series_from_sequence",
    "kernel": "UniPoly binomial binomial_row legendre_poly poly_eval",
    "walks": "LatticeDistribution Layer SequenceTable closed_walks closed_walks_fast "
             "distribution_formula endpoint_count_2d first_return_closed_form_1d "
             "first_returns first_returns_dp first_returns_fast full_distribution_dp "
             "layer tau_entry x_sequence x_sequence_fast",
}.items() for name in names.split()}

_SUBMODULES = ("asymptotics", "catalog", "cli", "constants", "errors", "holonomy",
               "kernel", "walks")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _EXPORTS[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
