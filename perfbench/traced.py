"""Traced launcher: run one CLI command with spans around the package's
public functions, recorded from outside the package.

    PYTHONPATH=src python perfbench/traced.py SPANS.json -- verify all

Each wrapped call adds a span ``[name, start, end, parent]`` to an
in-memory list; nothing is written until the command ends, when the spans
and the size notes go to SPANS.json.  ``run.py`` derives self times from
them.  The command's own output goes to stdout exactly as without
tracing, and the exit code is the command's.  Untraced runs never import
this file.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPANS: list[list] = []
STACK: list[int] = []
NOTES: dict = {"x_sequence": [], "summands": [], "catalog_lookups": 0,
               "max_bits": 0}


def _table_bits(table) -> None:
    values = getattr(table, "values", ())
    if values:
        bits = max(abs(v).bit_length() for v in values)
        NOTES["max_bits"] = max(NOTES["max_bits"], bits)


def _span(name, fn, after=None):
    def wrapper(*args, **kwargs):
        rec = [name, 0.0, 0.0, STACK[-1] if STACK else -1]
        STACK.append(len(SPANS))
        SPANS.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            STACK.pop()
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _count(fn, note):
    def wrapper(*args, **kwargs):
        note(args)
        return fn(*args, **kwargs)
    return wrapper


def _x_sequence_note(args, result) -> None:
    NOTES["x_sequence"].append([args[0], args[1]])
    _table_bits(result)


def _lookup_note(args) -> None:
    NOTES["catalog_lookups"] += 1


def install():
    """Patch the package's public functions, including the names that
    ``from .kernel import ...`` bound in other modules."""
    from mpmath import mp

    from lattice_returns import (asymptotics, catalog, cli, constants,
                                 holonomy, kernel, walks)

    def patch(module, attr, name, after=None):
        setattr(module, attr, _span(name, getattr(module, attr), after))

    patch(walks, "x_sequence", "walks.x_sequence", _x_sequence_note)
    for attr in ("closed_walks", "x_sequence_fast", "closed_walks_fast",
                 "first_returns", "first_returns_fast"):
        patch(walks, attr, "walks." + attr, lambda a, r: _table_bits(r))
    patch(walks, "layer", "walks.layer")

    row = _span("kernel.binomial_row", kernel.binomial_row)
    kernel.binomial_row = row
    walks.binomial_row = row
    patch(kernel, "poly_eval", "kernel.poly_eval")

    mul = _span("holonomy.series_mul", holonomy.TruncatedSeries.__mul__)
    holonomy.TruncatedSeries.__mul__ = mul
    holonomy.TruncatedSeries.__rmul__ = mul
    for attr in ("check_ode", "check_p_recurrence", "lucas_check", "hadamard",
                 "series_from_sequence"):
        patch(holonomy, attr, "holonomy." + attr)

    for attr in ("estimate_m", "estimate_m_tilde", "normalized_a_series",
                 "normalized_b_series", "polya_probability", "empirical_b1"):
        patch(constants, attr, "constants." + attr)
    constants._normalized_a_summands_mp = _count(
        constants._normalized_a_summands_mp,
        lambda a: NOTES["summands"].append([a[0], a[1], mp.dps]))

    for attr in ("eval_A_asym", "eval_B_asym", "eval_X_asym"):
        patch(asymptotics, attr, "asymptotics.eval")

    for attr in ("x_recurrence", "a_recurrence", "f_ode", "a_ode",
                 "expected_f_singularities", "expected_a_singularities"):
        setattr(catalog, attr, _count(getattr(catalog, attr), _lookup_note))
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: traced.py SPANS.json -- CLI-ARGS...\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    cli = install()
    try:
        return _span("cli.main", cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": SPANS, "notes": NOTES}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
