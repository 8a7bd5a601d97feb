"""Command-line surface: sequence tables, layers, verification suites,
constants bundles, and asymptotic comparison tables.

Output contract: CSV files start with one `#`-prefixed header comment
echoing the resolved configuration, then a column-name row, then data;
JSON carries big integers as decimal strings.  Identical configuration
produces byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from mpmath import mp, mpf

from . import asymptotics, catalog, constants, holonomy, walks
from .errors import CapacityError, DivergenceError

def _write(out_path: str | None, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _config_comment(pairs: list[tuple[str, object]]) -> str:
    return "# " + " ".join("%s=%s" % (k, v) for k, v in pairs) + "\n"


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

def _build_table(kind: str, d: int, N: int) -> walks.SequenceTable:
    if kind == "X":
        return walks.x_sequence_fast(d, N)
    if kind == "A":
        return walks.closed_walks_fast(d, N)
    return walks.first_returns_fast(d, N)


def cmd_seq(args) -> int:
    if args.N < (1 if args.kind == "B" else 0):
        raise UsageError("N too small for kind %s" % args.kind)
    table = _build_table(args.kind, args.d, args.N)
    config = [("kind", args.kind), ("d", args.d), ("N", args.N),
              ("format", args.format)]
    if args.format == "json":
        obj = table.to_json_obj()
        obj["N"] = args.N
        text = json.dumps(obj, indent=2) + "\n"
    else:
        lines = [_config_comment(config), "n,value\n"]
        for n, v in table.iter_indexed():
            lines.append("%d,%d\n" % (n, v))
        text = "".join(lines)
    _write(args.out, text)
    return 0


def parse_seq_csv(text: str) -> walks.SequenceTable:
    """Round-trip reader for cmd_seq CSV output."""
    meta: dict[str, str] = {}
    values = []
    for line in text.splitlines():
        if line.startswith("#"):
            for part in line[1:].split():
                if "=" in part:
                    k, v = part.split("=", 1)
                    meta[k] = v
        elif line and not line.startswith("n,"):
            _, v = line.split(",")
            values.append(int(v))
    return walks.SequenceTable(int(meta["d"]), meta["kind"], tuple(values))


def parse_seq_json(text: str) -> walks.SequenceTable:
    obj = json.loads(text)
    return walks.SequenceTable(obj["d"], obj["kind"],
                               tuple(int(v) for v in obj["values"]))


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def cmd_layers(args) -> int:
    if args.d < 3:
        raise UsageError("layers need a target dimension d >= 3")
    if abs(args.h) > args.n:
        raise UsageError("|h| must be <= n")
    lay = walks.layer(args.d, args.n, args.h)
    config = [("d", args.d), ("n", args.n), ("h", args.h), ("format", "csv")]
    cols = ",".join("x%d" % (i + 1) for i in range(lay.counts.dimension))
    lines = [_config_comment(config), cols + ",count\n"]
    for point, count in lay.counts.sorted_items():
        lines.append(",".join(str(c) for c in point) + ",%d\n" % count)
    _write(args.out, "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _scoped(value, default) -> list:
    """[value] when a flag scopes the run, else the suite's default list."""
    return list(default) if value is None else [value]


def _check_table_fixtures(d: int | None) -> list[holonomy.VerificationReport]:
    reports = []
    for dd in _scoped(d, catalog.TABLE_A):
        a = walks.closed_walks(dd, 8)
        b = walks.first_returns(dd, 8)
        ok = (tuple(a.value(n) for n in range(1, 9)) == catalog.TABLE_A[dd]
              and tuple(b.value(n) for n in range(1, 9)) == catalog.TABLE_B[dd])
        reports.append(holonomy.VerificationReport(
            check="table-fixtures",
            parameters={"d": dd, "oeis_A": catalog.OEIS_IDS[("A", dd)],
                        "oeis_B": catalog.OEIS_IDS[("B", dd)]},
            horizon=8, first_failure=None if ok else {"d": dd},
        ))
    return reports


def _ladder_tables(d: int, N: int, kinds: list[str]) -> dict[str, walks.SequenceTable]:
    """The tables of ``kinds`` ("X", "A") through index N, from one
    binomial ladder.

    The fast paths iterate the recurrences derived from the ODEs, so the
    recurrence and ODE suites read the ladder, never the objects under
    test.
    """
    x = walks.x_sequence(d, N)
    return {k: x if k == "X" else walks.closed_walks_from_x(x) for k in kinds}


def _check_precurrences(n_max: int, d: int | None,
                        kind: str | None) -> list[holonomy.VerificationReport]:
    reports = []
    for dd in _scoped(d, catalog.PRINTED_DIMENSIONS):
        kinds = _scoped(kind, ("X", "A"))
        recs = {k: catalog.x_recurrence(dd) if k == "X" else catalog.a_recurrence(dd)
                for k in kinds}
        tables = _ladder_tables(dd, n_max + max(r.order for r in recs.values()), kinds)
        for k in kinds:
            reports.append(holonomy.check_p_recurrence(recs[k], tables[k], n_max))
    return reports


def _check_odes(order: int, d: int | None,
                kind: str | None) -> list[holonomy.VerificationReport]:
    reports = []
    for dd in _scoped(d, catalog.PRINTED_DIMENSIONS):
        kinds = _scoped(kind, ("X", "A"))
        tables = _ladder_tables(dd, order, kinds)
        for k in kinds:
            ode = catalog.f_ode(dd) if k == "X" else catalog.a_ode(dd)
            series = holonomy.series_from_sequence(tables[k], order)
            reports.append(holonomy.check_ode(ode, series, {"kind": k, "d": dd}))
    return reports


def _check_lucas(d: int | None, kind: str | None,
                 p: int | None) -> list[holonomy.VerificationReport]:
    reports = []
    for dd in _scoped(d, catalog.PRINTED_DIMENSIONS):
        for k in _scoped(kind, ("X", "A")):
            for pp in _scoped(p, (3, 5, 7, 11, 13)):
                n_max = pp * pp + pp
                table = _build_table(k, dd, n_max)
                reports.append(holonomy.lucas_check(table, pp, n_max))
    return reports


def _check_hadamard(order: int, d: int | None) -> list[holonomy.VerificationReport]:
    reports = []
    a1 = holonomy.series_from_sequence(walks.closed_walks(1, order), order)
    for dd in _scoped(d, catalog.PRINTED_DIMENSIONS):
        f_d = holonomy.series_from_sequence(walks.x_sequence_fast(dd, order), order)
        a_d = holonomy.series_from_sequence(walks.closed_walks_fast(dd, order), order)
        b_d = holonomy.series_from_sequence(walks.first_returns_fast(dd, order), order)
        had_ok = holonomy.hadamard(f_d, a1) == a_d
        one = holonomy.TruncatedSeries([1] + [0] * (order - 1))
        recip_ok = (one - b_d) * a_d == one
        for name, ok in (("hadamard A=F*F2", had_ok), ("reciprocal (1-B)A=1", recip_ok)):
            reports.append(holonomy.VerificationReport(
                check=name, parameters={"d": dd, "order": order},
                horizon=order, first_failure=None if ok else {"d": dd},
            ))
    return reports


def _check_singularities(d: int | None,
                         kind: str | None) -> list[holonomy.VerificationReport]:
    reports = []
    for dd in _scoped(d, catalog.PRINTED_DIMENSIONS):
        for k in _scoped(kind, ("X", "A")):
            if k == "X":
                ode, expected = catalog.f_ode(dd), catalog.expected_f_singularities(dd)
            else:
                ode, expected = catalog.a_ode(dd), catalog.expected_a_singularities(dd)
            roots, irrational = holonomy.ode_singularities(ode)
            ok = roots == expected and not irrational
            reports.append(holonomy.VerificationReport(
                check="singularities",
                parameters={"kind": k, "d": dd,
                            "roots": sorted(str(r) for r in roots)},
                horizon=0, first_failure=None if ok else {
                    "expected": sorted(str(r) for r in expected),
                    "irrational_factor": irrational,
                },
            ))
    return reports


# The flags each suite honours, and the dimensions --d may name (None:
# any d >= 1, as its tables come from the fast paths, which fall back to
# the ladder past the catalog).  Without --d every suite covers the
# printed dimensions, d <= 5; --d reaches the guessed d = 6..8.  "all"
# runs every suite at its defaults: --order 300 and --n-max 300, with
# hadamard at order 200.
_SCOPES = {
    "table-fixtures": (("--d",), catalog.TABLE_A),
    "precurrence": (("--d", "--kind", "--n-max"), catalog.DIMENSIONS),
    "ode": (("--d", "--kind", "--order"), catalog.DIMENSIONS),
    "lucas": (("--d", "--kind", "--p"), None),
    "hadamard": (("--d", "--order"), None),
    "singularities": (("--d", "--kind"), catalog.DIMENSIONS),
    "all": ((), None),
}


def _resolve_scope(args) -> tuple[int | None, str | None, int | None]:
    """--d, --kind and --p, after every typed flag is checked against what
    the suite takes."""
    flags, dims = _SCOPES[args.suite]
    for flag in ("--d", "--kind", "--p", "--order", "--n-max"):
        if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in flags:
            raise UsageError("verify %s does not take %s" % (args.suite, flag))
    if args.kind == "B" and args.suite != "lucas":
        raise UsageError("verify %s does not take --kind B: first returns are "
                         "not holonomic" % args.suite)
    if args.d is not None and (args.d < 1 or dims is not None and args.d not in dims):
        raise UsageError("verify %s has no data for d=%d" % (args.suite, args.d))
    return args.d, args.kind, args.p


def cmd_verify(args) -> int:
    suite = args.suite
    d, kind, p = _resolve_scope(args)
    n_max = 300 if args.n_max is None else args.n_max
    order = 300 if args.order is None else args.order
    if n_max < 0:
        raise UsageError("--n-max must be >= 0")
    if order < 1:
        raise UsageError("--order must be >= 1")
    reports = []
    if suite in ("table-fixtures", "all"):
        reports += _check_table_fixtures(d)
    if suite in ("precurrence", "all"):
        reports += _check_precurrences(n_max, d, kind)
    if suite in ("ode", "all"):
        reports += _check_odes(order, d, kind)
    if suite in ("lucas", "all"):
        reports += _check_lucas(d, kind, p)
    if suite in ("hadamard", "all"):
        reports += _check_hadamard(order if suite == "hadamard" else 200, d)
    if suite in ("singularities", "all"):
        reports += _check_singularities(d, kind)
    failed = [r for r in reports if not r.passed]
    status = "fail" if failed else "pass"
    if args.expect_fail:
        status = "pass" if failed else "fail"
    obj = {
        "suite": suite,
        "expect_fail": bool(args.expect_fail),
        "status": status,
        "reports": [r.to_json_obj() for r in reports],
    }
    _write(args.out, json.dumps(obj, indent=2) + "\n")
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    bundle = constants.build_bundle(args.d, args.N)
    obj = bundle.to_json_obj()
    if not bundle.recurrent and args.d in catalog.DIMENSIONS:
        obj["b_1_empirical_fit"] = constants.empirical_b1(
            args.d, bundle.m, n=min(2000, args.N))
    _write(args.out, json.dumps(obj, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------

def _exact_normalized_a(d: int, ns: list[int]) -> dict[int, float]:
    table = walks.closed_walks_fast(d, max(ns))
    out = {}
    with mp.workdps(constants.DPS):
        for n in ns:
            v = mpf(table.value(n)) * (mp.pi * n) ** (mpf(d) / 2) / mpf(2 * d) ** (2 * n)
            out[n] = float(v)
    return out


def _exact_normalized_b(d: int, ns: list[int]) -> dict[int, float]:
    b = constants.normalized_b_series(d, max(ns))
    out = {}
    for n in ns:
        if d == 1:
            out[n] = float(b[n]) * 2 * n * math.sqrt(math.pi * n)
        elif d == 2:
            out[n] = float(b[n]) * n * math.log(n) ** 2
        else:
            out[n] = float(b[n]) * (math.pi * n) ** (d / 2)
    return out


# The B-table reads b_d and b_1 from a bundle of this many terms.  With
# the derived tails, m_d is within its double-precision floor at N = 1000
# (the table is byte-identical to one built at N = 20000 for d = 3, 4, 5);
# past the catalog (d >= 9), whose summands come from the ladder, it
# takes seconds and stays within walks.LADDER_BUDGET.
_ASYM_BUNDLE_N = 1000


def cmd_asym(args) -> int:
    if args.kind == "B" and args.m is not None:
        raise UsageError("asym --kind B does not take --m: the B-table has no "
                         "correction order")
    # The B header keeps echoing m=4, the default of kind A, so that its
    # byte-pinned benchmark references stay valid.
    m = 4 if args.m is None else args.m
    if not 0 <= m <= asymptotics.MAX_ORDER:
        raise UsageError("correction order m must be within 0..%d"
                         % asymptotics.MAX_ORDER)
    ns = sorted(set(args.n))
    if not ns or ns[0] < 2:
        raise UsageError("need sample points n >= 2")
    bundle = None
    if args.kind == "B" and args.d >= 3:
        bundle = constants.build_bundle(args.d, _ASYM_BUNDLE_N)
    if args.kind == "A":
        exact = _exact_normalized_a(args.d, ns)
        evals = {n: asymptotics.eval_A_asym(args.d, n, m) for n in ns}
    else:
        exact = _exact_normalized_b(args.d, ns)
        evals = {n: asymptotics.eval_B_asym(args.d, n, bundle) for n in ns}
    config = [("kind", args.kind), ("d", args.d), ("m", m),
              ("n", ",".join(str(n) for n in ns))]
    lines = [_config_comment(config),
             "n,exact_normalized,asym_normalized,rel_error\n"]
    for n in ns:
        e, a = exact[n], evals[n].normalized
        rel = abs(e - a) / e if e else math.inf
        lines.append("%d,%r,%r,%r\n" % (n, e, a, rel))
    _write(args.out, "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lattice-returns",
        description="Exact enumeration, asymptotics driving, and mechanical "
                    "verification for closed/first-return lattice walks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit an x/A/B sequence table")
    p.add_argument("--kind", choices=("X", "A", "B"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("layers", help="emit one layer of the endpoint distribution")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(_SCOPES))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--kind", choices=("X", "A", "B"), default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--expect-fail", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="emit the constants bundle as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("asym", help="exact vs asymptotic comparison table")
    p.add_argument("--kind", choices=("A", "B"), default="A")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asym)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Exact tables print integers of any length; the interpreter's limit
    # on int/str conversion guards parsing, which argparse has finished.
    limit = (sys.get_int_max_str_digits()
             if hasattr(sys, "get_int_max_str_digits") else None)
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except (UsageError, ValueError, CapacityError, DivergenceError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
