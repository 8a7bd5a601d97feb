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

def _check_table_fixtures() -> list[holonomy.VerificationReport]:
    reports = []
    for d, table_a in catalog.TABLE_A.items():
        a = walks.closed_walks(d, 8)
        b = walks.first_returns(d, 8)
        ok = (tuple(a.value(n) for n in range(1, 9)) == table_a
              and tuple(b.value(n) for n in range(1, 9)) == catalog.TABLE_B[d])
        reports.append(holonomy.VerificationReport(
            check="table-fixtures",
            parameters={"d": d, "oeis_A": catalog.OEIS_IDS[("A", d)],
                        "oeis_B": catalog.OEIS_IDS[("B", d)]},
            horizon=8, first_failure=None if ok else {"d": d},
        ))
    return reports


def _check_precurrences(n_max: int) -> list[holonomy.VerificationReport]:
    # The sequences are built by the binomial ladder, never by iterating
    # the recurrence under test, so the check is not circular.
    reports = []
    for d in catalog.DIMENSIONS:
        x = walks.x_sequence(d, n_max + 3)
        reports.append(holonomy.check_p_recurrence(catalog.x_recurrence(d), x, n_max))
        a = walks.closed_walks(d, n_max + 3)
        reports.append(holonomy.check_p_recurrence(catalog.a_recurrence(d), a, n_max))
    return reports


def _check_odes(order: int, d: int | None,
                kind: str | None) -> list[holonomy.VerificationReport]:
    if kind == "B":
        raise UsageError("no ODE for kind B: first returns are not holonomic")
    reports = []
    dims = [d] if d else catalog.DIMENSIONS
    kinds = [kind] if kind else ["X", "A"]
    for dd in dims:
        for k in kinds:
            if k == "X":
                series = holonomy.series_from_sequence(walks.x_sequence_fast(dd, order), order)
                ode = catalog.f_ode(dd)
            else:
                series = holonomy.series_from_sequence(walks.closed_walks_fast(dd, order), order)
                ode = catalog.a_ode(dd)
            reports.append(holonomy.check_ode(ode, series, {"kind": k, "d": dd}))
    return reports


def _check_lucas(d: int | None, kind: str | None,
                 p: int | None) -> list[holonomy.VerificationReport]:
    dims = [d] if d else catalog.DIMENSIONS
    kinds = [kind] if kind else ["X", "A"]
    primes = [p] if p else [3, 5, 7, 11, 13]
    reports = []
    for dd in dims:
        for k in kinds:
            for pp in primes:
                n_max = pp * pp + pp
                table = _build_table(k, dd, n_max)
                reports.append(holonomy.lucas_check(table, pp, n_max))
    return reports


def _check_hadamard(order: int) -> list[holonomy.VerificationReport]:
    reports = []
    a1 = holonomy.series_from_sequence(walks.closed_walks(1, order), order)
    for d in catalog.DIMENSIONS:
        f_d = holonomy.series_from_sequence(walks.x_sequence_fast(d, order), order)
        a_d = holonomy.series_from_sequence(walks.closed_walks_fast(d, order), order)
        b_d = holonomy.series_from_sequence(walks.first_returns_fast(d, order), order)
        had_ok = holonomy.hadamard(f_d, a1) == a_d
        one = holonomy.TruncatedSeries([1] + [0] * (order - 1))
        recip_ok = (one - b_d) * a_d == one
        for name, ok in (("hadamard A=F*F2", had_ok), ("reciprocal (1-B)A=1", recip_ok)):
            reports.append(holonomy.VerificationReport(
                check=name, parameters={"d": d, "order": order},
                horizon=order, first_failure=None if ok else {"d": d},
            ))
    return reports


def _check_singularities() -> list[holonomy.VerificationReport]:
    reports = []
    for d in catalog.DIMENSIONS:
        for kind, ode, expected in (
            ("X", catalog.f_ode(d), catalog.expected_f_singularities(d)),
            ("A", catalog.a_ode(d), catalog.expected_a_singularities(d)),
        ):
            roots, irrational = holonomy.ode_singularities(ode)
            ok = roots == expected and not irrational
            reports.append(holonomy.VerificationReport(
                check="singularities",
                parameters={"kind": kind, "d": d,
                            "roots": sorted(str(r) for r in roots)},
                horizon=0, first_failure=None if ok else {
                    "expected": sorted(str(r) for r in expected),
                    "irrational_factor": irrational,
                },
            ))
    return reports


_SUITES = ("table-fixtures", "precurrence", "ode", "lucas", "hadamard",
           "singularities", "all")


def cmd_verify(args) -> int:
    suite = args.suite
    # --d, --kind and --p scope a single suite; "all" runs every default.
    d, kind, p = (None, None, None) if suite == "all" else (args.d, args.kind, args.p)
    reports = []
    if suite in ("table-fixtures", "all"):
        reports += _check_table_fixtures()
    if suite in ("precurrence", "all"):
        reports += _check_precurrences(args.n_max)
    if suite in ("ode", "all"):
        reports += _check_odes(args.order, d, kind)
    if suite in ("lucas", "all"):
        reports += _check_lucas(d, kind, p)
    if suite in ("hadamard", "all"):
        reports += _check_hadamard(args.order if suite == "hadamard" else 200)
    if suite in ("singularities", "all"):
        reports += _check_singularities()
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
    if args.d <= 2:
        res = constants.polya_probability(args.d, args.N)
        obj = {
            "dimension": args.d,
            "p_d": res.p,
            "recurrent": True,
            "m_d": "divergent",
            "divergent": True,
            "partial_sum_raw": res.partial_sum_raw,
            "terms_used": res.terms_used,
        }
        _write(args.out, json.dumps(obj, indent=2) + "\n")
        return 0
    bundle = constants.build_bundle(args.d, args.N, tail_method=args.tail_method)
    obj = bundle.to_json_obj()
    if args.d in catalog.DIMENSIONS:
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
    with mp.workdps(40):
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


def cmd_asym(args) -> int:
    if args.m > 4 or args.m < 0:
        raise UsageError("correction order m must be within 0..4")
    ns = sorted(set(args.n))
    if not ns or ns[0] < 2:
        raise UsageError("need sample points n >= 2")
    bundle = None
    if args.kind == "B" and args.d >= 3:
        bundle = constants.build_bundle(args.d, args.constants_N)
    if args.kind == "A":
        exact = _exact_normalized_a(args.d, ns)
        evals = {n: asymptotics.eval_A_asym(args.d, n, args.m) for n in ns}
    else:
        exact = _exact_normalized_b(args.d, ns)
        evals = {n: asymptotics.eval_B_asym(args.d, n, bundle) for n in ns}
    config = [("kind", args.kind), ("d", args.d), ("m", args.m),
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
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--kind", choices=("X", "A", "B"), default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--order", type=int, default=300)
    p.add_argument("--n-max", type=int, default=300, dest="n_max")
    p.add_argument("--expect-fail", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="emit the constants bundle as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--tail-method", choices=constants.TAIL_METHODS,
                   default="euler-maclaurin", dest="tail_method")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("asym", help="exact vs asymptotic comparison table")
    p.add_argument("--kind", choices=("A", "B"), default="A")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--constants-N", type=int, default=20000, dest="constants_N")
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
