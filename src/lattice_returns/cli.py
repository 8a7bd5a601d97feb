"""Command-line surface: sequence tables, layers, verification suites,
constants bundles, and asymptotic comparison tables.

Output contract: CSV files start with one `#`-prefixed header comment
echoing the resolved configuration, then a column-name row, then data;
JSON carries big integers as decimal strings.  Identical configuration
produces byte-identical output, on any number of CPUs (``verify`` shares
its items out to forked workers, ``_run_plan``).  Exit codes: 0 success, 1 verification
failure, 2 usage or capacity error (one ``error:`` line on stderr), 3
internal error (the traceback, then one ``internal error:`` line).

Every command writes through one writer, ``_write``.  ``seq`` streams its
rows as they are made, so after exit 3 stdout (or ``--out``) may hold a
partial table; usage and capacity errors fire before the first byte, so
exit 2 writes nothing and creates no ``--out`` file (nor does an ``--out``
that cannot be written, refused first).  A reader that closes the pipe
early (``| head``) ends the run with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Iterable

from . import catalog, holonomy, walks
from .errors import CapacityError, DivergenceError, check_budget
from .kernel import unlimited_int_str


def _write(out_path: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks in order to out_path, or to stdout for None or "-".

    The file is opened when the first chunk arrives, so an error raised
    before it leaves no file; an existing target (such as /dev/null) is
    written in place, never unlinked or replaced.  sys.stdout is looked
    up here, at write time, as test harnesses and tracers swap it.
    """
    with contextlib.ExitStack() as stack:
        write = None
        for chunk in chunks:
            if write is None:
                write = (sys.stdout.write if out_path is None or out_path == "-"
                         else stack.enter_context(open(out_path, "w", newline="")).write)
            write(chunk)


def _check_out(out_path: str | None) -> None:
    """UsageError unless ``_write`` can open out_path: a writable file, or
    a new one in a writable directory (None and "-" are stdout)."""
    if out_path in (None, "-"):
        return
    folder = os.path.dirname(out_path) or "."
    target = out_path if os.path.exists(out_path) else folder
    if (os.path.isdir(out_path) or not os.path.isdir(folder)
            or not os.access(target, os.W_OK)):
        raise UsageError("--out %s is not a writable file" % out_path)


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


def _seq_csv(args, offset: int, values) -> Iterable[str]:
    yield _config_comment([("kind", args.kind), ("d", args.d), ("N", args.N),
                           ("format", args.format)])
    yield "n,value\n"
    for n, v in enumerate(values, offset):
        yield "%d,%s\n" % (n, v)


def _seq_json(args, offset: int, values) -> Iterable[str]:
    """json.dumps of {kind, d, offset, values, N} with indent=2, a value at
    a time; values is never empty."""
    yield '{\n  "kind": "%s",\n  "d": %d,\n  "offset": %d,\n  "values": [' % (
        args.kind, args.d, offset)
    sep = "\n"
    for v in values:
        yield '%s    "%s"' % (sep, v)
        sep = ",\n"
    yield '\n  ],\n  "N": %d\n}\n' % args.N


# An X- or A-table to N, which seq prints and verify lucas streams, is
# refused if its rows "n,value" would print more characters than this:
# about N^2 log10(2d) digits for A and N^2 log10(d) for X, from
# walks.term_digits (--kind A --d 5 --N 16000 prints 2.6e8 characters in
# about 1.2 s).  Kind B is held by the stricter walks.B_DIGIT_BUDGET.
TABLE_CHARACTER_BUDGET = 10**9


def _check_table(kind: str, d: int, N: int) -> None:
    check_budget("the %s-table to N = %d" % (kind, N),
                 walks.term_digits(kind, d, N, N + 1) // 2 + (N + 1) * (len(str(N)) + 3),
                 "characters", TABLE_CHARACTER_BUDGET)


def cmd_seq(args) -> int:
    if args.N < (1 if args.kind == "B" else 0):
        raise UsageError("N too small for kind %s" % args.kind)
    # X and A stream from the recurrence as Decimals, which print in linear
    # time; B needs the whole A-table first, and prints its digit strings.
    if args.kind == "B":
        offset, values = 1, walks.first_return_digits(args.d, args.N)
    else:
        _check_table(args.kind, args.d, args.N)
        offset, values = 0, walks.decimal_values(args.kind, args.d, args.N)
    render = _seq_json if args.format == "json" else _seq_csv
    _write(args.out, render(args, offset, values))
    return 0


@unlimited_int_str()
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


@unlimited_int_str()
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
    lay = walks.layer(args.d, args.n, args.h)
    config = [("d", args.d), ("n", args.n), ("h", args.h), ("format", "csv")]
    dim = lay.counts.dimension
    row = "%d," * dim + "%d\n"
    lines = [_config_comment(config),
             ",".join("x%d" % (i + 1) for i in range(dim)) + ",count\n"]
    lines += [row % (*point, count) for point, count in lay.counts.sorted_items()]
    _write(args.out, ["".join(lines)])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _scoped(value, default) -> list:
    """[value] when a flag scopes the run, else the suite's default list."""
    return list(default) if value is None else [value]


def _table_fixtures(d: int, run) -> list[holonomy.VerificationReport]:
    a, b = walks.closed_walks(d, 8), walks.first_returns(d, 8)
    ok = (tuple(a.value(n) for n in range(1, 9)) == catalog.TABLE_A[d]
          and tuple(b.value(n) for n in range(1, 9)) == catalog.TABLE_B[d])
    return [holonomy.VerificationReport(
        check="table-fixtures",
        parameters={"d": d, "oeis_A": catalog.OEIS_IDS[("A", d)],
                    "oeis_B": catalog.OEIS_IDS[("B", d)]},
        horizon=8, first_failure=None if ok else {"d": d},
    )]


def _recurrences(d: int, run) -> dict:
    return {k: catalog.x_recurrence(d) if k == "X" else catalog.a_recurrence(d)
            for k in run.kinds}


def _precurrence(d: int, run) -> list[holonomy.VerificationReport]:
    recs = _recurrences(d, run)
    return [holonomy.check_p_recurrence(recs[k], run.tables[d, k], run.n_max)
            for k in run.kinds]


def _precurrence_horizon(d: int, run) -> int:
    return run.n_max + max(r.order for r in _recurrences(d, run).values())


def _ode(d: int, run) -> list[holonomy.VerificationReport]:
    reports = []
    for k in run.kinds:
        ode = catalog.f_ode(d) if k == "X" else catalog.a_ode(d)
        series = holonomy.series_from_sequence(run.tables[d, k], run.order)
        reports.append(holonomy.check_ode(ode, series, {"kind": k, "d": d}))
    return reports


def _lucas(d: int, run) -> list[holonomy.VerificationReport]:
    """Each prime p checks u_0 .. u_{p^2+p}: X and A on a recurrence stream
    each, B on the prefix of one table to the largest prime's."""
    reports = []
    for k in run.kinds:
        if k == "B":
            table = _build_table(k, d, max(run.primes) ** 2 + max(run.primes)).values
        for p in run.primes:
            terms = table if k == "B" else walks.recurrence_values(k, d, p * p + p)
            reports.append(holonomy.lucas_check(terms, k, d, p, p * p + p))
    return reports


def _hadamard(d: int, run) -> list[holonomy.VerificationReport]:
    order = run.hadamard_order
    f_d, a_d, b_d = (holonomy.series_from_sequence(_build_table(k, d, order), order)
                     for k in "XAB")
    one = holonomy.TruncatedSeries([1] + [0] * (order - 1))
    checks = (("hadamard A=F*F2", holonomy.hadamard(f_d, run.a1) == a_d),
              ("reciprocal (1-B)A=1", (one - b_d) * a_d == one))
    return [holonomy.VerificationReport(
        check=name, parameters={"d": d, "order": order},
        horizon=order, first_failure=None if ok else {"d": d},
    ) for name, ok in checks]


# verify hadamard refuses a (1 - B) A check whose product would take more
# bit operations than this.  The operands hold about 2 order^2 log2(2d)
# bits each (walks.term_digits), and Karatsuba's rule, in kernel.product
# and CPython's ints, multiplies s bits in about s^log2(3) operations.  --d 1
# --order 2200 is 1.2e11 (its product takes 0.8 s on a 2-vCPU AMD EPYC VM);
# the budget admits order 4315 at d = 1 and 2367 at d = 5, where one d
# takes about 10 s.
PRODUCT_WORK_BUDGET = 10**12


def _product_work(d: int, order: int) -> int:
    """Bit operations of hadamard's (1 - B) A product at (d, order), in
    ints: s^log2(3) = 3^k (s / 2^k)^log2(3) for s bits, 2^k <= s."""
    num, den = math.log2(10).as_integer_ratio()
    bits = walks.term_digits("A", d, order, order) * num // den
    k = max(bits.bit_length() - 1, 0)
    return 3**k * round((bits / (1 << k)) ** math.log2(3) * 2**52) >> 52


def _singularities(d: int, run) -> list[holonomy.VerificationReport]:
    reports = []
    for k in run.kinds:
        if k == "X":
            ode, expected = catalog.f_ode(d), catalog.expected_f_singularities(d)
        else:
            ode, expected = catalog.a_ode(d), catalog.expected_a_singularities(d)
        reports.append(holonomy.check_singularities(ode, expected, {"kind": k, "d": d}))
    return reports


# Each suite: the flags it honours, the dimensions --d may name (None: any
# d >= 1, as the catalog derives every dimension's recurrences and ODEs),
# its reports for one d, and the ladder horizon it reads at d (None: it
# reads no ladder).  Without --d a suite covers the printed dimensions,
# d <= 5, that it has data for; --d reaches any other.  "all" runs every
# suite in this order at its defaults: --order 300 and --n-max 300, with
# hadamard at order 200.
_SUITES = {
    "table-fixtures": (("--d",), catalog.TABLE_A, _table_fixtures, None),
    "precurrence": (("--d", "--kind", "--n-max"), None, _precurrence,
                    _precurrence_horizon),
    "ode": (("--d", "--kind", "--order"), None, _ode, lambda d, run: run.order),
    "lucas": (("--d", "--kind", "--p"), None, _lucas, None),
    "hadamard": (("--d", "--order"), None, _hadamard, None),
    "singularities": (("--d", "--kind"), None, _singularities, None),
}


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_items(plan, run, indices: Iterable[int]) -> dict:
    """{i: (reports, exception or None)} for each plan item i in indices:
    an item that raises is recorded, and the next one runs."""
    outcomes = {}
    for i in indices:
        reports_for, _, d = plan[i]
        try:
            outcomes[i] = (reports_for(d, run), None)
        except Exception as exc:
            outcomes[i] = (None, exc)
    return outcomes


def _queue_indices(fd: int) -> Iterable[int]:
    """The item indices read from the queue pipe, one byte each, until it
    is empty; a one-byte read takes a whole index, whoever else reads."""
    return (byte[0] for byte in iter(lambda: os.read(fd, 1), b""))


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a verify worker, printed as
    the cause of the copy that the parent raises."""


def _worker(plan, run, queue: int, out: int) -> None:
    """A forked worker: run items from the queue, send their outcomes
    pickled to out, an exception with its traceback as text, and leave by
    os._exit, never returning into the caller's frames."""
    code = 1
    try:
        import pickle
        import traceback

        outcomes = _run_items(plan, run, _queue_indices(queue))
        for i, (reports, exc) in outcomes.items():
            if exc is not None:
                text = "".join(traceback.format_exception(type(exc), exc,
                                                          exc.__traceback__)).rstrip()
                outcomes[i] = (reports, (exc, text))
        with open(out, "wb") as fh:
            fh.write(pickle.dumps(outcomes))
        code = 0
    finally:
        os._exit(code)


def _run_forked(plan, run, order: list[int], workers: int) -> dict:
    """``_run_items`` over the plan, shared out to this process and
    workers - 1 forked children through a pipe of item indices."""
    import pickle
    import signal

    queue, fill = os.pipe()
    os.write(fill, bytes(order))  # a plan has at most 6 suites x 5 dimensions
    os.close(fill)
    children = []  # (pid, read end of its outcome pipe), not yet reaped
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # fewer workers: the queue still hands out every item
                os.close(out_r)
                os.close(out_w)
                break
            if pid == 0:
                os.close(out_r)
                _worker(plan, run, queue, out_w)
            os.close(out_w)
            children.append((pid, out_r))
        outcomes = _run_items(plan, run, _queue_indices(queue))
        while children:
            pid, fd = children[0]
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            os.close(fd)
            children.pop(0)
            if status or not data:
                raise RuntimeError("verify worker %d ended without its reports "
                                   "(wait status %d)" % (pid, status))
            for i, (reports, failure) in pickle.loads(data).items():
                exc = None
                if failure is not None:
                    exc, text = failure
                    exc.__cause__ = _WorkerTraceback(text)
                outcomes[i] = (reports, exc)
    finally:
        os.close(queue)
        for pid, fd in children:  # after an error: stop and reap the rest
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def _run_plan(plan, run) -> list[list[holonomy.VerificationReport]]:
    """Each item's reports, in plan order.  The items run on up to one
    worker per available CPU, the largest d first: this process and
    children made by os.fork, which inherit what the parent built (the
    ladder) without copying it, and which a process running other threads
    must not make.  The exception of the first item in plan order that
    raised is raised again here, so the exit code and the last stderr line
    do not depend on the CPUs."""
    import threading

    order = sorted(range(len(plan)), key=lambda i: -plan[i][2])
    workers = min(_cpu_count(), len(plan))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        outcomes = _run_items(plan, run, order)
    else:
        outcomes = _run_forked(plan, run, order, workers)
    reports = []
    for i in range(len(plan)):
        item, exc = outcomes[i]
        if exc is not None:
            raise exc
        reports.append(item)
    return reports


def cmd_verify(args) -> int:
    flags, dims, _, _ = _SUITES.get(args.suite, ((), None, None, None))
    for flag in ("--d", "--kind", "--p", "--order", "--n-max"):
        if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in flags:
            raise UsageError("verify %s does not take %s" % (args.suite, flag))
    if args.kind == "B" and args.suite != "lucas":
        raise UsageError("verify %s does not take --kind B: first returns are "
                         "not holonomic" % args.suite)
    if args.d is not None and (args.d < 1 or dims is not None and args.d not in dims):
        raise UsageError("verify %s has no data for d=%d" % (args.suite, args.d))
    order = 300 if args.order is None else args.order
    run = argparse.Namespace(
        kinds=_scoped(args.kind, ("X", "A")), primes=_scoped(args.p, (3, 5, 7, 11, 13)),
        n_max=300 if args.n_max is None else args.n_max, order=order,
        hadamard_order=200 if args.suite == "all" else order, tables={})
    if run.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    if run.order < 1:
        raise UsageError("--order must be >= 1")
    plan = []
    for name in (_SUITES if args.suite == "all" else (args.suite,)):
        _, dims, reports_for, horizon = _SUITES[name]
        plan += [(reports_for, horizon, d)
                 for d in _scoped(args.d, [dd for dd in catalog.PRINTED_DIMENSIONS
                                           if dims is None or dd in dims])]
    hadamard_dims = [d for reports_for, _, d in plan if reports_for is _hadamard]
    if hadamard_dims:
        d = max(hadamard_dims)
        check_budget("the (1 - B) A check at d = %d, order %d" % (d, run.hadamard_order),
                     _product_work(d, run.hadamard_order), "bit operations",
                     PRODUCT_WORK_BUDGET)
    lucas_dims = [d for reports_for, _, d in plan if reports_for is _lucas]
    if lucas_dims:  # the stream to p^2 + p does seq's work, whatever the kind
        p = max(run.primes)
        _check_table("A", max(lucas_dims), p * p + p)
    # Before any stream, and after the budget, which keeps the trial
    # division short.
    if args.p is not None and not holonomy.is_prime(args.p):
        raise UsageError("%d is not prime" % args.p)
    # What the items share is made here, before they are shared out: one
    # binomial ladder at the largest dimension and horizon that any suite
    # reads, one A view of each dimension read, and hadamard's A_1 series.
    # The fast paths iterate the catalog's recurrences, so the recurrence
    # and ODE suites read the ladder, never the objects under test; both
    # read prefixes only, so a longer ladder serves.
    sizes = [(d, horizon(d, run)) for _, horizon, d in plan if horizon]
    if sizes:
        ladder = walks.x_ladder(max(d for d, _ in sizes), max(N for _, N in sizes))
        run.tables.update(((x.dimension, "X"), x) for x in ladder)
        if "A" in run.kinds:
            run.tables.update(((d, "A"), walks.closed_walks_from_x(run.tables[d, "X"]))
                              for d in sorted({d for d, _ in sizes}))
    if hadamard_dims:
        run.a1 = holonomy.series_from_sequence(
            walks.closed_walks(1, run.hadamard_order), run.hadamard_order)
    reports = [r for item in _run_plan(plan, run) for r in item]
    failed = [r for r in reports if not r.passed]
    status = "fail" if failed else "pass"
    if args.expect_fail:
        status = "pass" if failed else "fail"
    obj = {
        "suite": args.suite,
        "expect_fail": bool(args.expect_fail),
        "status": status,
        "reports": [r.to_json_obj() for r in reports],
    }
    _write(args.out, [json.dumps(obj, indent=2) + "\n"])
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    from . import constants

    bundle = constants.build_bundle(args.d, args.N)
    obj = bundle.to_json_obj()
    if not bundle.recurrent:
        obj["b_1_empirical_fit"] = constants.empirical_b1(
            args.d, bundle.m, bundle.b_terms, bundle.first_returns)
    _write(args.out, [json.dumps(obj, indent=2) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------

def _exact_normalized_a(d: int, ns: list[int]) -> dict[int, float]:
    """A_{2n} (pi n)^(d/2) / (2d)^(2n) from the constants' summand stream,
    of which only the terms at ns are kept, in the constants' decimal
    context."""
    import decimal

    from . import constants

    us, bits = constants._normalized_a_summands_mp(d, max(ns))
    wanted = set(ns)
    with decimal.localcontext(constants.TAIL_CONTEXT):
        half = decimal.Decimal(d) / 2
        return {n: float(u / decimal.Decimal(1 << bits) * (constants.PI * n) ** half)
                for n, u in enumerate(us) if n in wanted}


def _exact_normalized_b(d: int, ns: list[int]) -> dict[int, float]:
    """B_{2n} / (2d)^{2n} at ns, scaled by the growth of its leading term:
    from the fixed-point B-series at d = 1, 2, and at d >= 3 from the
    float series, whose noise the benchmark's references pin."""
    from . import constants

    N = max(ns)
    if d <= 2:
        us, bits = constants._normalized_a_summands_mp(d, N)
        series, D = constants._fixed_first_returns(d, N, us, bits)
        b = {n: series[n] / 10**D for n in ns}
    else:
        b = constants.normalized_b_series(d, N)
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
# (the table is byte-identical to one built at N = 20000 for d = 3, 4, 5).
_ASYM_BUNDLE_N = 1000


def cmd_asym(args) -> int:
    from . import asymptotics, constants

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
    _write(args.out, ["".join(lines)])
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
    p.add_argument("suite", choices=(*_SUITES, "all"))
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
    # Nothing calls BLAS: numpy's OpenBLAS would only start idle threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The int/str limit guards parsing, which argparse has finished.
    try:
        _check_out(args.out)
        with unlimited_int_str():
            return args.func(args)
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): end as a complete run
        # does.  stdout now points at os.devnull, so that the flush at
        # exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, ValueError, CapacityError, DivergenceError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        import traceback  # only on this path: it costs start-up time

        traceback.print_exc()
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
