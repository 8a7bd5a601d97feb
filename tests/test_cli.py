"""Command-line surface: golden outputs, exit codes, determinism,
round-trips.  Most tests drive main() in-process; one subprocess test
covers the installed console script.
"""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lattice_returns as lr
from lattice_returns import catalog, cli, walks
from lattice_returns.cli import main, parse_seq_csv, parse_seq_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------


def test_seq_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "A", "--d", "3", "--N", "4")
    assert code == 0
    assert out == (
        "# kind=A d=3 N=4 format=csv\n"
        "n,value\n"
        "0,1\n"
        "1,6\n"
        "2,90\n"
        "3,1860\n"
        "4,44730\n"
    )


def test_seq_json_big_ints_as_strings(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--kind", "B", "--d", "4", "--N", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "B" and obj["d"] == 4
    assert obj["values"][-1] == "486323201640"


def test_seq_round_trips_bit_exactly(capsys, tmp_path):
    table = lr.first_returns(3, 20)
    _, csv_text, _ = run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "20")
    assert parse_seq_csv(csv_text) == table
    _, json_text, _ = run_cli(
        capsys, "seq", "--kind", "B", "--d", "3", "--N", "20", "--format", "json")
    assert parse_seq_json(json_text) == table
    # --out writes the same bytes as stdout
    out_path = tmp_path / "b.csv"
    run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "20",
            "--out", str(out_path))
    assert out_path.read_text() == csv_text


def test_seq_reruns_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "seq", "--kind", "X", "--d", "5", "--N", "30")
    _, second, _ = run_cli(capsys, "seq", "--kind", "X", "--d", "5", "--N", "30")
    assert first == second


def test_seq_prints_integers_past_the_str_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run_cli(capsys, "seq", "--kind", "A", "--d", "5", "--N", "2200")
    assert code == 0
    n, value = out.splitlines()[-1].split(",")
    assert n == "2200" and len(value) > 4300
    # ... and the readers take them back, in both formats.
    table = lr.closed_walks_fast(5, 2200)
    assert parse_seq_csv(out) == table
    _, out, _ = run_cli(capsys, "seq", "--kind", "A", "--d", "5", "--N", "2200",
                        "--format", "json")
    assert parse_seq_json(out) == table
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _assert_seq_renders(capsys, table, N):
    """seq streams exactly what rendering the whole table gave: one
    "%d,%s" line per row, and json.dumps(obj, indent=2)."""
    kind, d = table.kind, table.dimension
    _, out, _ = run_cli(capsys, "seq", "--kind", kind, "--d", str(d), "--N", str(N))
    assert out == "# kind=%s d=%d N=%d format=csv\nn,value\n" % (kind, d, N) \
        + "".join("%d,%s\n" % nv for nv in table.iter_indexed())
    _, out, _ = run_cli(capsys, "seq", "--kind", kind, "--d", str(d),
                        "--N", str(N), "--format", "json")
    obj = dict(table.to_json_obj(), N=N)
    assert out == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("d", range(1, 10))
def test_seq_decimal_tables_print_the_int_tables(capsys, d):
    # X and A print from Decimals; the bytes are those of the int tables.
    order = catalog.a_recurrence(d).order
    for kind, build in (("X", lr.x_sequence_fast), ("A", lr.closed_walks_fast)):
        full = build(d, 300).values
        for N in sorted({0, 1, order - 1, order, 300}):
            _assert_seq_renders(capsys, walks.SequenceTable(d, kind, full[:N + 1]), N)


def test_seq_b_csv_reads_back_to_the_ladder_table(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "300")
    assert code == 0
    assert parse_seq_csv(out) == lr.first_returns(3, 300)


@pytest.mark.parametrize("d", range(1, 10))
def test_seq_b_tables_stream_the_whole_table_rendering(capsys, d):
    order = catalog.a_recurrence(d).order
    full = lr.first_returns_fast(d, 300).values
    for N in sorted({1, order - 1, order, 300} - {0}):
        _assert_seq_renders(capsys, walks.SequenceTable(d, "B", full[:N]), N)


def test_seq_usage_error(capsys):
    code, _, err = run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "B", "--d", "3", "--N", "0"],
    ["seq", "--kind", "A", "--d", "0", "--N", "5"],
    ["seq", "--kind", "X", "--d", "0", "--N", "5", "--format", "json"],
    ["verify", "lucas", "--kind", "B", "--d", "3", "--p", "101"],
    ["seq", "--kind", "A", "--d", "5", "--N", "1000000"],
    ["layers", "--d", "4", "--n", "100", "--h", "0"],
], ids=["usage", "bad-d-csv", "bad-d-json", "capacity", "seq-output", "layer-points"])
def test_refusals_create_no_out_file(capsys, tmp_path, argv):
    # The writer opens --out at its first chunk, which comes after every
    # usage and capacity check.
    path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert not path.exists()


def test_out_target_is_written_in_place(capsys, tmp_path):
    # An existing target keeps its inode: --out /dev/null must stay a device.
    path = tmp_path / "out.csv"
    path.write_text("old contents, longer than the table\n" * 10)
    inode = path.stat().st_ino
    code, _, _ = run_cli(capsys, "seq", "--kind", "A", "--d", "3", "--N", "4",
                         "--out", str(path))
    assert code == 0 and path.stat().st_ino == inode
    assert path.read_text().endswith("n,value\n0,1\n1,6\n2,90\n3,1860\n4,44730\n")


@pytest.mark.parametrize("target", ["missing/out.csv", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_the_command(capsys, tmp_path, monkeypatch,
                                                      target):
    # Without the check, seq --kind B would build its table before the
    # writer failed to open the target, and exit 3.
    from lattice_returns import cli

    monkeypatch.setattr(cli, "_build_table", lambda *a: pytest.fail("built a table"))
    path = tmp_path / target
    code, out, err = run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "400",
                             "--out", str(path))
    assert code == 2 and out == ""
    assert err == "error: --out %s is not a writable file\n" % path
    assert list(tmp_path.iterdir()) == []


def test_out_without_write_access_is_refused(capsys, tmp_path, monkeypatch):
    # A superuser passes every permission check, so the test denies it.
    path = tmp_path / "out.csv"
    monkeypatch.setattr(os, "access", lambda target, mode: False)
    code, out, err = run_cli(capsys, "seq", "--kind", "X", "--d", "3", "--N", "5",
                             "--out", str(path))
    monkeypatch.undo()
    assert code == 2 and out == ""
    assert err == "error: --out %s is not a writable file\n" % path
    assert not path.exists()


@pytest.mark.parametrize("target", ["-", os.devnull])
def test_stdout_and_devices_stay_valid_out_targets(capsys, target):
    code, out, err = run_cli(capsys, "seq", "--kind", "X", "--d", "3", "--N", "5",
                             "--out", target)
    assert code == 0 and err == ""
    assert out.endswith("5,4653\n") == (target == "-")


# A child's ru_maxrss counts the pages of the process it was forked from,
# so the CLI is spawned from this small interpreter, not from pytest.
_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "lattice_returns.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)
"""


def test_seq_streams_in_bounded_memory():
    # An N-term A-table holds about N^2 digits: 37 MB of text at N = 6000.
    # Streamed, the run stays near the interpreter's own footprint, where
    # holding the table and its text took over 100 MB.
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, "seq", "--kind", "A",
                          "--d", "5", "--N", "6000"],
                         capture_output=True, text=True, env=_src_env(), check=True)
    code, peak_mb = out.stdout.split()
    assert code == "0" and out.stderr == ""
    assert float(peak_mb) < 40, "peak RSS %s MB" % peak_mb


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "A", "--d", "5", "--N", "2400"],
    ["seq", "--kind", "X", "--d", "3", "--N", "2000", "--format", "json"],
    ["seq", "--kind", "B", "--d", "3", "--N", "400"],
])
def test_seq_into_a_closed_pipe_exits_quietly(argv):
    # `seq ... | head -1`: the reader leaves after one line, long before
    # the table ends, and the run ends with exit 0 and nothing on stderr.
    with subprocess.Popen([sys.executable, "-m", "lattice_returns.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_src_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 0
    assert first.startswith((b"#", b"{")) and err == b""


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def test_layers_golden(capsys):
    code, out, _ = run_cli(capsys, "layers", "--d", "3", "--n", "2", "--h", "0")
    assert code == 0
    assert out == (
        "# d=3 n=2 h=0 format=csv\n"
        "x1,x2,count\n"
        "-2,0,1\n"
        "-1,-1,2\n"
        "-1,1,2\n"
        "0,-2,1\n"
        "0,0,6\n"
        "0,2,1\n"
        "1,-1,2\n"
        "1,1,2\n"
        "2,0,1\n"
    )


def test_layers_rejects_low_dimension(capsys):
    code, _, err = run_cli(capsys, "layers", "--d", "2", "--n", "2", "--h", "0")
    assert code == 2 and "d >= 3" in err


def test_layers_rejects_out_of_range_height(capsys):
    code, _, err = run_cli(capsys, "layers", "--d", "3", "--n", "2", "--h", "5")
    assert code == 2


def test_layers_rejects_negative_steps(capsys):
    code, _, err = run_cli(capsys, "layers", "--d", "4", "--n", "-1", "--h", "0")
    assert code == 2 and err == "error: n must be >= 0\n"


def test_layers_counts_match_library(capsys):
    _, out, _ = run_cli(capsys, "layers", "--d", "4", "--n", "3", "--h", "1")
    lay = lr.layer(4, 3, 1)
    rows = [line for line in out.splitlines() if not line.startswith(("#", "x1"))]
    parsed = {}
    for row in rows:
        *coords, count = row.split(",")
        parsed[tuple(int(c) for c in coords)] = int(count)
    assert parsed == lay.counts.counts


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_table_fixtures(capsys):
    code, out, _ = run_cli(capsys, "verify", "table-fixtures")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert len(obj["reports"]) == 4


def test_verify_singularities(capsys):
    code, out, _ = run_cli(capsys, "verify", "singularities")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_singularities_reports_an_unexplained_factor(capsys, monkeypatch):
    # A prediction missing a root leaves that root's linear factor.
    predicted = catalog.expected_f_singularities
    monkeypatch.setattr(catalog, "expected_f_singularities",
                        lambda d: predicted(d) - {max(predicted(d))})
    code, out, _ = run_cli(capsys, "verify", "singularities", "--d", "5")
    assert code == 1
    x, a = json.loads(out)["reports"]
    assert x["status"] == "fail" and a["status"] == "pass"
    assert x["first_failure"] == {"expected": ["0", "1/25", "1/9"],
                                  "unexplained_degree": 1}


def test_verify_ode_scoped(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "ode", "--d", "5", "--kind", "X", "--order", "80")
    assert code == 0
    obj = json.loads(out)
    assert [r["parameters"]["d"] for r in obj["reports"]] == [5]


def test_verify_ode_rejects_first_returns(capsys):
    # B = 1 - 1/A is not holonomic: there is no B-ODE to check.
    code, out, err = run_cli(capsys, "verify", "ode", "--kind", "B")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_precurrence_checks_ladder_data(capsys, monkeypatch):
    # A wrong catalog recurrence must fail against the ladder's terms; if
    # the suite generated its data from the recurrence under test, the
    # check would pass (or the exact iteration would raise).
    from test_walks import _perturbed

    for name in ("x_recurrence", "a_recurrence"):
        lookup = getattr(catalog, name)
        monkeypatch.setattr(
            catalog, name,
            lambda d, lookup=lookup: _perturbed(lookup(d), 1) if d == 3 else lookup(d))
    code, out, _ = run_cli(capsys, "verify", "precurrence", "--n-max", "20")
    assert code == 1
    status = {(r["parameters"]["kind"], r["parameters"]["d"]): r["status"]
              for r in json.loads(out)["reports"]}
    assert status.pop(("X", 3)) == status.pop(("A", 3)) == "fail"
    assert set(status.values()) == {"pass"}


def test_verify_checks_the_odes_against_ladder_data(capsys, monkeypatch):
    # A wrong x-recurrence at d = 5, under its own name.  The F- and
    # A-ODEs are derived from it, so they must fail too; the ODE suites
    # must not read a fast path that iterates the recurrence under test,
    # and no cache keyed on d may hand back the true operators.
    from test_walks import _perturbed

    x_recurrence = catalog.x_recurrence

    def wrong(d):
        rec = x_recurrence(d)
        if d != 5:
            return rec
        return lr.PRecurrence(rec.order, _perturbed(rec, 1).coefficients, name=rec.name)

    monkeypatch.setattr(catalog, "x_recurrence", wrong)
    for suite, flags, failure in (
            ("ode", ["--kind", "X", "--order", "40"], {"coefficient": 2, "value": "-1"}),
            ("precurrence", ["--kind", "X", "--n-max", "20"], {"n": 0, "residual": "1"}),
            ("ode", ["--kind", "A", "--order", "40"], {"coefficient": 0, "value": "-120"})):
        code, out, _ = run_cli(capsys, "verify", suite, "--d", "5", *flags)
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "fail"
        assert report["first_failure"] == failure


_SCOPE_SIZES = {"precurrence": ["--n-max", "20"], "ode": ["--order", "20"],
                "hadamard": ["--order", "20"]}


@pytest.mark.parametrize("suite", ["table-fixtures", "precurrence", "ode",
                                   "lucas", "hadamard", "singularities"])
def test_verify_suite_honours_or_rejects_scope(capsys, suite):
    sizes = _SCOPE_SIZES.get(suite, [])
    scope = ["--d", "3"] + (["--kind", "X", "--p", "3"] if suite == "lucas" else [])
    code, out, _ = run_cli(capsys, "verify", suite, *scope, *sizes)
    assert code == 0
    assert {r["parameters"]["d"] for r in json.loads(out)["reports"]} == {3}

    rejected = [["--d", "0"]]
    if suite != "lucas":
        rejected += [["--p", "5"], ["--kind", "B"]]
    if suite in ("precurrence", "ode", "singularities"):
        code, out, _ = run_cli(capsys, "verify", suite, "--kind", "X", *sizes)
        assert code == 0
        assert {r["parameters"]["kind"] for r in json.loads(out)["reports"]} == {"X"}
    elif suite != "lucas":
        rejected.append(["--kind", "A"])
    if suite == "table-fixtures":
        rejected.append(["--d", "9"])  # no fixture for d = 9
    # The horizon flags: --order for ode and hadamard, --n-max for
    # precurrence, refused by name everywhere else.
    named = [flag for flag in ("--order", "--n-max") if flag not in sizes]
    rejected += [[flag, "5"] for flag in named]
    for flags in rejected:
        code, out, err = run_cli(capsys, "verify", suite, *flags, *sizes)
        assert code == 2, flags
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if flags[0] in named:
            assert err == "error: verify %s does not take %s\n" % (suite, flags[0])


def test_verify_all_takes_no_scope(capsys):
    for flags in (["--d", "3"], ["--order", "50"], ["--n-max", "50"]):
        code, out, err = run_cli(capsys, "verify", "all", *flags)
        assert code == 2
        assert out == "" and err == "error: verify all does not take %s\n" % flags[0]


def test_verify_lucas_expected_failure_inverts_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lucas", "--kind", "B", "--d", "3", "--p", "5")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    code, out, _ = run_cli(
        capsys, "verify", "lucas", "--kind", "B", "--d", "3", "--p", "5",
        "--expect-fail")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["reports"][0]["status"] == "fail"  # raw reports stay honest
    # u_5 = B_10 is not u_1 u_0 mod 5, with the convention u_0 = 1
    assert obj["reports"][0]["first_failure"]["index"] == 5


@pytest.mark.parametrize("suite, flag, value", [
    ("precurrence", "--n-max", "-1"),
    ("ode", "--order", "0"),
    ("hadamard", "--order", "0"),
])
def test_verify_rejects_empty_horizon(capsys, suite, flag, value):
    # an empty horizon would check nothing and report a pass
    code, out, err = run_cli(capsys, "verify", suite, flag, value)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and flag in err


def test_verify_refuses_a_non_prime_p_before_any_table(capsys, monkeypatch):
    # lucas at p would stream p^2 + p exact terms (over a million for
    # p = 1000) before noticing that p is not prime: seq's budget on the
    # A-table to p^2 + p refuses p = 1000 first, and a small non-prime is
    # named.
    def no_stream(kind, d, N):
        raise AssertionError("started a stream for d=%d, N=%d" % (d, N))

    monkeypatch.setattr(walks, "recurrence_values", no_stream)
    code, out, err = run_cli(capsys, "verify", "lucas", "--p", "1000", "--d", "3",
                             "--kind", "A")
    assert code == 2
    assert out == "" and err == ("error: the A-table to N = 1001000 needs about "
                                 "7.8e+11 characters, over the budget 1e+09\n")
    code, out, err = run_cli(capsys, "verify", "lucas", "--p", "91", "--d", "3",
                             "--kind", "A")
    assert code == 2
    assert out == "" and err == "error: 91 is not prime\n"


@pytest.mark.parametrize("d, p, admitted", [(5, 173, True), (5, 179, False),
                                            (5, 191, False), (1, 239, True),
                                            (1, 241, False), (1, 251, False)])
def test_verify_lucas_budgets_the_largest_table(capsys, monkeypatch, d, p, admitted):
    # The stream to p^2 + p does the work of seq's A-table to it (--kind A
    # --d 5 --p 173 takes 3.7 s): seq's estimate and budget refuse it
    # before the stream starts, and before the trial division of --p.
    def no_stream(kind, d, N):
        raise ValueError("started the stream to N = %d" % N)

    monkeypatch.setattr(walks, "recurrence_values", no_stream)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "lucas", "--kind", "A", "--d", str(d),
                             "--p", str(p))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    if admitted:
        assert err == "error: started the stream to N = %d\n" % (p * p + p)
    else:
        assert err.startswith("error: the A-table to N = %d needs about " % (p * p + p))
        assert err.endswith(" characters, over the budget 1e+09\n")


@pytest.mark.parametrize("p", ["1000000000000000003", str(10**200)])
def test_verify_lucas_refuses_a_large_p_at_once(capsys, p):
    # The trial division of the prime 10^18 + 3 still ran after 20 s, and
    # 10^200 is past the float range.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "lucas", "--p", p)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: the A-table to N = %d needs about " % (int(p) ** 2 + int(p)))
    assert err.endswith(" characters, over the budget 1e+09\n")


def test_verify_lucas_refuses_a_b_table_past_the_budget(capsys, monkeypatch):
    # p = 101 needs 10,302 exact B terms, at d = 1 (the suite's first) about
    # 6.4e7 packed digits: the estimate is refused before any A-value is
    # packed.
    def no_pack(digits, s):
        raise AssertionError("packed %d values" % len(digits))

    monkeypatch.setattr(lr.walks, "_pack", no_pack)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "lucas", "--kind", "B", "--p", "101")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err == ("error: the first-return table to N = 10302 needs about 6.39e+07 "
                   "packed digits, over the budget 5e+07\n")


@pytest.mark.parametrize("kind, size", [("A", "1e+12"), ("X", "6.99e+11")])
def test_seq_refuses_a_table_past_the_output_budget(capsys, kind, size):
    # --kind A --d 5 --N 10^6 would print about a terabyte for hours.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "seq", "--kind", kind, "--d", "5", "--N", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: the %s-table to N = 1000000 needs about %s characters, "
                   "over the budget 1e+09\n" % (kind, size))


def test_seq_refuses_a_derivation_past_the_budget(capsys):
    # A two-term table at d = 160 still ran after 20 s: the derivation is
    # refused before it starts.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "seq", "--kind", "X", "--d", "128", "--N", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: the recurrence derivation at d = 128 needs about 5.63e+14 "
                   "work units (d^7), over the budget 1e+14\n")


def test_benchmark_layers_match_their_references(capsys):
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text())["commands"]
    for h in ("0", "1", "-1"):
        argv = ["layers", "--d", "4", "--n", "30", "--h", h]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == refs[" ".join(argv)]["sha256"]


def test_verify_lucas_streams_x_and_a_without_a_table(capsys, monkeypatch):
    # X and A read one recurrence stream per prime and build no table; B,
    # which has no recurrence, builds one table to the largest p^2 + p.
    calls, streams = [], []
    build, stream = cli._build_table, walks.recurrence_values
    monkeypatch.setattr(cli, "_build_table",
                        lambda k, d, N: calls.append((k, d, N)) or build(k, d, N))
    monkeypatch.setattr(walks, "recurrence_values",
                        lambda k, d, N: streams.append((k, d, N)) or stream(k, d, N))
    code, out, _ = run_cli(capsys, "verify", "lucas", "--d", "3")
    assert code == 0
    assert calls == []
    assert streams == [(k, 3, p * p + p) for k in "XA" for p in (3, 5, 7, 11, 13)]
    assert [(r["parameters"]["kind"], r["parameters"]["p"], r["parameters"]["n_max"])
            for r in json.loads(out)["reports"]] == [
        (k, p, p * p + p) for k in "XA" for p in (3, 5, 7, 11, 13)]
    code, out, _ = run_cli(capsys, "verify", "lucas", "--d", "3", "--kind", "B",
                           "--expect-fail")
    assert code == 0
    assert calls == [("B", 3, 182)]
    # each prime reads the table's prefix: p = 3 passes, the rest fail at p
    assert [r.get("first_failure", {}).get("index")
            for r in json.loads(out)["reports"]] == [None, 5, 7, 11, 13]


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "X", "--d", "3", "--N", "1" + "0" * 400],
    ["seq", "--kind", "A", "--d", "3", "--N", "1" + "0" * 400],
    ["seq", "--kind", "B", "--d", "3", "--N", "1" + "0" * 400],
    ["verify", "hadamard", "--order", "1" + "0" * 200],
], ids=["seq-X", "seq-A", "seq-B", "hadamard"])
def test_inputs_past_the_float_range_are_refused(capsys, argv):
    # Every estimate is an int, so a size past 1.8e308 is refused like
    # any other, never overflowing a float (verify lucas --p 10^200 is
    # test_verify_lucas_refuses_a_large_p_at_once).
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    assert re.fullmatch(r"error: .* needs about \S+ \S+( \S+)?, over the budget \S+\n", err)


def test_verify_lucas_streams_in_bounded_memory():
    # The table to 151^2 + 151 = 22,952 terms at d = 5 took 240 MB; the
    # stream holds p + 2 residues and the recurrence's last terms.
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, "verify", "lucas", "--kind",
                          "A", "--d", "5", "--p", "151"],
                         capture_output=True, text=True, env=_src_env(), check=True)
    code, peak_mb = out.stdout.split()
    assert code == "0" and out.stderr == ""
    assert float(peak_mb) < 30, "peak RSS %s MB" % peak_mb


def test_asym_refuses_a_summand_stream_past_the_budget(capsys):
    # 10^9 recurrence steps would run for about 12 minutes before printing.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "asym", "--kind", "A", "--d", "3",
                             "--n", "100", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: the summand stream to N = 1000000000 needs about 1e+09 "
                   "terms, over the budget 1e+07\n")


def test_verify_all_builds_one_ladder_per_run(capsys, monkeypatch):
    # The precurrence and ODE suites of every dimension read one binomial
    # ladder, sized before the first build to the largest d and horizon
    # (n_max 300 plus the d = 5 order 3), and one A view per dimension;
    # the runner must read walks.x_ladder through the module.  The table
    # fixtures' 9-term tables and hadamard's d = 1 series stay below that
    # horizon.
    calls, views = [], []
    x_ladder, closed_walks_from_x = walks.x_ladder, walks.closed_walks_from_x

    def recording(d, N):
        calls.append((d, N))
        return x_ladder(d, N)

    def view(x):
        views.append((x.dimension, x.n_max))
        return closed_walks_from_x(x)

    monkeypatch.setattr(lr.walks, "x_ladder", recording)
    monkeypatch.setattr(lr.walks, "closed_walks_from_x", view)
    code, _, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert [(d, N) for d, N in calls if d > 1 and N > 8] == [(5, 303)]
    assert [v for v in views if v[1] == 303] == [(d, 303) for d in range(1, 6)]


def test_verify_hadamard(capsys):
    code, out, _ = run_cli(capsys, "verify", "hadamard", "--order", "60")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reports"]) == 10  # 5 dims x 2 identities


def _cpus(monkeypatch, n):
    """Let the verify runner see n CPUs, and record the workers it forks."""
    forks = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", recording)
    return forks


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [["verify", "all"],
                                  ["verify", "hadamard", "--order", "60"]])
def test_verify_output_does_not_depend_on_the_cpus(capsys, monkeypatch, argv):
    # More workers than the host has CPUs, then one CPU, inline.
    forks = _cpus(monkeypatch, 4)
    shared = run_cli(capsys, *argv)
    assert len(forks) == 3
    _no_worker_left()
    forks = _cpus(monkeypatch, 1)
    assert run_cli(capsys, *argv) == shared and forks == []
    assert shared[0] == 0 and shared[2] == ""


def test_verify_forks_no_worker_beside_another_thread(capsys, monkeypatch):
    import threading

    forks = _cpus(monkeypatch, 4)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        code, _, _ = run_cli(capsys, "verify", "hadamard", "--order", "20")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert code == 0 and forks == [] and not thread.is_alive()


def _failing_in_workers(monkeypatch, fail):
    """Make every hadamard table that a worker builds call fail(d), while
    this process sleeps before its first one, so that the workers take the
    rest of the queue."""
    from lattice_returns import cli

    parent, build, first = os.getpid(), cli._build_table, [True]

    def failing_build(kind, d, N):
        if os.getpid() != parent:
            fail(d)
        if first:
            first.pop()
            time.sleep(0.5)
        return build(kind, d, N)

    monkeypatch.setattr(cli, "_build_table", failing_build)


def test_verify_worker_exception_exits_3_from_the_first_item(capsys, monkeypatch):
    def boom(d):
        raise RuntimeError("boom at d=%d" % d)

    _cpus(monkeypatch, 2)
    _failing_in_workers(monkeypatch, boom)
    code, out, err = run_cli(capsys, "verify", "hadamard", "--order", "20")
    assert code == 3 and out == ""
    # The worker's traceback is printed as the cause, then one closing line
    # for d = 1, the first item in plan order that raised.
    assert "in failing_build" in err and err.count("internal error:") == 1
    assert err.endswith("\ninternal error: RuntimeError: boom at d=1\n")
    _no_worker_left()


def test_verify_worker_capacity_error_exits_2(capsys, monkeypatch):
    from lattice_returns.errors import CapacityError

    def refuse(d):
        raise CapacityError("table at d=%d over budget" % d)

    _cpus(monkeypatch, 2)
    _failing_in_workers(monkeypatch, refuse)
    code, out, err = run_cli(capsys, "verify", "hadamard", "--order", "20")
    assert code == 2 and out == ""
    assert err == "error: table at d=1 over budget\n"
    _no_worker_left()


def test_verify_stops_the_workers_when_one_dies(capsys, monkeypatch):
    # The first worker exits without its reports while the second hangs:
    # the run ends with exit 3 at once, and kills and reaps the second.
    def die_or_hang(d):
        if not forks:  # the first worker forked
            os._exit(7)
        time.sleep(20)

    forks = _cpus(monkeypatch, 3)
    _failing_in_workers(monkeypatch, die_or_hang)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "hadamard", "--order", "20")
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert err.endswith("\ninternal error: RuntimeError: verify worker %d ended "
                        "without its reports (wait status 1792)\n" % forks[0])
    _no_worker_left()


def test_verify_hadamard_refuses_a_product_past_the_budget(capsys, monkeypatch):
    from lattice_returns import cli

    # The CI sizes stay inside the budget.
    for d, order in ((1, 2200), (8, 1000), (5, 1200)):
        assert cli._product_work(d, order) < cli.PRODUCT_WORK_BUDGET
    monkeypatch.setattr(cli, "_build_table", lambda *a: pytest.fail("built a table"))
    monkeypatch.setattr(walks, "x_ladder", lambda *a: pytest.fail("built a ladder"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "hadamard", "--order", "5000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: the (1 - B) A check at d = 5, order 5000 needs about "
                   "1.07e+13 bit operations, over the budget 1e+12\n")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_divergent_low_dimension(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "2", "--N", "300")
    assert code == 0
    obj = json.loads(out)
    assert obj["divergent"] is True
    assert obj["recurrent"] is True and obj["p_d"] == 1.0
    assert obj["m_d"] == "divergent"


def test_constants_rejects_negative_N(capsys):
    code, out, err = run_cli(capsys, "constants", "--d", "2", "--N", "-2")
    assert code == 2
    assert out == "" and err == "error: N must be >= 0\n"


def test_constants_refuse_an_N_too_small_for_the_tail(capsys):
    code, out, err = run_cli(capsys, "constants", "--d", "3", "--N", "5")
    assert code == 2 and out == ""
    assert err == "error: N too small to anchor the tail estimate\n"
    with pytest.raises(ValueError, match="N too small to anchor the tail estimate"):
        lr.estimate_m(3, 5)


def test_constants_refuse_a_float_b_route_past_the_budget(capsys):
    # 10^9 terms: 10^9 recurrence steps, refused before the first step by
    # the summand budget.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "constants", "--d", "3", "--N", str(10**9))
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == ("error: the summand stream to N = 1000000000 needs about 1e+09 "
                   "terms, over the budget 1e+07\n")


def test_constants_bundle_memory_does_not_hold_the_summands():
    # One streaming pass: the 100,001 summands (about 6 MB as a list of
    # ints) are never held, only the first 2,001.  Relative to a small N,
    # so that the mpmath version cancels.
    peaks = []
    for N in ("2000", "100000"):
        out = subprocess.run([sys.executable, "-c", _RSS_PROBE, "constants", "--d", "5",
                              "--N", N],
                             capture_output=True, text=True, env=_src_env(), check=True)
        code, peak_mb = out.stdout.split()
        assert code == "0" and out.stderr == ""
        peaks.append(float(peak_mb))
    assert peaks[1] - peaks[0] < 10, "peak RSS %s MB" % peaks


def test_constants_d3_bundle(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "3", "--N", "4000")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["m_d"]["value"] - 1.5163860591519780) < 1e-12
    assert abs(obj["p_d"] - 0.3405373295509991) < 1e-11
    assert "b_1_empirical_fit" in obj
    assert obj["m_tilde_d"] is None


@pytest.mark.parametrize("d, kept", [(6, True), (8, True)])
def test_constants_empirical_b1_fit_only_up_to_d7(capsys, d, kept):
    # The fit reads the fixed-point B-series, so d = 8 keeps it too (-1.7802
    # against b_1 = -1.7801; the FFT series read -2.26 and was left out).
    code, out, _ = run_cli(capsys, "constants", "--d", str(d), "--N", "2000")
    assert code == 0
    obj = json.loads(out)
    assert ("b_1_empirical_fit" in obj) is kept
    if kept:
        assert abs(obj["b_1_empirical_fit"] - obj["b_1"]) < 0.02


def test_constants_d5_includes_m_tilde(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "5", "--N", "4000")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_tilde_d"]["value"] > 0
    assert obj["b_1"] is not None


def test_constants_d9_ladder_bundle(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "9", "--N", "120")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_d"]["value"] == lr.estimate_m(9, 120).value
    assert obj["m_tilde_d"] is not None


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------


def test_asym_table_errors_shrink(capsys):
    code, out, _ = run_cli(
        capsys, "asym", "--kind", "A", "--d", "3", "--m", "4",
        "--n", "64", "128", "256")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,exact_normalized,asym_normalized,rel_error"
    rels = [float(line.split(",")[3]) for line in lines[2:]]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 1e-12


@pytest.mark.parametrize("d", range(1, 9))
def test_asym_a_exact_column_is_the_exact_table_formula(capsys, d):
    # The reference is the exact-table formula that the column once used.
    from mpmath import mp, mpf

    ns = (2, 3, 7, 8, 300)
    code, out, _ = run_cli(capsys, "asym", "--kind", "A", "--d", str(d),
                           "--n", *map(str, ns))
    assert code == 0
    table = walks.closed_walks_fast(d, max(ns))
    with mp.workdps(40):
        ref = [repr(float(mpf(table.value(n)) * (mp.pi * n) ** (mpf(d) / 2)
                          / mpf(2 * d) ** (2 * n))) for n in ns]
    assert [row.split(",")[1] for row in out.splitlines()[2:]] == ref


def test_asym_a_reads_the_summands_in_bounded_memory():
    # The exact A-table to n = 20000 alone holds about 10^8 digits (152 MB
    # peak), and the 200,001 fixed-point summands about 7 MB as a list
    # (34 MB peak); the stream keeps the two requested.
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, "asym", "--kind", "A",
                          "--d", "3", "--n", "100", "200000"],
                         capture_output=True, text=True, env=_src_env(), check=True)
    code, peak_mb = out.stdout.split()
    assert code == "0" and out.stderr == ""
    assert float(peak_mb) < 25, "peak RSS %s MB" % peak_mb


def test_asym_b_kind_uses_bundle(capsys):
    code, out, _ = run_cli(
        capsys, "asym", "--kind", "B", "--d", "3", "--n", "500", "1000")
    assert code == 0
    rows = out.splitlines()[2:]
    for row in rows:
        n, exact, approx, rel = row.split(",")
        assert abs(float(exact) - float(approx)) / float(exact) < 0.01


def test_asym_b_d2_accepts_small_n(capsys):
    code, out, _ = run_cli(
        capsys, "asym", "--kind", "B", "--d", "2", "--n", "2", "3", "10", "500")
    assert code == 0
    rows = out.splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == [2, 3, 10, 500]
    for row in rows:
        approx = float(row.split(",")[2])
        assert math.isfinite(approx) and approx > 0


def test_asym_b_d1_exact_column_and_sample_floor(capsys):
    ns = (10, 100, 1000)
    code, out, _ = run_cli(capsys, "asym", "--kind", "B", "--d", "1",
                           "--n", *map(str, ns))
    assert code == 0
    rows = out.splitlines()[2:]
    for n, row in zip(ns, rows):
        exact = float(row.split(",")[1])
        ref = lr.first_return_closed_form_1d(n) / 4**n * 2 * n * math.sqrt(math.pi * n)
        assert abs(exact - ref) <= 1e-12 * ref
    code, out, err = run_cli(capsys, "asym", "--kind", "A", "--d", "3", "--n", "1")
    assert code == 2 and out == ""
    assert err == "error: need sample points n >= 2\n"


def test_asym_b_kind_rejects_order(capsys):
    code, out, err = run_cli(
        capsys, "asym", "--kind", "B", "--d", "3", "--m", "8", "--n", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "asym", "--kind", "B", "--d", "3", "--n", "100")
    assert code == 0
    assert out.splitlines()[0] == "# kind=B d=3 m=4 n=100"


def test_asym_rejects_unsupported_order(capsys):
    code, _, err = run_cli(
        capsys, "asym", "--kind", "A", "--d", "3", "--m", "13", "--n", "64")
    assert code == 2


def test_internal_error_exits_3_with_one_closing_line(capsys, monkeypatch):
    from lattice_returns import cli

    def inexact(args):
        raise ArithmeticError("inexact recurrence step at n=7")

    monkeypatch.setattr(cli, "cmd_seq", inexact)
    code, out, err = run_cli(capsys, "seq", "--kind", "A", "--d", "3", "--N", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("\ninternal error: ArithmeticError: "
                        "inexact recurrence step at n=7\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "lattice_returns.cli", "seq", "--kind", "A",
         "--d", "1", "--N", "3"],
        capture_output=True, text=True, check=True)
    assert out.stdout.endswith("3,20\n")


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


_IMPORT_PROBE = """
import contextlib, io, sys
from lattice_returns.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted({"numpy", "mpmath"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["seq", "--kind", "A", "--d", "5", "--N", "10"], ""),
    (["seq", "--kind", "X", "--d", "8", "--N", "10"], ""),
    (["layers", "--d", "4", "--n", "3", "--h", "0"], ""),
    (["--help"], ""),
    (["constants", "--d", "3", "--N", "100"], ""),
    (["asym", "--kind", "A", "--d", "4", "--n", "64"], ""),
    (["asym", "--kind", "B", "--d", "3", "--n", "64"], " numpy"),
    (["asym", "--kind", "B", "--d", "2", "--n", "500", "1000"], ""),
    (["constants", "--d", "2", "--N", "100"], ""),
    (["seq", "--kind", "B", "--d", "3", "--N", "50"], ""),
    (["verify", "all"], ""),
    (["verify", "hadamard", "--order", "20"], ""),
    (["verify", "lucas", "--kind", "B", "--d", "3", "--p", "5", "--expect-fail"], ""),
], ids=["seq-A", "seq-X", "layers", "help", "constants-control", "asym-A", "asym-B",
        "asym-B-d2", "constants-d2", "seq-B", "verify-all", "verify-hadamard",
        "verify-lucas-B"])
def test_import_floor_exact_commands_load_neither_numpy_nor_mpmath(argv, loaded):
    # A fresh interpreter: no command loads mpmath, whose tails are summed
    # in decimal, and only asym --kind B at d >= 3 loads numpy, for its
    # pinned float column; that control case shows the probe can fail.
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                         capture_output=True, text=True, env=_src_env(), check=True)
    assert out.stdout == "0" + loaded + "\n"


_NO_NUMPY_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from lattice_returns.cli import main
codes = []
for argv in [["constants", "--d", str(d)] for d in range(1, 13)] + [
        ["asym", "--kind", "B", "--d", str(d), "--n", "10", "100", "1000"] for d in (1, 2)]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(*codes)
"""


def test_constants_and_the_recurrent_b_tables_run_without_numpy():
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE], capture_output=True,
                         text=True, env=_src_env(), check=True)
    assert out.stdout == " ".join(["0"] * 14) + "\n" and out.stderr == ""


# sha256 of stdout, from the commit whose constants summed their tails with
# mpmath: the decimal tails print the same bytes.
_A_POINTS = "--n 2 3 7 8 300 1024"
PINNED_STDOUT = {
    "constants --d 3": "b03ce575bcea6ab5d9f1f4b0b63b4d262afe08433a0bfad00cd2e0d91c7f793a",
    "constants --d 4": "55bc48baa7dc84d3fe1b6819925c94914014a2b789f6a2018ce40b6cc06ab0c7",
    "constants --d 5": "e994bb340293e72202973aafbc1946155edd37f81d0aeb37f591b65d6352cbe7",
    "constants --d 6": "3aacdc6d55fda0bcaf8b85a9089b84e822f8ea9f50280acd1d490caa75ec4e59",
    "constants --d 7": "add5143b5697f376e0b900191821643bbc42dc633653481db39edc6f589d688b",
    "constants --d 8": "231c0aecc9bc55c38ac934fd19ee2cb4d95049a1b07aefa85840e86ae6048528",
    "constants --d 9": "84c27b870682ad7969b287d280aba0aed91d1b7a8e211feefe53033061375c51",
    "constants --d 10": "2aa52cac1d9eee3c198b0d430996e05b1c09bd8a643ce54259abe3c6163aab21",
    "constants --d 11": "8fa81c0a1cb7d538ac880eb64da3ab4ecc8e541c7ad3f365a655da43ab67fcfe",
    "constants --d 12": "98f7e8b5901547281f12d052a198011238f23b834d1c8b7ca885341491321fdf",
    "constants --d 3 --N 8": "35f139a17ad39c744598fe727b9ee2209a240584e5a8d96b47a2846d98e0be2c",
    "constants --d 5 --N 9": "081140107b3f1f56c999158e4449d14e695fee9a07801f3776ec107e2e6e414f",
    "asym --kind A --d 1 " + _A_POINTS:
        "21616071ea617861d5aabb35d81571c4810553738edd09c50cad44555b16a68a",
    "asym --kind A --d 2 " + _A_POINTS:
        "13db30540b51809a95c6de5a8b0a593e4e634eb4d4a9fde95a2a121966204e86",
    "asym --kind A --d 3 " + _A_POINTS:
        "782168af8546eb92f47fb71fac32931ad4e45435524248e40cf589d362bc2ffb",
    "asym --kind A --d 4 " + _A_POINTS:
        "1ad3e2e67e384ce53ac84f0d0773f9dfccb9d8d3d9b59a5eca8cb8a3aa6fce1b",
    "asym --kind A --d 5 " + _A_POINTS:
        "d2fa92b4b4cc841dc3661a43abf33191586f42adc7c56b449420f39a45bb45f8",
    "asym --kind A --d 6 " + _A_POINTS:
        "b7c38e69a6b2fdbebf3dcbd462dd5577787e957a2ccc3b645d953914c5b6e2be",
    "asym --kind A --d 7 " + _A_POINTS:
        "2be6d91634fbf32769e868915f99eee222f207bfb8dda0b9bd7bfb292c852f40",
    "asym --kind A --d 8 " + _A_POINTS:
        "2c949caff39543ae55ff91d2a14ed962e3b926a5425c566946cf61a1e7caf5b7",
}


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_constants_and_asym_print_the_pinned_bytes(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


_NO_MPMATH_PROBE = """
import contextlib, hashlib, io, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from lattice_returns.cli import main
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(command.split())
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_constants_and_asym_run_without_mpmath():
    commands = (["constants --d %d" % d for d in range(1, 13)]
                + ["asym --kind A --d %d %s" % (d, _A_POINTS) for d in range(1, 9)]
                + ["asym --kind B --d %d --n 10 100 1000" % d for d in range(1, 9)])
    out = subprocess.run([sys.executable, "-c", _NO_MPMATH_PROBE, *commands],
                         capture_output=True, text=True, env=_src_env(), check=True)
    results = dict(zip(commands, out.stdout.splitlines()))
    assert len(results) == len(commands) and out.stderr == ""
    for command, line in results.items():
        code, digest = line.split()
        assert code == "0", command
        assert digest == PINNED_STDOUT.get(command, digest), command


def test_the_direct_route_is_made_only_when_read(capsys, monkeypatch):
    # asym --kind B reads b_d and b_1 of its bundle, never its B-series;
    # constants makes the series once, for p_d_direct and the b_1 fit.
    from lattice_returns import constants

    calls = []
    made = constants._fixed_first_returns
    monkeypatch.setattr(constants, "_fixed_first_returns",
                        lambda *args: calls.append(args[:2]) or made(*args))
    assert run_cli(capsys, "asym", "--kind", "B", "--d", "3", "--n", "64")[0] == 0
    assert calls == []
    code, out, _ = run_cli(capsys, "constants", "--d", "3", "--N", "4000")
    assert code == 0 and calls == [(3, 2000)]
    assert set(json.loads(out)) >= {"p_d_direct", "b_1_empirical_fit"}


_THREADS_PROBE = """
import contextlib, io, os, sys
from lattice_returns.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["asym", "--kind", "B", "--d", "3", "--n", "64"])
print(code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_numpy_starts_no_blas_threads_unless_asked(preset):
    # asym --kind B loads numpy; OpenBLAS stays single-threaded unless the
    # environment asks for more.
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                         text=True, env=env, check=True)
    code, numpy_loaded, tasks, threads = out.stdout.split()
    assert (code, numpy_loaded) == ("0", "True")
    if preset is None:
        assert (tasks, threads) == ("1", "1")
    else:
        assert threads == preset


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "B", "--d", "3", "--N", "50"],
    ["constants", "--d", "6", "--N", "120"],
    ["seq", "--kind", "A", "--d", "5", "--N", "300"],
])
def test_traced_launcher_matches_untraced_run(argv, tmp_path):
    # perfbench/traced.py patches the package's functions by name; a rename
    # in src/ must fail here rather than in the next benchmark run.
    env = _src_env()
    plain = subprocess.run([sys.executable, "-m", "lattice_returns.cli", *argv],
                           capture_output=True, text=True, env=env)
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         str(tmp_path / "spans.json"), "--", *argv],
        capture_output=True, text=True, env=env)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


# ---------------------------------------------------------------------------
# the argument space
# ---------------------------------------------------------------------------


@st.composite
def _small_argv(draw) -> list[str]:
    """Small d, N, n, h, order, n-max and p for one of the five commands."""
    command = draw(st.sampled_from(["seq", "layers", "verify", "constants", "asym"]))
    argv = [command]
    if command == "verify":
        suite = draw(st.sampled_from([*cli._SUITES, "all"]))
        argv.append(suite)
        # mostly the suite's own flags, now and then one it refuses
        flags = cli._SUITES.get(suite, ((),))[0]
        for flag, values in (("--d", st.integers(-1, 8)), ("--kind", st.sampled_from("XAB")),
                             ("--p", st.integers(-3, 40)), ("--order", st.integers(-1, 40)),
                             ("--n-max", st.integers(-2, 40))):
            if draw(st.integers(0, 9)) < (5 if flag in flags else 1):
                argv += [flag, str(draw(values))]
        return argv
    argv += ["--d", str(draw(st.integers(-1, 8)))]
    if command == "seq":
        argv += ["--kind", draw(st.sampled_from("XAB")), "--N", str(draw(st.integers(-1, 80)))]
    elif command == "layers":
        argv += ["--n", str(draw(st.integers(-1, 40))), "--h", str(draw(st.integers(-10, 10)))]
    elif command == "constants":
        argv += ["--N", str(draw(st.integers(-1, 400)))]
    else:
        argv += ["--kind", draw(st.sampled_from("AB")), "--n"]
        argv += [str(n) for n in draw(st.lists(st.integers(-1, 400), min_size=1, max_size=3))]
        if draw(st.booleans()):
            argv += ["--m", str(draw(st.integers(-1, 13)))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=_small_argv())
def test_small_arguments_exit_0_1_or_2_with_one_error_line(capsys, monkeypatch, argv):
    # Every budget is lowered so that some draws cross it: a refusal, like
    # a usage error, writes nothing to stdout and one error line.
    from lattice_returns import constants

    for module, name, budget in ((cli, "TABLE_CHARACTER_BUDGET", 2000),
                                 (cli, "PRODUCT_WORK_BUDGET", 10**6),
                                 (constants, "SUMMAND_BUDGET", 200),
                                 (constants, "FLOAT_ROUTE_BUDGET", 30000),
                                 (walks, "LAYER_POINT_BUDGET", 2000),
                                 (walks, "B_DIGIT_BUDGET", 3000),
                                 (catalog, "DERIVATION_BUDGET", 6**7)):
        monkeypatch.setattr(module, name, budget)
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), err
    assert "internal error:" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
