"""Command-line surface: golden outputs, exit codes, determinism,
round-trips.  Most tests drive main() in-process; one subprocess test
covers the installed console script.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import lattice_returns as lr
from lattice_returns import catalog
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
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_seq_usage_error(capsys):
    code, _, err = run_cli(capsys, "seq", "--kind", "B", "--d", "3", "--N", "0")
    assert code == 2 and "error" in err


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
    # F_5 with the misquoted +1 as the constant term of its F' coefficient.
    # The recurrence suite checks the recurrence derived from it, and the
    # ODE suite must not read a fast path that iterates that recurrence.
    f_ode = catalog.f_ode

    def misquoted(d):
        ode = f_ode(d)
        if d != 5:
            return ode
        coeffs = list(ode.coefficients)
        coeffs[1] = coeffs[1] + lr.UniPoly([2])
        return lr.LinearODE(ode.order, tuple(coeffs), name=ode.name)

    monkeypatch.setattr(catalog, "f_ode", misquoted)
    for suite, size, failure in (
            ("ode", ["--order", "40"], {"coefficient": 0, "value": "10"}),
            ("precurrence", ["--n-max", "20"], {"n": 0, "residual": "-3270"})):
        code, out, _ = run_cli(capsys, "verify", suite, "--d", "5", "--kind", "X", *size)
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
    if suite not in ("lucas", "hadamard"):
        rejected.append(["--d", "9"])  # no catalog data or fixture for d = 9
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


def test_verify_hadamard(capsys):
    code, out, _ = run_cli(capsys, "verify", "hadamard", "--order", "60")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reports"]) == 10  # 5 dims x 2 identities


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


def test_constants_d3_bundle(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "3", "--N", "4000")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["m_d"]["value"] - 1.5163860591519780) < 1e-12
    assert abs(obj["p_d"] - 0.3405373295509991) < 1e-11
    assert "b_1_empirical_fit" in obj
    assert obj["m_tilde_d"] is None


def test_constants_d5_includes_m_tilde(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "5", "--N", "4000")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_tilde_d"]["value"] > 0
    assert obj["b_1"] is not None


def test_constants_past_the_catalog_fails_fast(capsys):
    code, out, err = run_cli(capsys, "constants", "--d", "9")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "400120008" in err and "10000000" in err


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


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "lattice_returns.cli", "seq", "--kind", "A",
         "--d", "1", "--N", "3"],
        capture_output=True, text=True, check=True)
    assert out.stdout.endswith("3,20\n")


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "B", "--d", "3", "--N", "50"],
    ["constants", "--d", "6", "--N", "120"],
])
def test_traced_launcher_matches_untraced_run(argv, tmp_path):
    # perfbench/traced.py patches the package's functions by name; a rename
    # in src/ must fail here rather than in the next benchmark run.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    plain = subprocess.run([sys.executable, "-m", "lattice_returns.cli", *argv],
                           capture_output=True, text=True, env=env)
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"),
         str(tmp_path / "spans.json"), "--", *argv],
        capture_output=True, text=True, env=env)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]
