"""Generate ``refs.json``, the stored references the benchmark checks
against.  Slow (a few minutes); nothing here runs during timed runs.

    PYTHONPATH=src python3 perfbench/make_refs.py

Every command variant of every workload is run twice: in a fresh
interpreter, exactly as the benchmark runs it, and in this process with
``sys.set_int_max_str_digits(0)``.  A command that fails in the fresh
interpreter is recorded as a known defect, with its exit code and error
line.  Each pinned reference is cross-checked by an independent route
before it is stored:

* A and X tables: an x-ladder of our own, modulo three primes, against
  the CLI's values (which come from the P-recurrence for d <= 5);
* B tables: ``(1 - B) * A = 1`` modulo the same primes;
* the first 8 terms: ``catalog.TABLE_A`` / ``catalog.TABLE_B``;
* ``verify`` and ``layers``: byte-identical in both runs; every report
  passes; the layer's total mass, symmetry and (for h = 0) origin count;
* ``asym``: the ``exact_normalized`` column against a direct float
  convolution (B) or mpmath normalisation of exact A values;
* ``constants``: m_3 from Watson's Gamma-product closed form, m_3..m_7
  and m~_5..m~_7 from the Bessel integrals, each output within its
  stated ``error_bound``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import operator
import platform
import sys
from math import comb

import numpy as np
from mpmath import mp, mpf

import checks
import run
import workloads

# Must be set before any int -> str conversion of the big tables.
sys.set_int_max_str_digits(0)

from lattice_returns import catalog, cli, walks  # noqa: E402

QUAD_DPS = 30
BREAKS = [0, 1, 10, 100, 1000, 10000, 100000]


def require(ok: bool, what: str = "cross-check failed") -> None:
    """A cross-check that holds under ``python -O`` too."""
    if not ok:
        raise SystemExit("error: " + str(what))


def _primes_below(limit: int, count: int) -> list[int]:
    out, n = [], limit - 1
    while len(out) < count:
        if all(n % f for f in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
        n -= 2
    return out


# Products of two residues stay below 2^62, sums of a row below 2^63.
PRIMES = _primes_below(2**31, 3)


# ---------------------------------------------------------------------------
# Constants: Watson (1939) and the Bessel-integral representation.
# ---------------------------------------------------------------------------

def m3_watson() -> mpf:
    g = [mp.gamma(mpf(k) / 24) for k in (1, 5, 7, 11)]
    return mp.sqrt(6) / (32 * mp.pi**3) * g[0] * g[1] * g[2] * g[3]


def m_bessel(d: int) -> mpf:
    """m_d = int_0^inf (e^{-t/d} I_0(t/d))^d dt."""
    def f(t):
        return (mp.exp(-t / d) * mp.besseli(0, t / d)) ** d
    return mp.quad(f, BREAKS + [mp.inf])


def m_tilde_bessel(d: int) -> mpf:
    """m~_d = 1/2 int_0^inf t (e^{-t/d} I_0)^{d-1} e^{-t/d} I_1(t/d) dt."""
    def f(t):
        e = mp.exp(-t / d)
        return t * (e * mp.besseli(0, t / d)) ** (d - 1) * e * mp.besseli(1, t / d) / 2
    return mp.quad(f, BREAKS + [mp.inf])


def constant_refs() -> tuple[dict, dict]:
    with mp.workdps(QUAD_DPS):
        watson = m3_watson()
        m_ref = {3: watson}
        for d in range(3, 8):
            m = m_bessel(d)
            if d == 3:
                gap = abs(m - watson)
                print("m_3: Watson %s, Bessel integral differs by %s"
                      % (mp.nstr(watson, 25), mp.nstr(gap, 3)))
                require(gap < mpf(10) ** -17)
            else:
                m_ref[d] = m
        mt_ref = {d: m_tilde_bessel(d) for d in (5, 6, 7)}
        fmt = lambda v: mp.nstr(v, QUAD_DPS - 2)  # noqa: E731
        return ({str(d): fmt(v) for d, v in m_ref.items()},
                {str(d): fmt(v) for d, v in mt_ref.items()})


# ---------------------------------------------------------------------------
# Exact tables: an independent ladder modulo primes.
# ---------------------------------------------------------------------------

def ladder_mod(d: int, N: int, p: int) -> np.ndarray:
    """x_0..x_N of dimension d mod p, by x^{(d+1)}_n = sum_k C(n,k)^2 x^{(d)}_k."""
    xs = [np.ones(N + 1, dtype=np.int64)] + [np.zeros(N + 1, dtype=np.int64)
                                             for _ in range(d - 1)]
    row = np.zeros(N + 1, dtype=np.int64)
    row[0] = 1
    for n in range(N + 1):
        if n:
            row[1:n + 1] = (row[1:n + 1] + row[:n]) % p
        sq = row[:n + 1] * row[:n + 1] % p
        for level in range(1, d):
            xs[level][n] = (sq * xs[level - 1][:n + 1] % p).sum() % p
    return xs[-1]


def central_mod(N: int, p: int) -> np.ndarray:
    c = [1]
    for n in range(1, N + 1):
        c.append(c[-1] * (2 * n) * (2 * n - 1) * pow(n * n, -1, p) % p)
    return np.array(c, dtype=np.int64)


def a_mod(d: int, N: int, p: int) -> np.ndarray:
    return ladder_mod(d, N, p) * central_mod(N, p) % p


def parse_seq(text: str) -> tuple[str, int, list[int]]:
    lines = text.splitlines()
    meta = dict(part.split("=") for part in lines[0][1:].split())
    require(lines[1] == "n,value")
    rows = [line.split(",") for line in lines[2:]]
    offset = 1 if meta["kind"] == "B" else 0
    require([int(n) for n, _ in rows] == list(range(offset, offset + len(rows))))
    return meta["kind"], int(meta["d"]), [int(v) for _, v in rows]


def cross_check_seq(text: str) -> str:
    kind, d, values = parse_seq(text)
    N = len(values) - (kind != "B")
    for p in PRIMES:
        got = np.array([v % p for v in values], dtype=np.int64)
        if kind == "X":
            require(np.array_equal(got, ladder_mod(d, N, p)), "X ladder mismatch")
        elif kind == "A":
            require(np.array_equal(got, a_mod(d, N, p)), "A ladder mismatch")
        else:
            a = a_mod(d, N, p)
            b = np.concatenate(([0], got))
            for n in range(1, N + 1):
                conv = int((b[1:n + 1] * a[n - 1::-1] % p).sum() % p)
                require(conv == a[n], "(1-B)A != 1 at n=%d" % n)
    first = values[:8] if kind == "B" else values[1:9]
    if kind == "X":
        first = [comb(2 * n, n) * x for n, x in enumerate(first, 1)]
    table = catalog.TABLE_B if kind == "B" else catalog.TABLE_A
    if d in table:
        require(tuple(first) == table[d], "first terms differ from the catalog")
    return "%s d=%d N=%d: agrees with the ladder mod %d primes%s" % (
        kind, d, N, len(PRIMES), ", catalog" if d in table else "")


# ---------------------------------------------------------------------------
# layers, verify, asym
# ---------------------------------------------------------------------------

def closed_walks_multinomial(d: int, n: int) -> int:
    """Closed walks of length 2n in Z^d, summed over per-axis step counts."""
    def parts(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, k - 1):
                yield (first,) + rest
    fact = math.factorial
    return sum(fact(2 * n) // math.prod(fact(j) ** 2 for j in ks)
               for ks in parts(n, d))


def cross_check_layer(argv: list[str], text: str) -> str:
    d, n, h = (int(argv[argv.index(f) + 1]) for f in ("--d", "--n", "--h"))
    lines = text.splitlines()
    counts = {}
    for line in lines[2:]:
        *point, count = (int(v) for v in line.split(","))
        counts[tuple(point)] = count
    # Walks of n steps in Z^d whose last coordinate ends at h.
    mass = sum(comb(n, m) * (2 * (d - 1)) ** (n - m) * comb(m, (m + h) // 2)
               for m in range(abs(h), n + 1) if (m + h) % 2 == 0)
    require(sum(counts.values()) == mass, "layer mass")
    for point, count in counts.items():
        require(counts[tuple(sorted(abs(c) for c in point))] == count, "symmetry")
    if h == 0 and n % 2 == 0:
        require(counts[(0,) * (d - 1)] == closed_walks_multinomial(d, n // 2), "origin")
    return "layer mass, symmetry%s hold" % (", origin" if h == 0 else "")


def cross_check_verify(text: str) -> str:
    obj = json.loads(text)
    require(obj["status"] == "pass")
    require(all(r["status"] == "pass" for r in obj["reports"]))
    return "%d reports, all pass" % len(obj["reports"])


def asym_points(argv: list[str]) -> list[int]:
    return sorted({int(v) for v in argv[argv.index("--n") + 1:]})


def asym_header(argv: list[str]) -> str:
    def opt(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default
    return "# kind=%s d=%s m=%s n=%s" % (
        opt("--kind", "A"), opt("--d", None), opt("--m", "4"),
        ",".join(str(n) for n in asym_points(argv)))


def independent_exact_normalized(kind: str, d: int, ns: list[int]) -> dict[int, float]:
    N = max(ns)
    if d == 2:
        A = [comb(2 * n, n) ** 2 for n in range(N + 1)]
    else:
        A = walks.closed_walks_fast(d, N).values
        require([v % PRIMES[0] for v in A] == list(a_mod(d, N, PRIMES[0])), "A mod p")
    if kind == "A":
        with mp.workdps(50):
            return {n: float(mpf(A[n]) * (mp.pi * n) ** (mpf(d) / 2) / mpf(2 * d) ** (2 * n))
                    for n in ns}
    a = [A[n] / (2 * d) ** (2 * n) for n in range(N + 1)]
    b = [0.0] * (N + 1)
    for n in range(1, N + 1):
        b[n] = a[n] - math.fsum(map(operator.mul, b[1:n], a[n - 1:0:-1]))
    if d == 2:
        return {n: b[n] * n * math.log(n) ** 2 for n in ns}
    return {n: b[n] * (math.pi * n) ** (d / 2) for n in ns}


def asym_ref(argv: list[str], text: str | None) -> tuple[dict, str]:
    kind = argv[argv.index("--kind") + 1]
    d = int(argv[argv.index("--d") + 1])
    ns = asym_points(argv)
    if text is None:
        require(kind == "B", "only the d = 2 B column is pinned without output")
        exact = cli._exact_normalized_b(d, ns)
    else:
        require(text.splitlines()[0] == asym_header(argv))
        exact = {int(line.split(",")[0]): float(line.split(",")[1])
                 for line in text.splitlines()[2:]}
    other = independent_exact_normalized(kind, d, ns)
    gap = max(abs(exact[n] - other[n]) / abs(other[n]) for n in ns)
    require(gap < 1e-10, "exact_normalized differs from the direct route by %g" % gap)
    ref = {"check": "asym", "header": asym_header(argv),
           "exact_normalized": [[n, exact[n]] for n in ns]}
    return ref, "exact_normalized within %.1e of the direct route" % gap


# ---------------------------------------------------------------------------

def run_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def reference(argv: list[str], env: dict, refs: dict) -> tuple[dict, str]:
    child = run.run_child(["-m", "lattice_returns.cli"] + argv, env, 600.0)
    code, text = run_in_process(argv)
    if child.code == 0:
        require(code == 0 and text.encode() == child.out, "in-process output differs")
    command = argv[0]
    if command == "asym":
        ref, note = asym_ref(argv, text if code == 0 else None)
    elif command == "constants":
        ref = {"check": "constants", "d": int(argv[2]), "N": int(argv[4])}
        status, info = checks.check(ref, refs, child.code, child.out, child.err)
        require(status == "ok", (argv, status, info))
        note = "err_over_bound %.3g" % info["err_over_bound"]
    else:
        require(code == 0, "no reference output")
        data = text.encode()
        ref = {"check": "bytes", "sha256": hashlib.sha256(data).hexdigest(),
               "verify": command == "verify"}
        if command == "seq":
            note = cross_check_seq(text)
        elif command == "layers":
            note = cross_check_layer(argv, text)
        else:
            note = cross_check_verify(text)
    if child.code != 0:
        ref["known_defect"] = {"exit": child.code,
                               "stderr": checks.last_line(child.err)}
        note += "; known defect: exit %d, %s" % (child.code, ref["known_defect"]["stderr"])
    return ref, note


def main() -> int:
    m_ref, mt_ref = constant_refs()
    refs = {"generator": {"python": platform.python_version(),
                          "git_revision": run.git_revision()},
            "m_ref": m_ref, "m_tilde_ref": mt_ref, "commands": {}}
    env = run.child_env()
    for argv in workloads.all_variants():
        ref, note = reference(argv, env, refs)
        key = workloads.key(argv)
        refs["commands"][key] = ref
        print("%-52s %s" % (key, note), flush=True)
    with open(run.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
