"""End-to-end benchmark of the lattice-returns CLI.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each command of the workload runs in a
fresh interpreter (``python -m lattice_returns.cli`` with
``PYTHONPATH=src``), one at a time: a closed loop with one client.  Passes
through the workload repeat until the next one would overrun
``--seconds``; set-up is timed a few times before every pass.  Each
command's figures are medians over the passes, and every output is
checked against ``refs.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass whose commands run under ``traced.py`` and
reports the per-layer metrics.  The last line of stdout is one JSON
object; a human-readable summary precedes it, and the full record goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "lattice_returns"
OUT = HERE / "out"
REFS = HERE / "refs.json"

# Set-up samples taken before every pass, so that they spread over the
# whole run as the commands do: the host's speed drifts by tens of percent
# over tens of seconds, and samples taken in one burst see one moment of it.
SETUP_PER_PASS = 3
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0
# The thread pool behind this variable crashes at random (ROADMAP item 4);
# a random failure would make the error figures unsteady, so children never
# see it.
DROPPED_ENV = ("LATTICE_RETURNS_THREADS",)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "ok_rate": "ratio", "setup_s": "s"}

# Self time of each traced span name goes to one metric.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "walks.x_sequence": "walks.ladder_s",
    "walks.closed_walks": "walks.ladder_s",
    "walks.x_sequence_fast": "walks.recurrence_s",
    "walks.closed_walks_fast": "walks.recurrence_s",
    "walks.first_returns": "walks.convolution_s",
    "walks.first_returns_fast": "walks.convolution_s",
    "walks.layer": "walks.layers_s",
    "kernel.binomial_row": "kernel.binomial_row_s",
    "kernel.poly_eval": "kernel.poly_eval_s",
    "holonomy.series_mul": "holonomy.series_mul_s",
    "holonomy.check_ode": "holonomy.check_ode_s",
    "holonomy.check_p_recurrence": "holonomy.check_p_recurrence_s",
    "holonomy.lucas_check": "holonomy.lucas_check_s",
    "holonomy.hadamard": "holonomy.hadamard_s",
    "holonomy.series_from_sequence": "holonomy.series_from_sequence_s",
    "constants.estimate_m": "constants.estimate_m_s",
    "constants.estimate_m_tilde": "constants.estimate_m_tilde_s",
    "constants.normalized_a_series": "constants.a_series_s",
    "constants.normalized_b_series": "constants.b_series_s",
    "constants.polya_probability": "constants.polya_s",
    "constants.empirical_b1": "constants.empirical_b1_s",
    "asymptotics.eval": "asymptotics.eval_s",
}
CALLS = {
    "kernel.binomial_row": "kernel.binomial_row_calls",
    "kernel.poly_eval": "kernel.poly_eval_calls",
    "constants.normalized_b_series": "constants.b_series_calls",
    "asymptotics.eval": "asymptotics.eval_calls",
}
# Figures the checks read from each command's output, maximised over a pass.
FROM_OUTPUT = {"constants.err_over_bound": "err_over_bound",
               "asymptotics.max_rel_err": "max_rel_err"}
# Per-pass maxima; every other per-layer figure is a sum over the commands.
MAXIMA = ("walks.max_bits", *FROM_OUTPUT)
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "walks.ladder_s": "s", "walks.ladder_terms": "count",
    "walks.recurrence_s": "s", "walks.convolution_s": "s", "walks.layers_s": "s",
    "walks.table_calls": "count", "walks.table_distinct": "count",
    "walks.table_reuse_ratio": "ratio", "walks.max_bits": "bits",
    "kernel.binomial_row_calls": "count", "kernel.binomial_row_s": "s",
    "kernel.poly_eval_calls": "count", "kernel.poly_eval_s": "s",
    "holonomy.series_mul_s": "s", "holonomy.check_ode_s": "s",
    "holonomy.check_p_recurrence_s": "s", "holonomy.lucas_check_s": "s",
    "holonomy.hadamard_s": "s", "holonomy.series_from_sequence_s": "s",
    "holonomy.reports": "count", "holonomy.reports_failed": "count",
    "constants.estimate_m_s": "s", "constants.estimate_m_tilde_s": "s",
    "constants.summand_passes": "count", "constants.summand_distinct": "count",
    "constants.a_series_s": "s", "constants.b_series_s": "s",
    "constants.b_series_calls": "count", "constants.polya_s": "s",
    "constants.empirical_b1_s": "s", "constants.err_over_bound": "ratio",
    "asymptotics.eval_calls": "count", "asymptotics.eval_s": "s",
    "asymptotics.max_rel_err": "ratio", "catalog.lookups": "count",
    "trace.overhead_s": "s", "src.lines": "lines",
}


@dataclass
class Child:
    code: int | None  # None: killed at its timeout
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    out: bytes
    err: bytes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run ``python ARGS`` to completion; rusage comes from ``os.wait4``."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out_fh, stderr=err_fh, cwd=ROOT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(None if timed_out else proc.returncode, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


def time_setup(env: dict[str, str], deadline: float) -> float:
    """Time from a fresh interpreter to ``import lattice_returns.cli`` done."""
    child = run_child(["-c", "import lattice_returns.cli"], env,
                      deadline - perf_counter())
    if child.code != 0:
        raise SystemExit("error: cannot import lattice_returns.cli: %s"
                         % child.err.decode(errors="replace").strip())
    return child.wall_s


def command_medians(passes: list[dict], field: str) -> list[float]:
    """Each command's median of FIELD over the passes.  Per-command medians
    let one slow sample of one command drop out without taking the rest of
    its pass with it."""
    return [statistics.median(p["commands"][i][field] for p in passes)
            for i in range(len(passes[0]["commands"]))]


def span_metrics(spans_path: Path) -> dict[str, float]:
    """Per-layer figures of one traced command: self time of each span
    (its duration minus the time of its child spans) and the size notes."""
    with open(spans_path) as fh:
        trace = json.load(fh)
    spans, notes = trace["spans"], trace["notes"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for (name, start, end, parent), inner in zip(spans, child_time):
        m[SELF_TIME[name]] += end - start - inner
        if name in CALLS:
            m[CALLS[name]] += 1
    tables = [tuple(x) for x in notes["x_sequence"]]
    m["walks.table_calls"] = len(tables)
    m["walks.table_distinct"] = len(set(tables))
    m["walks.ladder_terms"] = sum((d - 1) * (n + 1) for d, n in tables)
    m["walks.max_bits"] = notes["max_bits"]
    m["constants.summand_passes"] = len(notes["summands"])
    m["constants.summand_distinct"] = len({tuple(s) for s in notes["summands"]})
    m["catalog.lookups"] = notes["catalog_lookups"]
    return m


def run_pass(cmds: list[list[str]], refs: dict, env: dict[str, str],
             deadline: float, traced: bool) -> dict:
    """One pass through the workload's commands, each checked."""
    results = []
    layer: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    spans_path = OUT / "spans.json"
    for argv in cmds:
        timeout = min(COMMAND_TIMEOUT_S, deadline - perf_counter())
        if traced:
            spans_path.unlink(missing_ok=True)
            prefix = [str(HERE / "traced.py"), str(spans_path), "--"]
        else:
            prefix = ["-m", "lattice_returns.cli"]
        child = run_child(prefix + argv, env, timeout)
        status, info = checks.check(refs["commands"][workloads.key(argv)], refs,
                                    child.code, child.out, child.err)
        results.append({"argv": argv, "status": status, "exit": child.code,
                        "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                        "maxrss_mb": child.maxrss_mb, "out_bytes": len(child.out),
                        **info})
        if traced and spans_path.exists():
            figures = span_metrics(spans_path)
            results[-1]["layer"] = {k: v for k, v in figures.items() if v}
            for name, value in figures.items():
                layer[name] = (max(layer[name], value) if name in MAXIMA
                               else layer[name] + value)
        layer["cli.out_bytes"] += len(child.out)
        layer["holonomy.reports"] += info.get("reports", 0)
        layer["holonomy.reports_failed"] += info.get("reports_failed", 0)
        for metric, key in FROM_OUTPUT.items():
            layer[metric] = max(layer[metric], info.get(key, 0.0))
    calls = layer["walks.table_calls"]
    layer["walks.table_reuse_ratio"] = layer["walks.table_distinct"] / calls if calls else 1.0
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        "commands": results,
        "layer": layer if traced else None,
    }


def src_lines() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    return {"machine": platform.machine(), "cpu": cpu_model(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_revision": git_revision(),
            "src.lines": src_lines()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "cli.py").is_file() or not REFS.is_file():
        sys.stderr.write("error: run from a checkout of lattice-returns "
                         "(need src/lattice_returns and perfbench/refs.json)\n")
        return 2
    with open(REFS) as fh:
        refs = json.load(fh)

    started = perf_counter()
    deadline = started + RUN_DEADLINE_S
    env = child_env()
    time_setup(env, deadline)  # untimed: writes the bytecode caches
    cmds = workloads.commands(args.workload, args.seed)
    passes, setup_times = [], []
    loop_start = perf_counter()
    while True:
        t0 = perf_counter()
        setup_times += [time_setup(env, deadline) for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(cmds, refs, env, deadline, traced=False))
        if args.trace:
            passes.append(run_pass(cmds, refs, env, deadline, traced=True))
        step = perf_counter() - t0
        elapsed = perf_counter() - loop_start
        if elapsed + step > args.seconds or perf_counter() + step > deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["commands"]) for p in passes)
    outcomes = [r["status"] for p in passes for r in p["commands"]]
    failed = outcomes.count("failed")
    error_rate = (attempted - outcomes.count("ok")) / attempted
    end_to_end = {
        "wall_s": sum(command_medians(plain, "wall_s")),
        "cpu_s": sum(command_medians(plain, "cpu_s")),
        "peak_rss_mb": max(command_medians(plain, "maxrss_mb")),
        "ok_rate": 1.0 - error_rate,
        "setup_s": statistics.median(setup_times),
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layer"][name] for p in traced)
                  for name in PER_LAYER_UNITS}
        values["trace.overhead_s"] = (sum(command_medians(traced, "wall_s"))
                                      - end_to_end["wall_s"])
        values["src.lines"] = src_lines()
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine(), "commands": cmds,
              "error_rate": error_rate, "end_to_end": end_to_end,
              "setup_times": setup_times,
              "metrics": metrics, "passes": passes}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s, seed %d: %d passes (%d traced), %d set-ups, %.1f s"
          % (args.workload, args.seed, len(passes),
             sum(p["traced"] for p in passes), len(setup_times),
             perf_counter() - started))
    for name, unit in END_TO_END_UNITS.items():
        print("  %-12s %12.6g %s" % (name, end_to_end[name], unit))
    print("  %-12s %12.6g ratio  (known defects: %d, failed: %d, attempted: %d)"
          % ("error_rate", error_rate, outcomes.count("known_defect"), failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
