"""Checks of one CLI command's outcome against its stored reference.

``check`` returns ``(status, info)``.  ``status`` is ``"ok"`` when the
output matches the reference, ``"known_defect"`` when the command failed
exactly as recorded in ``refs.json`` for the baseline, and ``"failed"``
for anything else: another exit code, another error, a timeout, or output
that does not match.  ``info`` carries the numbers the per-layer metrics
read from the output (``err_over_bound``, ``max_rel_err``, report counts).
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal

ASYM_COLUMNS = "n,exact_normalized,asym_normalized,rel_error"
EXACT_REL_TOL = 1e-12


def last_line(err: bytes) -> str:
    lines = err.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def check(ref: dict, refs: dict, code: int | None, out: bytes,
          err: bytes) -> tuple[str, dict]:
    if code != 0:
        defect = ref.get("known_defect")
        if defect and code == defect["exit"] and last_line(err) == defect["stderr"]:
            return "known_defect", {}
        return "failed", {"exit": code, "stderr": last_line(err)}
    try:
        info = _CHECKS[ref["check"]](ref, refs, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "failed", {"error": "%s: %s" % (type(exc).__name__, exc)}
    return ("ok" if info.pop("ok") else "failed"), info


def _bytes(ref: dict, refs: dict, out: bytes) -> dict:
    info = {"ok": hashlib.sha256(out).hexdigest() == ref["sha256"]}
    if ref.get("verify"):
        reports = json.loads(out)["reports"]
        info["reports"] = len(reports)
        info["reports_failed"] = sum(r["status"] != "pass" for r in reports)
    return info


def _within(value: float, ref: str, bound: float) -> float:
    """|value - ref| / bound, with the float taken exactly."""
    if not (math.isfinite(value) and bound > 0):
        return math.inf
    return float(abs(Decimal(value) - Decimal(ref))) / bound


def _constants(ref: dict, refs: dict, out: bytes) -> dict:
    obj = json.loads(out)
    d = obj["dimension"]
    m = obj["m_d"]
    ratios = [_within(m["value"], refs["m_ref"][str(d)], m["error_bound"])]
    mt_ref = refs["m_tilde_ref"].get(str(d))
    if mt_ref is not None:
        mt = obj["m_tilde_d"]
        ratios.append(_within(mt["value"], mt_ref, mt["error_bound"]))
    m_ref = float(refs["m_ref"][str(d)])
    # p_d = 1 - 1/m_d inherits the bound of m_d, divided by m_d^2.
    p_slack = m["error_bound"] / m_ref**2 * 1.01 + 4e-16
    ok = (d == ref["d"] and obj["terms_used"] == ref["N"]
          and abs(obj["p_d"] - (1 - 1 / m_ref)) <= p_slack
          and max(ratios) <= 1)
    return {"ok": ok, "err_over_bound": max(ratios)}


def _asym(ref: dict, refs: dict, out: bytes) -> dict:
    lines = out.decode().splitlines()
    expected = ref["exact_normalized"]
    ok = (len(lines) == 2 + len(expected) and lines[0] == ref["header"]
          and lines[1] == ASYM_COLUMNS)
    max_rel = 0.0
    for line, (n_ref, e_ref) in zip(lines[2:], expected):
        n, e, a, rel = line.split(",")
        e, a, rel = float(e), float(a), float(rel)
        well_formed = (int(n) == n_ref and math.isfinite(a) and a > 0
                       and rel == abs(e - a) / e)
        ok = ok and well_formed and abs(e - e_ref) <= EXACT_REL_TOL * abs(e_ref)
        max_rel = max(max_rel, rel)
    return {"ok": ok, "max_rel_err": max_rel}


_CHECKS = {"bytes": _bytes, "constants": _constants, "asym": _asym}
