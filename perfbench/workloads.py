"""The benchmark's workloads: each is a list of CLI command slots, and each
slot lists equal-cost variants of one command.  A seed picks one variant
per slot; every variant has a stored reference in ``refs.json``
(regenerate with ``make_refs.py``).  Variant 0 is the command named in
the README.
"""

from __future__ import annotations

import random


def _n_variants(prefix: list[str], flag: str, centre: int, step: int) -> list[list[str]]:
    return [prefix + [flag, str(centre + k * step)] for k in (0, -1, 1)]


def _points(prefix: list[str], *point_sets: str) -> list[list[str]]:
    return [prefix + ["--n"] + points.split() for points in point_sets]


WORKLOADS: dict[str, list[list[list[str]]]] = {
    "exact": [
        [["verify", "all"]],
        _n_variants(["verify", "hadamard"], "--order", 400, 2),
        _n_variants(["seq", "--kind", "B", "--d", "3"], "--N", 1000, 4),
        _n_variants(["seq", "--kind", "A", "--d", "5"], "--N", 2400, 10),
        [["layers", "--d", "4", "--n", "30", "--h", h] for h in ("0", "1", "-1")],
        _n_variants(["seq", "--kind", "X", "--d", "8"], "--N", 400, 2),
    ],
    "constants": [
        _n_variants(["constants", "--d", "3"], "--N", 100000, 500),
        _n_variants(["constants", "--d", "5"], "--N", 100000, 500),
        _points(["asym", "--kind", "B", "--d", "3"],
                "500 1000 2000 4000", "600 1200 2400 4000", "700 1400 2800 4000"),
        _points(["asym", "--kind", "A", "--d", "4", "--m", "4"],
                "64 256 1024", "100 300 1024", "128 512 1024"),
        _points(["asym", "--kind", "B", "--d", "2"],
                "500 1000 2000", "400 1000 2000", "600 1200 2000"),
        _n_variants(["constants", "--d", "6"], "--N", 600, 3),
    ],
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv of each command of one pass, as the seed picks them."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [slot[rng.randrange(len(slot))] for slot in WORKLOADS[workload]]


def all_variants() -> list[list[str]]:
    return [argv for slots in WORKLOADS.values() for slot in slots for argv in slot]


def key(argv: list[str]) -> str:
    return " ".join(argv)
