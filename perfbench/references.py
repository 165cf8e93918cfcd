"""Pinned reference reports of the default seed, and the comparison against them.

A report is flattened to ``{path: scalar}`` with the ``version`` and
``config`` fields left out: they echo the package and the inputs, not a
result. Every path of the reference must be present in the new report.
Integers, booleans, strings and None must match exactly. Floats must match
within REL_TOL relative or ABS_TOL absolute: far tighter than any change of a
measured constant or of the side of a pass flag, yet loose enough for a
vectorized rewrite that changes the rounding (2.6e-16 relative for the
level-at-once Orlicz solver). Paths that only the new report has are
ignored, so added aggregates do not fail the gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
DEFAULT_SEED = 0
DIRECTORY = Path(__file__).resolve().parent / "references"
SKIPPED = ("version", "config")


def flatten(report: dict) -> dict:
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}{key}.", item)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}{i}.", item)
        else:
            out[prefix[:-1]] = value

    walk("", {k: v for k, v in report.items() if k not in SKIPPED})
    return out


def _matches(new, ref) -> bool:
    if isinstance(ref, float):
        if not isinstance(new, float):
            return False
        if math.isnan(ref):
            return math.isnan(new)
        return new == ref or math.isclose(new, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(new) is type(ref) and new == ref


def mismatches(report: dict, ref: dict) -> list:
    """Paths where the report misses its reference."""
    flat = flatten(report)
    return [
        f"{path}: {flat.get(path, '<missing>')!r} != {value!r}"
        for path, value in ref.items()
        if path not in flat or not _matches(flat[path], value)
    ]


def path_for(workload: str) -> Path:
    return DIRECTORY / f"{workload}.jsonl"


def load(workload: str, resolution: int) -> dict:
    """call index -> flattened reference report; empty when none is pinned
    for this resolution."""
    path = path_for(workload)
    if not path.exists():
        return {}
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header["resolution"] != resolution or header["seed"] != DEFAULT_SEED:
            return {}
        keys = header["keys"]
        return {row[0]: dict(zip(keys, row[1:])) for row in map(json.loads, fh)}


def save(workload: str, resolution: int, reports: list) -> None:
    """Pin calls 0..len(reports)-1 of the default seed: a header line with
    the shared key list, then one ``[call, values...]`` line per call."""
    flats = [flatten(report) for report in reports]
    keys = list(flats[0])
    if any(list(flat) != keys for flat in flats):
        raise ValueError(f"{workload}: reports do not share one key list")
    DIRECTORY.mkdir(exist_ok=True)
    with open(path_for(workload), "w") as fh:
        header = {"workload": workload, "resolution": resolution, "seed": DEFAULT_SEED, "keys": keys}
        fh.write(json.dumps(header) + "\n")
        for j, flat in enumerate(flats):
            fh.write(json.dumps([j, *flat.values()]) + "\n")
