"""Stored reference values and the tolerance the benchmark checks them at.

A value passes when |got - ref| <= RTOL * |ref| + ATOL. The absolute
floor only matters for values that are zero up to rounding (a block
residual, the drift of an exactly invariant state); every other checked
value is many orders of magnitude above it. Non-finite values must match
exactly.

``reference.json`` holds, per workload, one set of point values per seed
key: ``any`` for workloads whose inputs do not depend on the seed, the
seed itself otherwise. A run on a seed without stored values falls back
to the inequalities the program asserts, compares its later passes with
its first, and writes the first pass to ``.perfbench_runs/records/``. To
add those records to the stored references (on code whose results are
trusted):

    python3 perfbench/reference.py .perfbench_runs/records/*.json
"""

import json
import math
import os
import sys

RTOL = 1e-6
ATOL = 1e-12
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def encode(value):
    return value if math.isfinite(value) else repr(value)


def load():
    with open(PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def seed_key(seeded, seed):
    return str(seed) if seeded else "any"


def mismatch(expected, got):
    """None when the point values agree with the expected ones, else why."""
    if set(expected) != set(got):
        return f"value names {sorted(got)} differ from reference {sorted(expected)}"
    for name, ref in expected.items():
        ref = float(ref)
        val = float(got[name])
        if not (math.isfinite(ref) and math.isfinite(val)):
            ok = repr(ref) == repr(val)
        else:
            ok = abs(val - ref) <= RTOL * abs(ref) + ATOL
        if not ok:
            return f"{name} = {val!r}, reference {ref!r}"
    return None


def record(path, workload, key, points):
    """Write one pass's point values in the layout of reference.json."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "workload": workload,
        "seed_key": key,
        "points": {p.key: {k: encode(v) for k, v in p.values.items()} for p in points},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def merge(paths):
    refs = load()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        refs["workloads"].setdefault(rec["workload"], {})[rec["seed_key"]] = rec["points"]
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    merge(sys.argv[1:])
