"""The artifacts every in-process CLI run of the test suites writes, hashed.

    PYTHONPATH=src python tests/outputs.py [--out OUTPUTS.json] [--against OLD.json]

Run from the root of a checkout. Opt-in and outside the Tier-1 suite
(pytest collects only test_*.py files), in the manner of
``tests/reach.py``. It wraps ``bottlenecklab.cli.main`` before any test
module imports it, then runs ``tests/test_cli.py``,
``tests/test_acceptance.py``, ``tests/test_stability.py`` and
``tests/test_bottleneck.py`` in this process. After each call it reads
``report.csv``, ``report.json``, ``fit.json`` and ``failures.json`` from
the call's output directory, rewrites pytest's temporary-directory
prefix (``.../pytest-of-<user>/pytest-<N>/<test dir>``) to ``<tmp>`` and
takes the sha256 of what remains. A call is keyed by its test node id
and its index among that test's calls. A call that a test makes in a
child process is not seen.

The output records, for each call, its subcommand, its exit status, the
hash of each artifact it wrote and the normalised lines of its
``report.csv``, plus the numpy version and the BLAS and LAPACK builds,
since dense eigensolves move in their last digits across BLAS builds.
With ``--against OLD.json`` it prints each call that is gone, each
changed exit status, each changed artifact and each changed
``report.csv`` row with the largest relative change of its numeric
fields, and exits 1 when any is found. Calls that OLD.json does not
hold are counted, not flagged.
"""

import argparse
import hashlib
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("test_cli.py", "test_acceptance.py", "test_stability.py", "test_bottleneck.py")
ARTIFACTS = ("report.csv", "report.json", "fit.json", "failures.json")
_TMP = re.compile(rb"[^\s'\"]*/pytest-of-[^/\s'\"]+/pytest-\d+/[^/\s'\"]+")


def _normalised(path):
    with open(path, "rb") as fh:
        return _TMP.sub(b"<tmp>", fh.read())


class Recorder:
    """Wraps a CLI entry point and records the artifacts of each call."""

    def __init__(self, main):
        self.main = main
        self.calls = {}

    def __call__(self, argv=None):
        status = self.main(argv)
        argv = list(argv if argv is not None else sys.argv[1:])
        out = argv[argv.index("--out") + 1] if "--out" in argv else "."
        test = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" (", 1)[0]
        index = sum(key.startswith(test + "#") for key in self.calls)
        entry = {"subcommand": argv[0], "status": status, "artifacts": {}}
        for name in ARTIFACTS:
            path = os.path.join(out, name)
            if os.path.isfile(path):
                data = _normalised(path)
                entry["artifacts"][name] = hashlib.sha256(data).hexdigest()
                if name == "report.csv":
                    entry["rows"] = data.decode("utf-8").splitlines()
        self.calls[f"{test}#{index}"] = entry
        return status


def _blas():
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    keep = ("name", "version", "openblas configuration")
    return {
        "numpy": np.__version__,
        **{lib: {k: deps[lib][k] for k in keep if k in deps[lib]} for lib in ("blas", "lapack")},
    }


def _relative_change(old, new):
    """The largest relative change over the numeric fields of two rows."""
    worst = 0.0
    for a, b in zip(old.split(","), new.split(",")):
        try:
            x, y = float(a), float(b)
        except ValueError:
            continue
        if x != y:
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return worst


def compare(old, new):
    """Lines naming each difference of new from old; calls only new holds
    are not differences."""
    lines = []
    for key, was in old.items():
        now = new.get(key)
        if now is None:
            lines.append(f"gone: {key}")
            continue
        if now["status"] != was["status"]:
            lines.append(f"status {was['status']} -> {now['status']}: {key}")
        for name in sorted(set(was["artifacts"]) | set(now["artifacts"])):
            if was["artifacts"].get(name) == now["artifacts"].get(name):
                continue
            lines.append(f"changed: {key} {name}")
            if name == "report.csv" and "rows" in was and "rows" in now:
                for i, (a, b) in enumerate(zip(was["rows"], now["rows"])):
                    if a != b:
                        lines.append(f"  row {i}: {a}")
                        lines.append(f"  row {i}: {b} (rel {_relative_change(a, b):.3g})")
                if len(was["rows"]) != len(now["rows"]):
                    lines.append(f"  rows {len(was['rows'])} -> {len(now['rows'])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO, "OUTPUTS.json"))
    parser.add_argument("--against", help="an earlier manifest to compare with")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, os.path.join(REPO, "tests"))
    import pytest

    from bottlenecklab import cli

    recorder = Recorder(cli.main)
    cli.main = recorder
    targets = [os.path.join(REPO, "tests", name) for name in SUITES]
    status = int(pytest.main(["-q", "-p", "no:cacheprovider", *targets]))
    report = {
        "command": "PYTHONPATH=src python tests/outputs.py",
        "suites": [f"tests/{name}" for name in SUITES],
        "pytest_status": status,
        "blas": _blas(),
        "calls": recorder.calls,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    artifacts = sum(len(c["artifacts"]) for c in recorder.calls.values())
    print(f"{len(recorder.calls)} calls, {artifacts} artifacts -> {args.out}")
    if args.against is None:
        return 0 if status == 0 else 1
    with open(args.against, encoding="utf-8") as fh:
        old = json.load(fh)
    if old["blas"] != report["blas"]:
        print(f"BLAS differs: {old['blas']} -> {report['blas']}")
    diff = compare(old["calls"], recorder.calls)
    for line in diff:
        print(line)
    added = len(set(recorder.calls) - set(old["calls"]))
    print(f"{len(diff)} difference lines; {added} calls not in {args.against}")
    return 0 if status == 0 and not diff else 1


if __name__ == "__main__":
    sys.exit(main())
