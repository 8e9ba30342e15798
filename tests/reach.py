"""Which statements of src/bottlenecklab the CLI tests, the acceptance
criteria and the benchmark workloads execute.

    PYTHONPATH=src python tests/reach.py [--out REACH.json]

Run from the root of a checkout. Opt-in and outside the Tier-1 suite
(pytest collects only test_*.py files). It traces line events of the
package's own files with sys.settrace and threading.settrace, so the
CLI's worker threads count too, while it runs three drivers in turn in
this process:

* ``test_cli``: ``pytest tests/test_cli.py``;
* ``test_acceptance``: ``pytest tests/test_acceptance.py``;
* ``workloads``: one build and one pass of every workload of
  ``perfbench/workloads.py`` at seed 0, imported as it is.

Code that a test runs in a child process is not traced, and a module's
top-level statements, which run once at its first import, count for
the first driver only. A statement counts as reached when a line event
falls on it: a simple statement on any of its lines, an ``if``,
``for``, ``while`` or ``with`` on its header. Definitions, docstrings and ``try`` have no code of their own
and are not counted. The output names every module with its sha256,
since the line numbers index that text, its statement count, and for
each driver and for all of them together (``any``) the count reached
and the first lines of the statements not reached.
"""

import argparse
import ast
import hashlib
import json
import os
import sys
import tempfile
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "bottlenecklab")
_HEADER_ONLY = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)
_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)


class Tracer:
    """Line events of the package's files, into the set of the current driver."""

    def __init__(self):
        self.lines = {}
        self.current = None

    def start(self, driver):
        self.current = self.lines.setdefault(driver, set())
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.current.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def statements(path):
    """(first line, line range) of every counted statement of a module."""
    tree = ast.parse(open(path, encoding="utf-8").read())
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant compiles to nothing
        last = node.body[0].lineno - 1 if isinstance(node, _HEADER_ONLY) else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out, key=lambda s: s[0])


def _ranges(numbers):
    """'3-5,9' for [3, 4, 5, 9]."""
    spans = []
    for x in numbers:
        if spans and x == spans[-1][1] + 1:
            spans[-1][1] = x
        else:
            spans.append([x, x])
    return ",".join(f"{a}-{b}" if a != b else str(a) for a, b in spans)


def _pytest(target):
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", target])


def _workloads():
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads

    failed = 0
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            inputs = workload.build(0, work)
            points = workload.run(inputs, work)
        failed += sum(p.error is not None for p in points)
    return failed


DRIVERS = {
    "test_cli": lambda: _pytest(os.path.join(REPO, "tests", "test_cli.py")),
    "test_acceptance": lambda: _pytest(os.path.join(REPO, "tests", "test_acceptance.py")),
    "workloads": _workloads,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO, "REACH.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(REPO, "src"))
    tracer = Tracer()
    status = {}
    for driver, run in DRIVERS.items():
        tracer.start(driver)
        try:
            status[driver] = int(run())
        finally:
            tracer.stop()
    modules = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        stmts = statements(path)
        hit = {
            driver: {first for first, span in stmts if any((path, x) in lines for x in span)}
            for driver, lines in tracer.lines.items()
        }
        hit["any"] = set().union(*hit.values())
        modules[name] = {
            "sha256": hashlib.sha256(open(path, "rb").read()).hexdigest(),
            "statements": len(stmts),
            "reached": {driver: len(lines) for driver, lines in hit.items()},
            "unreached": {
                driver: _ranges([first for first, _ in stmts if first not in lines])
                for driver, lines in hit.items()
            },
        }
    report = {
        "command": "PYTHONPATH=src python tests/reach.py",
        "drivers": {
            "test_cli": "pytest tests/test_cli.py; exit status",
            "test_acceptance": "pytest tests/test_acceptance.py; exit status",
            "workloads": "perfbench/workloads.py, every workload, seed 0, one pass; failed points",
        },
        "status": status,
        "unreached_means": "first lines of the statements a driver did not run; any: none ran",
        "modules": modules,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    total = sum(m["statements"] for m in modules.values())
    reached = sum(m["reached"]["any"] for m in modules.values())
    print(f"{reached} of {total} statements reached -> {args.out}")
    return 0 if not any(status.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
