"""Desk-scale verification benchmark for bottlenecklab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. One run sets up, makes one untimed warm-up pass, then
makes timed passes for about ``--seconds`` seconds, checking every grid
point of every pass against the stored references. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (median seconds per warm pass), ``setup_s``
  (median of several fresh processes' start-to-ready time), ``peak_rss_mb``
  (this process's peak resident memory) and ``ok_frac`` (grid points that
  passed every check, over those attempted).
* ``--trace 1``: per-layer metrics from traced passes, alternated with
  untraced ones to measure the tracing overhead.

See README.md next to this file for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 5
MIN_TIMED_PASSES = 2


class UsageError(Exception):
    """The checkout or the arguments cannot give a run; no result is printed."""


def _import_package():
    """Import bottlenecklab from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bottlenecklab", "__init__.py")):
        raise UsageError(f"no bottlenecklab package under {SRC}")
    sys.path.insert(0, SRC)
    import bottlenecklab

    if os.path.dirname(os.path.dirname(os.path.abspath(bottlenecklab.__file__))) != SRC:
        raise UsageError(f"bottlenecklab imported from {bottlenecklab.__file__}")
    import numpy  # noqa: F401  (set-up covers these imports explicitly)
    import scipy  # noqa: F401
    import workloads

    return workloads


def _setup_probe(args):
    """Child process: import, build the inputs, report ready."""
    workloads = _import_package()
    workloads.WORKLOADS[args.workload].build(args.seed, args.setup_probe)
    print("ready", flush=True)
    return 0


def _measure_setup(args, workdir):
    """Start-to-ready seconds of one fresh process."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
        workdir,
    ]
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe failed with status {status}")
    return ready - start


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bottlenecklab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads or f"unset (OpenBLAS default: {nproc})",
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


class Checker:
    """Checks every pass's points and keeps the attempted/failed tally."""

    def __init__(self, workload, seed):
        self.key = reference.seed_key(workload.seeded, seed)
        self.expected = reference.load()["workloads"].get(workload.name, {}).get(self.key)
        self.record_path = os.path.join(RUNS, "records", f"{workload.name}-{self.key}.json")
        self.workload = workload.name
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, points):
        if self.expected is None:
            # no stored reference: the asserted inequalities (no point
            # error) decide, and later passes must repeat the first
            good = [p for p in points if p.error is None]
            self.expected = {p.key: p.values for p in good}
            reference.record(self.record_path, self.workload, self.key, good)
        for p in points:
            self.attempted += 1
            error = p.error
            if error is None:
                ref = self.expected.get(p.key)
                error = "no reference" if ref is None else reference.mismatch(ref, p.values)
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{p.key}: {error}")


def _pass(workload, inputs, out_dir, checker):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    start = time.perf_counter()
    points = workload.run(inputs, out_dir)
    elapsed = time.perf_counter() - start
    checker.check(points)
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, len(points)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        raise UsageError(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    # every workload runs with jobs=1, whatever the environment asks for
    os.environ["BOTTLENECKLAB_JOBS"] = "1"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True), flush=True)
    record = {"workload": workload.name, "seed": args.seed, "machine": facts}
    try:
        setup = []
        if not args.trace:
            setup = [
                _measure_setup(args, os.path.join(run_dir, f"probe{i}"))
                for i in range(SETUP_PROBES)
            ]
        inputs = workload.build(args.seed, run_dir)
        checker = Checker(workload, args.seed)
        out_dir = os.path.join(run_dir, "out")
        warm_s, points = _pass(workload, inputs, out_dir, checker)
        n_timed = max(MIN_TIMED_PASSES, round(args.seconds / warm_s))
        record["warmup_s"] = warm_s
        if args.trace:
            metrics = _traced_passes(workload, inputs, out_dir, checker, n_timed, points, record)
        else:
            walls = [_pass(workload, inputs, out_dir, checker)[0] for _ in range(n_timed)]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record.update(wall_samples=walls, setup_samples=setup)
            metrics = {
                "wall_s": _metric(statistics.median(walls), "s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
                "ok_frac": _metric(1.0 - checker.failed / checker.attempted, "ratio"),
            }
            print(
                f"{workload.name}: {len(walls)} timed passes of {points} points, "
                f"wall_s median {statistics.median(walls):.3f} "
                f"(min {min(walls):.3f}, max {max(walls):.3f}); "
                f"set-up median of {len(setup)}: {statistics.median(setup):.3f} s; "
                f"failed {checker.failed} of {checker.attempted} points"
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for err in checker.errors:
        print(f"FAILED {err}")
    record.update(errors=checker.errors, metrics=metrics)
    with open(os.path.join(RUNS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _traced_passes(workload, inputs, out_dir, checker, n_timed, points, record):
    """Alternate untraced and traced passes; per-layer metrics of the latter."""
    import tracer as tracing
    import workloads as own

    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    for _ in range(max(1, n_timed // 2)):
        untraced.append(_pass(workload, inputs, out_dir, checker)[0])
        tracer.reset()
        tracer.install(extra_modules=[own])
        try:
            wall, _ = _pass(workload, inputs, out_dir, checker)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layers.append(tracer.summary(wall, points))
    record.update(
        untraced_samples=untraced,
        traced_samples=traced,
        per_function=tracer.per_function(),
    )
    metrics = {
        name: _metric(statistics.median(p[name][0] for p in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["trace.traced_wall_s"] = _metric(statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = _metric(statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = _metric(
        metrics["trace.traced_wall_s"]["value"] - metrics["trace.untraced_wall_s"]["value"], "s"
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return _setup_probe(args)
        return run(args)
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
