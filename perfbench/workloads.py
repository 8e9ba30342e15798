"""The four benchmark workloads.

Each workload has a ``build(seed, workdir)`` step that makes its inputs
(config files for the CLI, check families for the library pipeline) and a
``run(inputs, out)`` step that performs one full pass and returns one
``Point`` per grid point. A point carries the values the benchmark checks
against its stored references, or the reason it failed.

The CLI is driven in-process through ``bottlenecklab.cli.main``; only
``css-codes`` uses the library API, because no subcommand accepts an
eigenstate-ball subspace. Library calls go through module attributes so
that the tracer's rebinding covers them.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from bottlenecklab import bottleneck, cli, model, sampler, subspace


@dataclass
class Point:
    key: str
    values: dict = field(default_factory=dict)
    error: str = None


@dataclass
class Workload:
    name: str
    seeded: bool  # whether --seed changes the inputs
    build: object
    run: object


def _write_config(workdir, name, cfg):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


def _reason(exc):
    return f"{type(exc).__name__}: {exc}"


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _run_cli(subcommand, config, out, expected, key, fields):
    """One CLI subcommand; returns its grid points in ``expected`` order.

    ``key`` maps a report row, or the ``point`` of a failures.json entry,
    to its point key. ``fields`` names the row values the benchmark checks,
    or maps a row to them; values go through ``float``, which also reads
    the CLI's ``"inf"`` strings. A point fails when the run exits non-zero,
    failures.json names it (or names no point at all), or its row is
    missing.
    """
    sub_out = os.path.join(out, subcommand)
    argv = [subcommand, "--config", config, "--out", sub_out, "--jobs", "1"]
    crash = None
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash fails every point of this run
            status, crash = 1, _reason(exc)
    failures = _read_json(os.path.join(sub_out, "failures.json"))
    rows = _read_json(os.path.join(sub_out, "report.json")) or []
    errors_by_key = {}
    if crash is not None or failures is None:
        run_error = crash or "failures.json missing"
    else:
        run_error = None
        for entry in failures:
            reason = f"{entry.get('reason')}: {entry.get('message')}"
            if "point" in entry:
                errors_by_key[key(entry["point"])] = reason
            else:
                run_error = reason
    if run_error is None and status != 0 and not errors_by_key:
        run_error = f"exit status {status}"
    values = {}
    for row in rows:
        values.setdefault(key(row), {}).update(
            fields(row) if callable(fields) else {f: float(row[f]) for f in fields}
        )
    points = []
    for k in expected:
        error = errors_by_key.get(k) or run_error
        if error is None and k not in values:
            error = "row missing from report.json"
        points.append(Point(k, {} if error else values[k], error))
    return points


def _beta_key(prefix):
    return lambda row: f"{prefix}/beta={float(row['beta'])!r}"


# --- ring-quantum ------------------------------------------------------------

RING_BETAS = [0.5, 1.0, 2.0, 3.0]
RING_MIX_BETA = 2.0


def _ring_build(seed, workdir):
    base = {"model": "ising_ring", "n": 6, "subspace": {"centers": [0], "radius": 1}}
    return {
        "verify": _write_config(
            workdir,
            "verify-quantum",
            {**base, "betas": RING_BETAS, "partition_radius": 3},
        ),
        "mixing": _write_config(
            workdir,
            "mixing-compare",
            {**base, "beta": RING_MIX_BETA, "partition_radius": 1, "horizon": 3000},
        ),
    }


def _ring_run(inputs, out):
    verify = _beta_key("verify-quantum")
    mixing = _beta_key("mixing-compare")
    return _run_cli(
        "verify-quantum",
        inputs["verify"],
        out,
        [verify({"beta": b}) for b in RING_BETAS],
        verify,
        ["delta", "numerator", "denominator", "lhs", "bound", "tmix_lower"],
    ) + _run_cli(
        "mixing-compare",
        inputs["mixing"],
        out,
        [mixing({"beta": RING_MIX_BETA})],
        mixing,
        ["delta", "denominator", "tmix_strong", "tmix_weak", "tmix_observed"],
    )


# --- css-codes ---------------------------------------------------------------

CSS_BETAS = [1.0, 2.0]
CSS_CENTER = (0, 0)


def _css_build(seed, workdir):
    return {"steane7": model.steane7(), "toric": model.toric(2)}


def _css_code(label, checks):
    """Barrier, radius-1 partition and every site x flavor channel check."""
    grid = [
        (beta, site, flavor, f"{label}/beta={beta!r}/site={site}/{flavor}")
        for beta in CSS_BETAS
        for site in range(checks.n)
        for flavor in ("X", "Z")
    ]
    H = model.build_hamiltonian(checks)
    try:
        cert = model.barrier_subspace(checks, CSS_CENTER, 0, 1, H)
        part = subspace.partition_from_radius(cert.V, 1)
        rhos = {beta: model.gibbs_state(H, beta)[0] for beta in CSS_BETAS}
    except Exception as exc:  # recorded as failed points, like a CLI run
        keys = [f"{label}/barrier"] + [g[-1] for g in grid]
        return [Point(key, error=_reason(exc)) for key in keys]
    points = [
        Point(
            f"{label}/barrier",
            {
                "kappa": cert.kappa,
                "E_min_V": cert.E_min_V,
                "E_min_boundary": cert.E_min_boundary,
                "dim_A": float(part.A.dim),
                "dim_B1": float(part.B1.dim),
                "dim_B2": float(part.B2.dim),
                "dim_C": float(part.C.dim),
            },
        )
    ]
    for beta, site, flavor, key in grid:
        try:
            chan = sampler.css_metropolis_channel(H, beta, site, flavor)
            rep = bottleneck.verify_bottleneck_theorem(chan, rhos[beta], part)
        except Exception as exc:
            points.append(Point(key, error=_reason(exc)))
            continue
        if rep.lhs > rep.bound + bottleneck.THEOREM_SLACK:
            points.append(Point(key, error=f"lhs {rep.lhs!r} > bound {rep.bound!r}"))
            continue
        values = {"delta": rep.delta, "denominator": rep.denominator, "lhs": rep.lhs, "bound": rep.bound}
        points.append(Point(key, values))
    return points


def _css_run(inputs, out):
    return [p for label, checks in inputs.items() for p in _css_code(label, checks)]


# --- classical-glauber -------------------------------------------------------

GLAUBER_BETAS = [0.5, 1.0, 2.0, 3.0]


def _glauber_build(seed, workdir):
    return {
        "verify": _write_config(
            workdir,
            "verify-classical",
            {
                "model": "ising_ring",
                "n": 12,
                "betas": GLAUBER_BETAS,
                "partition": {"center": 0, "inner": 1, "width": 1},
            },
        )
    }


def _glauber_run(inputs, out):
    key = _beta_key("verify-classical")
    return _run_cli(
        "verify-classical",
        inputs["verify"],
        out,
        [key({"beta": b}) for b in GLAUBER_BETAS],
        key,
        ["lhs", "bound", "pi_A", "pi_B", "pi_C", "condition_max"],
    )


# --- perturbed-sweep ---------------------------------------------------------

SWEEP_NS = [4, 6, 8, 10]
SWEEP_BETA = 3.0
SWEEP_G = 0.01
TAIL_FIELDS = ("energy", "amplitude", "lemma_bound", "lambda")


def perturbation_seeds(seed):
    """Three distinct perturbation seeds drawn from the benchmark seed."""
    return sorted(random.Random(seed).sample(range(1 << 16), 3))


def _sweep_build(seed, workdir):
    seeds = perturbation_seeds(seed)
    return {
        "seeds": seeds,
        "tail": _write_config(
            workdir,
            "tail-check",
            {
                "model": "repetition",
                "n": 8,
                "eps1": 0.2,
                "eps2": 0.755,
                "gs": [SWEEP_G],
                "seeds": seeds,
            },
        ),
        "sweep": _write_config(
            workdir,
            "stability-sweep",
            {
                "model": "repetition",
                "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
                "betas": [SWEEP_BETA],
                "gs": [SWEEP_G],
                "ns": SWEEP_NS,
                "seeds": seeds,
            },
        ),
    }


def _tail_key(row):
    return f"tail-check/g={float(row['g'])!r}/seed={row['seed']}"


def _tail_fields(row):
    idx = row["eigen_index"]
    vals = {f"{idx}.{f}": float(row[f]) for f in TAIL_FIELDS}
    vals["block_residual"] = float(row["block_residual"])
    vals["delta_E"] = float(row["delta_E"])
    return vals


def _sweep_key(row):
    return (
        f"stability-sweep/n={row['n']}/beta={float(row['beta'])!r}"
        f"/g={float(row['g'])!r}/seed={row['seed']}"
    )


def _sweep_run(inputs, out):
    seeds = inputs["seeds"]
    points = _run_cli(
        "tail-check",
        inputs["tail"],
        out,
        [_tail_key({"g": SWEEP_G, "seed": s}) for s in seeds],
        _tail_key,
        _tail_fields,
    )
    rows = [
        {"n": n, "beta": SWEEP_BETA, "g": SWEEP_G, "seed": s}
        for n in SWEEP_NS
        for s in seeds
    ]
    points += _run_cli(
        "stability-sweep",
        inputs["sweep"],
        out,
        [_sweep_key(r) for r in rows],
        _sweep_key,
        ["kappa", "eps", "delta", "bound_chain", "lambda", "admissible"],
    )
    # the per-(beta, g) fit is part of the sweep's output; a sweep that
    # failed as a whole already marked every row point failed
    fit_key = f"stability-sweep/fit/beta={SWEEP_BETA!r},g={SWEEP_G!r}"
    fits = _read_json(os.path.join(out, "stability-sweep", "fit.json")) or {}
    fit = fits.get(f"beta={SWEEP_BETA!r},g={SWEEP_G!r}")
    if points[-1].error is not None:
        points.append(Point(fit_key, error=points[-1].error))
    elif fit is None:
        points.append(Point(fit_key, error="fit missing from fit.json"))
    else:
        points.append(
            Point(
                fit_key,
                {k: float(fit[k]) for k in ("a", "b", "r2", "points") if k in fit},
            )
        )
    return points


WORKLOADS = {
    "ring-quantum": Workload("ring-quantum", False, _ring_build, _ring_run),
    "css-codes": Workload("css-codes", False, _css_build, _css_run),
    "classical-glauber": Workload("classical-glauber", False, _glauber_build, _glauber_run),
    "perturbed-sweep": Workload("perturbed-sweep", True, _sweep_build, _sweep_run),
}
