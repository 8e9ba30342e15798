"""Config-driven experiment runner behind the ``bottlenecklab`` entry point.

SUBCOMMANDS holds each subcommand's help line, config schema and runner.
main validates the JSON config against the schema, and the runner holds the
model to its key bounds and the register to its route's bound before any
matrix is touched, then runs the grid and writes the artifacts into the
output directory. Every grid subcommand declares its report columns once and
its point function returns values in that order; ``report.csv`` and
``report.json`` are both written from those values, one row per entry
(``model-info`` writes JSON only). ``fit.json`` holds the per-(beta, g)
regression summaries of a sweep, and ``failures.json`` one entry per refused
or violated assertion with the exception class as its reason code and, for a
grid point, the point itself. Rows are emitted in grid order, never
completion order, so identical configs produce byte-identical files whatever
the worker count.

Exit status: 0 when every asserted inequality held, 1 when any grid point or
an allocation failed (see failures.json), 2 when the config was rejected up
front.
"""

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import numerics as tol
from .bottleneck import (
    DEFAULT_MIX_EPS,
    mixing_time_lower_bound,
    verify_bottleneck_theorem,
)
from .channel import evolve_sequence
from .errors import (
    BottleneckLabError,
    BoundViolated,
    ConditionViolated,
    ConfigInvalid,
    ModelNotFound,
)
from .markov import _GLAUBER_MAX_BITS, GlauberTable
from .model import (
    _LABEL_MAX_BITS,
    MODEL_KEYS,
    REGISTRY,
    SIZE_INDEXED,
    barrier_subspace,
    build_hamiltonian,
    build_model,
    checks_from_text,
    expansion_scan,
    gibbs_state,
    gibbs_weights,
    label_energies,
    perturb,
    random_local_perturbation,
)
from .numerics import DensityMatrix, label_weights
from .sampler import DEFAULT_ATTEMPT, sweep_schedule
from .stability import (
    fit_sweep,
    fits_to_json,
    plan_shell_width,
    shell_decomposition,
    sweep_grid,
    sweep_model,
    sweep_point,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from .subspace import basis_state_subspace, hamming_ball_subspace, partition_from_radius

# Report columns per grid subcommand; each point returns its values in
# this order, and report.csv and report.json are both written from them.
CLASSICAL_COLUMNS = tuple(
    "model,n,beta,laziness,lhs,bound,pi_A,pi_B,pi_C,condition_max".split(",")
)
QUANTUM_COLUMNS = tuple(
    "delta,numerator,denominator,lhs,bound,cond_residual,tmix_lower,"
    "beta,g,n,model,mode,r".split(",")
)
BARRIER_COLUMNS = tuple(
    "model,n,center_x,center_z,inner,boundary,dim_V,dim_boundary,"
    "E_min_V,E_min_boundary,kappa".split(",")
)
TAIL_COLUMNS = tuple(
    "model,n,eps1,eps2,g,seed,delta_E,eigen_index,energy,amplitude,"
    "lemma_bound,lambda,block_residual".split(",")
)
SWEEP_COLUMNS = tuple(
    "model,n,beta,g,seed,kappa,eps,delta,bound_chain,admissible,lambda".split(",")
)
MIXING_COLUMNS = tuple(
    "model,n,beta,r,delta,denominator,tmix_strong,tmix_weak,"
    "tmix_observed,horizon,mix_eps".split(",")
)


# --- config validation -------------------------------------------------------


def _fail(key, value, want):
    raise ConfigInvalid(f"key {key!r}: expected {want}, got {value!r}")


def _as_int(key, value, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, value, "an integer")
    if lo is not None and value < lo:
        _fail(key, value, f"an integer >= {lo}")
    if hi is not None and value > hi:
        _fail(key, value, f"an integer <= {hi}")
    return value


def _as_num(key, value, lo=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, value, "a number")
    if not abs(value) <= sys.float_info.max:
        _fail(key, value, "a finite number")
    if lo is not None and (value <= lo if strict else value < lo):
        _fail(key, value, f"a number {'>' if strict else '>='} {lo}")
    return float(value)


def _as_unit(key, value, hi=1.0):
    x = _as_num(key, value, lo=0.0, strict=True)
    if x > hi:
        _fail(key, value, f"a number in (0, {hi}]")
    return x


def _as_str(key, value, options=None):
    if not isinstance(value, str):
        _fail(key, value, "a string")
    if options is not None and value not in options:
        _fail(key, value, f"one of {sorted(options)}")
    return value


def _as_list(key, value, item, **kw):
    if not isinstance(value, list) or not value:
        _fail(key, value, "a non-empty list")
    return [item(f"{key}[{i}]", x, **kw) for i, x in enumerate(value)]


def _as_center(key, value):
    """Eigenstate label: a bare bitmask means a purely classical center."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (_as_int(key, value, lo=0), 0)
    if isinstance(value, list) and len(value) == 2:
        return (
            _as_int(f"{key}[0]", value[0], lo=0),
            _as_int(f"{key}[1]", value[1], lo=0),
        )
    _fail(key, value, "an integer or an [x, z] pair")


def _as_dict(key, value, schema, top=False):
    """An object checked against its schema {name: (required, conv)}:
    unknown entries and missing required ones are refused, then each
    entry is converted under its key path. With top, the object is the
    whole config of the subcommand named key, and each entry's path is
    its own name."""
    if not isinstance(value, dict):
        _fail(key, value, "an object")
    unknown = sorted(set(value) - set(schema))
    if unknown:
        where = f"unknown keys for {key}:" if top else f"key {key!r}: unknown entries"
        raise ConfigInvalid(f"{where} {unknown}")
    out = {}
    for name, (required, conv) in schema.items():
        if name in value:
            out[name] = conv(name if top else f"{key}.{name}", value[name])
        elif required:
            owner = f"{key} config" if top else f"key {key!r}"
            raise ConfigInvalid(f"{owner} is missing {name!r}")
    return out


# converters are partials, so each field's bounds are data
def _int_field(lo=None, hi=None):
    return functools.partial(_as_int, lo=lo, hi=hi)


def _num_field(lo=None, strict=False):
    return functools.partial(_as_num, lo=lo, strict=strict)


def _num_list(lo=None, strict=False):
    return functools.partial(_as_list, item=_as_num, lo=lo, strict=strict)


def _int_list(lo=None, hi=None):
    return functools.partial(_as_list, item=_as_int, lo=lo, hi=hi)


def _dict_field(schema, required=True):
    return (required, functools.partial(_as_dict, schema=schema))


# the keys of model.MODEL_KEYS, whose bounds build_model checks before any factory
_MODEL_PARAMS = {key: (False, _as_int) for keys in MODEL_KEYS.values() for key in keys}
_MODEL_SCHEMA = {"model": (False, _as_str), "checks_file": (False, _as_str), **_MODEL_PARAMS}
# the most sweeps of a schedule, and steps of a mixing-compare run
_MAX_STEPS = 1 << 20
# The largest register a route completes in 2.5 GB (see the README): the site
# moves of verify-quantum and mixing-compare, the dense eigensystem of
# tail-check, and a certified stability-sweep point (a dense one fits to 12).
# Ring verify-quantum, one beta, --jobs 1: n=20 takes 3.4-3.8 s and 963 MiB
# peak RSS, n=21 9.7 s and 1957 MiB, over 1 GB.
_SITE_MAX_BITS = 20
_TAIL_MAX_BITS = 12
_SWEEP_MAX_BITS = 13
# The most channel applications of a CSS point, which runs dense, up to n=8;
# 8-fold fewer per qubit past it (at the bound: 7.2-7.6 s on toric, n=8).
_DENSE_MAX_APPLICATIONS = 256


_BARRIER_SCHEMA = {
    "center": (True, _as_center),
    "inner": (True, _int_field(lo=0)),
    "boundary": (True, _int_field(lo=1)),
}


def _check_state(key, value, n):
    """A basis-state index must name a state of the n-bit register."""
    if value >= 1 << n:
        _fail(key, value, f"a state of the {n}-bit register (< {1 << n})")


def _check_center(key, center, n):
    """Both bitstrings of an [x, z] eigenstate label lie in the register."""
    for i, part in enumerate(center):
        _check_state(f"{key}[{i}]", part, n)


def _check_shell(key, total, n):
    """A radius past the register size n reaches nothing new: a barrier
    shell out there is empty, and a partition has no such shell."""
    if total > n:
        _fail(key, total, f"at most the register size {n}")


def _check_barrier(key, bar, n):
    """The barrier center lies in the register and its shell is non-empty."""
    _check_center(f"{key}.center", bar["center"], n)
    _check_shell(f"{key}.inner + {key}.boundary", bar["inner"] + bar["boundary"], n)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config {path!r} is not UTF-8 text: {exc}")
    except ValueError as exc:
        raise ConfigInvalid(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config top level must be a JSON object")
    return cfg


def _build_checks(vals, max_bits):
    """CheckFamily plus the short label used in report rows, its n held to
    the route's bound max_bits; a checks_file takes no model key."""
    has_model = "model" in vals
    has_file = "checks_file" in vals
    if has_model == has_file:
        raise ConfigInvalid("give exactly one of 'model' and 'checks_file'")
    params = {k: vals[k] for k in _MODEL_PARAMS if k in vals}
    if has_model:
        fam, label = build_model(vals["model"], params), vals["model"]
    elif params:
        raise ConfigInvalid(f"a checks_file config takes none of the model keys {list(params)}")
    else:
        path = vals["checks_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fam = checks_from_text(fh.read())
        except OSError as exc:
            raise ConfigInvalid(f"cannot read checks_file {path!r}: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigInvalid(f"checks_file {path!r} is not UTF-8 text: {exc}")
        except BottleneckLabError as exc:
            raise ConfigInvalid(f"checks_file {path!r} is invalid: {exc}")
        label = os.path.splitext(os.path.basename(path))[0]
    if fam.n > max_bits:
        raise ConfigInvalid(f"this subcommand holds at most {max_bits} bits, got n = {fam.n}")
    return fam, label


# --- output plumbing ---------------------------------------------------------


def _sanitize(obj):
    """Make a value strictly JSON-serializable; non-finite floats to repr."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _csv_field(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _emit(out, columns, rows):
    """report.csv and report.json from the same rows of column-ordered values."""
    lines = [",".join(columns)] + [",".join(map(_csv_field, row)) for row in rows]
    _write_text(os.path.join(out, "report.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out, "report.json"), [dict(zip(columns, row)) for row in rows])


def _failure_entry(exc, point=None):
    """failures.json entry: exception class as reason, its data, the point."""
    entry = {"reason": type(exc).__name__, "message": str(exc)}
    if point is not None:
        entry["point"] = point
    data = getattr(exc, "data", None)
    if data:
        entry["data"] = _sanitize(data)
    return entry


def _run_grid(out, columns, point, tasks, jobs):
    """Evaluate grid points, emit their rows, return (rows, failures).

    A point returns one row (a tuple of values in column order) or a list
    of rows; a package error or an allocation that fails becomes a
    failure entry naming the task.
    Rows keep task order, so the artifacts do not depend on the worker
    count.
    """

    def guarded(task):
        try:
            return point(task), None
        except (BottleneckLabError, MemoryError) as exc:
            return None, _failure_entry(exc, task)

    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(guarded, tasks))
    else:
        results = [guarded(t) for t in tasks]
    rows, failures = [], []
    for good, bad in results:
        if bad is not None:
            failures.append(bad)
        else:
            rows.extend(good if isinstance(good, list) else [good])
    _emit(out, columns, rows)
    return rows, failures


# --- subcommand pipelines ----------------------------------------------------


def _run_verify_classical(vals, out, jobs):
    checks, label = _build_checks(vals, _GLAUBER_MAX_BITS)
    if not checks.is_classical:
        raise ConfigInvalid("verify-classical needs a classical (Z-only) model")
    laziness = vals.get("laziness", 0.0)
    if laziness >= 1:
        _fail("laziness", laziness, "a number in [0, 1)")
    spec = vals["partition"]
    _check_state("partition.center", spec["center"], checks.n)
    if spec["inner"] + 2 * spec["width"] >= checks.n:
        raise ConfigInvalid(
            f"partition inner + 2*width = {spec['inner'] + 2 * spec['width']} "
            f"reaches every state of the {checks.n}-bit register, so C is empty"
        )
    energies = label_energies(checks)
    center = basis_state_subspace(checks.n, [spec["center"]])
    part = partition_from_radius(center, spec["width"], spec["inner"])
    # the moves, uphill jumps and forbidden positions of every beta's chain
    table = GlauberTable(energies, part.labels[1])

    def point(task):
        pi, _ = gibbs_weights(energies, task["beta"])
        rep = table.report(task["beta"], laziness, pi)
        return (
            label,
            checks.n,
            task["beta"],
            laziness,
            rep.lhs,
            rep.bound,
            rep.pi_A,
            rep.pi_B,
            rep.pi_C,
            rep.condition_max,
        )

    tasks = [{"model": label, "beta": b} for b in vals["betas"]]
    return _run_grid(out, CLASSICAL_COLUMNS, point, tasks, jobs)[1]


# the keys verify-quantum and mixing-compare share: a model, a sampler
# schedule, the subspace ball and the partition radius
_QUANTUM_SCHEMA = {
    **_MODEL_SCHEMA,
    "sites": (False, _int_list(lo=0)),
    "flavors": (False, functools.partial(_as_list, item=_as_str, options=("X", "Z"))),
    "repetitions": (False, _int_field(1, _MAX_STEPS)),
    "attempt_prob": (False, functools.partial(_as_unit, hi=1.0)),
    "mix_eps": (False, functools.partial(_as_unit, hi=0.5)),
    "subspace": _dict_field(
        {"centers": (True, _int_list(lo=0)), "radius": (True, _int_field(lo=0))}
    ),
    "partition_radius": (True, _int_field(lo=1)),
}


def _quantum_setup(vals):
    """(checks, label, H, V) of validated values, V the subspace ball."""
    checks, label = _build_checks(vals, _SITE_MAX_BITS)
    sub = vals["subspace"]
    for i, c in enumerate(sub["centers"]):
        _check_state(f"subspace.centers[{i}]", c, checks.n)
    for i, site in enumerate(vals.get("sites", ())):
        if site >= checks.n:
            _fail(f"sites[{i}]", site, f"a qubit of the {checks.n}-qubit register")
    _check_shell("partition_radius", vals["partition_radius"], checks.n)
    if not checks.is_classical:
        if "flavors" not in vals:
            raise ConfigInvalid('models with X checks need "flavors" (e.g. ["X"])')
        most = _DENSE_MAX_APPLICATIONS >> 3 * max(checks.n - 8, 0)
        sweep = len(vals.get("sites", range(checks.n))) * len(vals["flavors"])
        if (got := vals.get("repetitions", 1) * sweep + vals.get("horizon", 0)) > most:
            _fail("repetitions x sites x flavors + horizon", got, f"at most {most} at n = {checks.n} (dense CSS)")
    H = build_hamiltonian(checks)
    V = hamming_ball_subspace(checks.n, sub["centers"], sub["radius"])
    return checks, label, H, V


def _schedule_for(vals, checks, H, beta):
    return sweep_schedule(
        H,
        beta,
        vals.get("sites", list(range(checks.n))),
        flavors=vals.get("flavors"),
        repetitions=vals.get("repetitions", 1),
        attempt_prob=vals.get("attempt_prob", DEFAULT_ATTEMPT),
    )


def _run_verify_quantum(vals, out, jobs):
    checks, label, H, V = _quantum_setup(vals)
    n = checks.n
    r = vals["partition_radius"]
    eps = vals.get("mix_eps", DEFAULT_MIX_EPS)

    def point(task):
        beta = task["beta"]
        rho, _, _ = gibbs_state(H, beta)
        sched = _schedule_for(vals, checks, H, beta)
        rep = verify_bottleneck_theorem(sched, rho, (V, r), mix_eps=eps)
        return (
            rep.delta,
            rep.numerator,
            rep.denominator,
            rep.lhs,
            rep.bound,
            rep.condition_residual,
            rep.tmix_lower,
            beta,
            0.0,
            n,
            label,
            rep.mode,
            r,
        )

    tasks = [{"model": label, "beta": b} for b in vals["betas"]]
    return _run_grid(out, QUANTUM_COLUMNS, point, tasks, jobs)[1]


def _certificate_values(cert):
    """The barrier certificate's entries, in BARRIER_COLUMNS[6:] order."""
    return (
        cert.V.dim,
        cert.boundary.dim,
        cert.E_min_V,
        cert.E_min_boundary,
        cert.kappa,
    )


def _run_barrier_scan(vals, out, jobs):
    checks, label = _build_checks(vals, _LABEL_MAX_BITS)
    center = vals["center"]
    inner = vals["inner"]
    _check_center("center", center, checks.n)
    _check_shell("inner + max(radii)", inner + max(vals["radii"]), checks.n)
    H = build_hamiltonian(checks)

    def point(task):
        cert = barrier_subspace(checks, center, inner, task["boundary"], H)
        return (
            label,
            checks.n,
            center[0],
            center[1],
            inner,
            task["boundary"],
            *_certificate_values(cert),
        )

    tasks = [{"model": label, "boundary": b} for b in vals["radii"]]
    return _run_grid(out, BARRIER_COLUMNS, point, tasks, jobs)[1]


def _run_tail_check(vals, out, jobs):
    if vals["eps2"] <= vals["eps1"]:
        raise ConfigInvalid("need eps2 > eps1")
    checks, label = _build_checks(vals, _TAIL_MAX_BITS)
    H0 = build_hamiltonian(checks)
    n = checks.n
    eps1, eps2 = vals["eps1"], vals["eps2"]

    # the shells depend on g alone; a failing g is not cached, so each of
    # its points still records its own failure
    @functools.lru_cache(maxsize=None)
    def shells_at(g):
        delta_E = vals.get("delta_E") or plan_shell_width(H0, eps1, eps2, g)
        return delta_E, shell_decomposition(H0, eps1, eps2, g, delta_E)

    def point(task):
        g, seed = task["g"], task["seed"]
        delta_E, shells = shells_at(g)
        V = random_local_perturbation(n, g, seed)
        H = perturb(H0, V)
        block = verify_block_tridiagonal(V, shells)
        if not block.passes:
            raise ConditionViolated(
                f"shell coupling residual {block.residual:.3e} "
                f"at pair {block.worst_pair}"
            )
        return [
            (
                label,
                n,
                eps1,
                eps2,
                g,
                seed,
                delta_E,
                rec.eigen_index,
                rec.energy,
                rec.amplitude,
                rec.lemma_bound,
                rec.lambda_,
                block.residual,
            )
            for rec in tail_amplitudes(H, H0, shells)
        ]

    tasks = [
        {"model": label, "g": g, "seed": s} for g in vals["gs"] for s in vals["seeds"]
    ]
    return _run_grid(out, TAIL_COLUMNS, point, tasks, jobs)[1]


def _run_stability_sweep(vals, out, jobs):
    name = vals["model"]
    if name in REGISTRY and name not in SIZE_INDEXED:
        raise ConfigInvalid(
            f"stability-sweep builds the model at each n; {name!r} is not built "
            f"from n alone (use one of {list(SIZE_INDEXED)})"
        )
    bar = vals["barrier"]
    _check_barrier("barrier", bar, min(vals["ns"]))
    barrier = (bar["center"], bar["inner"], bar["boundary"])
    per_n = {n: sweep_model(name, n, barrier) for n in vals["ns"]}

    def point(task):
        H0, cert = per_n[task["n"]]
        return sweep_point(**task, H0=H0, cert=cert)

    betas, gs = vals["betas"], vals["gs"]
    tasks = sweep_grid(name, betas, gs, vals["ns"], vals["seeds"])
    rows, failures = _run_grid(out, SWEEP_COLUMNS, point, tasks, jobs)
    try:
        fits = fit_sweep(rows, betas, gs)
    except BoundViolated as exc:
        return failures + [_failure_entry(exc)]
    _write_text(os.path.join(out, "fit.json"), fits_to_json(fits) + "\n")
    return failures


def _run_mixing_compare(vals, out, jobs):
    checks, label, H, V = _quantum_setup(vals)
    n = checks.n
    r = vals["partition_radius"]
    eps = vals.get("mix_eps", DEFAULT_MIX_EPS)
    beta = vals["beta"]
    horizon = vals["horizon"]

    def point(task):
        rho, _, _ = gibbs_state(H, beta)
        sched = _schedule_for(vals, checks, H, beta)
        # Explicit partition: the Kraus condition is verified numerically,
        # so the radius may sit below the crude locality bound when the
        # moves genuinely cannot jump the buffer.
        part = partition_from_radius(V, r)
        rep = verify_bottleneck_theorem(sched, rho, part, mix_eps=eps)
        strong, weak = mixing_time_lower_bound(rep, eps)
        start = _conditioned_start(rho, part.A)
        observed = math.inf
        for t, dist in enumerate(evolve_sequence(sched, start, rho, T=horizon)):
            if dist / 2 <= eps:
                observed = float(t)
                break
        if observed < strong - tol.MIXING_BOUND_SLACK:
            raise BoundViolated(
                f"observed mixing at step {observed!r} beats the lower "
                f"bound {strong!r}",
                observed=observed,
                bound=strong,
            )
        return (
            label,
            n,
            beta,
            r,
            rep.delta,
            rep.denominator,
            strong,
            weak,
            observed,
            horizon,
            eps,
        )

    tasks = [{"model": label, "beta": beta}]
    return _run_grid(out, MIXING_COLUMNS, point, tasks, jobs)[1]


def _conditioned_start(rho, A):
    """rho conditioned on A, P_A rho P_A / tr(P_A rho). When rho carries
    labels over the basis W of A, that is the label state p 1_A / sum,
    with no matrix formed; otherwise (a CSS state against a Hamming ball)
    it is the dense product."""
    W, in_A = A.labels
    p = label_weights(rho, W)
    if p is not None:
        return DensityMatrix.from_labels(W, np.where(in_A, p, 0.0) / p[in_A].sum())
    P_A = A.projector()
    start = P_A @ rho.mat @ P_A
    return DensityMatrix(start / np.real(np.trace(start)), rho.n)


def _run_model_info(vals, out, jobs):
    checks, label = _build_checks(vals, _LABEL_MAX_BITS)
    if "barrier" in vals:
        _check_barrier("barrier", vals["barrier"], checks.n)
    H = build_hamiltonian(checks)
    w = label_energies(checks)
    info = {
        "model": label,
        "n": checks.n,
        "classical": bool(checks.is_classical),
        "z_checks": len(checks.z_checks),
        "x_checks": len(checks.x_checks),
        "w0": H.w0,
        "w1": H.w1,
        "dim": 1 << checks.n,
        "ground_energy": float(w.min()),
        "max_energy": float(w.max()),
        "ground_degeneracy": int(np.count_nonzero(w < w.min() + tol.DEGENERACY_TOL)),
    }
    if "beta" in vals:
        _, logZ, F = gibbs_state(H, vals["beta"])
        info["beta"] = vals["beta"]
        info["log_Z"] = logZ
        info["free_energy"] = F
    if "expansion_delta" in vals:
        gamma, witness = expansion_scan(checks, vals["expansion_delta"])
        info["expansion_gamma"] = gamma
        info["expansion_witness"] = witness
    if "barrier" in vals:
        bar = vals["barrier"]
        cert = barrier_subspace(checks, bar["center"], bar["inner"], bar["boundary"], H)
        info["barrier"] = dict(zip(BARRIER_COLUMNS[6:], _certificate_values(cert)))
    _write_json(os.path.join(out, "report.json"), info)
    return []


# name: (help line, config schema, runner taking the validated values)
SUBCOMMANDS = {
    "verify-classical": (
        "classical bottleneck bound for Glauber chains",
        {
            **_MODEL_SCHEMA,
            "betas": (True, _num_list(lo=0.0)),
            "partition": _dict_field(
                {
                    "center": (True, _int_field(lo=0)),
                    "inner": (True, _int_field(lo=0)),
                    "width": (True, _int_field(lo=1)),
                }
            ),
            "laziness": (False, _num_field(lo=0.0)),
        },
        _run_verify_classical,
    ),
    "verify-quantum": (
        "quantum bottleneck bound for Gibbs sampler schedules",
        {**_QUANTUM_SCHEMA, "betas": (True, _num_list(lo=0.0))},
        _run_verify_quantum,
    ),
    "barrier-scan": (
        "energy barrier certificates over boundary radii",
        {
            **_MODEL_SCHEMA,
            "center": (True, _as_center),
            "inner": (True, _int_field(lo=0)),
            "radii": (True, _int_list(lo=1)),
        },
        _run_barrier_scan,
    ),
    "tail-check": (
        "eigenstate tail amplitudes against the shell decay bound",
        {
            **_MODEL_SCHEMA,
            "eps1": (True, _num_field(lo=0.0, strict=True)),
            "eps2": (True, _num_field(lo=0.0, strict=True)),
            "gs": (True, _num_list(lo=0.0, strict=True)),
            "seeds": (True, _int_list(lo=0)),
            "delta_E": (False, _num_field(lo=0.0, strict=True)),
        },
        _run_tail_check,
    ),
    "stability-sweep": (
        "bottleneck ratio across a (beta, g, n, seed) grid",
        {
            "model": (True, _as_str),
            "barrier": _dict_field(_BARRIER_SCHEMA),
            "betas": (True, _num_list(lo=0.0)),
            "gs": (True, _num_list(lo=0.0)),
            "ns": (True, _int_list(1, _SWEEP_MAX_BITS)),
            "seeds": (True, _int_list(lo=0)),
        },
        _run_stability_sweep,
    ),
    "mixing-compare": (
        "observed mixing step against the theorem lower bounds",
        {
            **_QUANTUM_SCHEMA,
            "beta": (True, _num_field(lo=0.0)),
            "horizon": (True, _int_field(1, _MAX_STEPS)),
        },
        _run_mixing_compare,
    ),
    "model-info": (
        "spectrum, check counts and optional barrier summary",
        {
            **_MODEL_SCHEMA,
            "beta": (False, _num_field(lo=0.0)),
            "expansion_delta": (False, functools.partial(_as_unit, hi=1.0)),
            "barrier": _dict_field(_BARRIER_SCHEMA, required=False),
        },
        _run_model_info,
    ),
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: building it costs
    about 25 times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="bottlenecklab",
        description="Bottleneck-ratio experiment pipelines with asserted bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name, (help_line, _, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory, created if absent")
        p.add_argument("--jobs", type=int, default=1, help="worker threads")
    return parser


def main(argv=None):
    """Entry point. Returns the process exit status."""
    args = _parser().parse_args(argv)
    out = args.out
    os.makedirs(out, exist_ok=True)
    try:
        if args.jobs < 1:
            raise ConfigInvalid(f"jobs must be >= 1, got {args.jobs}")
        _, schema, runner = SUBCOMMANDS[args.subcommand]
        vals = _as_dict(args.subcommand, _load_config(args.config), schema, top=True)
        failures = runner(vals, out, args.jobs)
    except (BottleneckLabError, MemoryError) as exc:
        rejected = isinstance(exc, (ConfigInvalid, ModelNotFound))
        _write_json(os.path.join(out, "failures.json"), [_failure_entry(exc)])
        print(f"{'config rejected' if rejected else 'run failed'}: {exc}", file=sys.stderr)
        return 2 if rejected else 1
    _write_json(os.path.join(out, "failures.json"), failures)
    status = "ok" if not failures else f"{len(failures)} failures"
    print(f"{args.subcommand}: {status} -> {out}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
