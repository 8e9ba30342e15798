"""Config-driven experiment runner behind the ``bottlenecklab`` entry point.

Each subcommand wires one pipeline end to end: read a JSON config, validate
it completely before any matrix is touched, run the grid, and write the
artifacts into the output directory. ``report.csv`` and ``report.json``
carry one entry per grid point (``model-info`` writes JSON only),
``fit.json`` the per-(beta, g) regression summaries of a sweep, and
``failures.json`` one entry per refused or violated assertion with the
exception class as its reason code. Rows are emitted in grid order, never
completion order, so identical configs produce byte-identical files whatever
the worker count.

Exit status: 0 when every asserted inequality held, 1 when any grid point
failed (see failures.json), 2 when the config was rejected up front.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bottleneck import (
    DEFAULT_MIX_EPS,
    REPORT_COLUMNS,
    mixing_time_lower_bound,
    report_csv_row,
    report_json,
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
from .markov import (
    classical_bottleneck_report,
    glauber_chain,
    hamming_state_partition,
)
from .model import (
    REGISTRY,
    SIZE_INDEXED,
    barrier_subspace,
    build_hamiltonian,
    checks_from_text,
    classical_energies,
    expansion_scan,
    gibbs_state,
    perturb,
    random_local_perturbation,
)
from .numerics import DensityMatrix
from .sampler import DEFAULT_ATTEMPT, sweep_schedule
from .stability import (
    fits_to_json,
    plan_shell_width,
    shell_decomposition,
    stability_sweep,
    sweep_to_csv,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from .subspace import hamming_ball_subspace, partition_from_radius

CLASSICAL_COLUMNS = "model,n,beta,laziness,lhs,bound,pi_A,pi_B,pi_C,condition_max"
BARRIER_COLUMNS = (
    "model,n,center_x,center_z,inner,boundary,dim_V,dim_boundary,"
    "E_min_V,E_min_boundary,kappa"
)
TAIL_COLUMNS = (
    "model,n,eps1,eps2,g,seed,delta_E,eigen_index,energy,amplitude,"
    "lemma_bound,lambda,block_residual"
)
MIXING_COLUMNS = (
    "model,n,beta,r,delta,denominator,tmix_strong,tmix_weak,"
    "tmix_observed,horizon,mix_eps"
)


# --- config validation -------------------------------------------------------


def _fail(key, value, want):
    raise ConfigInvalid(f"key {key!r}: expected {want}, got {value!r}")


def _as_int(key, value, lo=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, value, "an integer")
    if lo is not None and value < lo:
        _fail(key, value, f"an integer >= {lo}")
    return value


def _as_num(key, value, lo=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, value, "a number")
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


def _as_dict(key, value, schema):
    if not isinstance(value, dict):
        _fail(key, value, "an object")
    unknown = sorted(set(value) - set(schema))
    if unknown:
        raise ConfigInvalid(f"key {key!r}: unknown entries {unknown}")
    out = {}
    for name, (required, conv) in schema.items():
        if name not in value:
            if required:
                raise ConfigInvalid(f"key {key!r} is missing {name!r}")
            continue
        out[name] = conv(f"{key}.{name}", value[name])
    return out


def _int_field(lo=None):
    return lambda k, v: _as_int(k, v, lo=lo)


def _num_field(lo=None, strict=False):
    return lambda k, v: _as_num(k, v, lo=lo, strict=strict)


def _num_list(lo=None, strict=False):
    return lambda k, v: _as_list(k, v, _as_num, lo=lo, strict=strict)


def _int_list(lo=None):
    return lambda k, v: _as_list(k, v, _as_int, lo=lo)


def _validate(cfg, schema, subcommand):
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ConfigInvalid(f"unknown keys for {subcommand}: {unknown}")
    out = {}
    for key, (required, conv) in schema.items():
        if key not in cfg:
            if required:
                raise ConfigInvalid(f"{subcommand} config is missing {key!r}")
            continue
        out[key] = conv(key, cfg[key])
    return out


def _model_schema():
    return {
        "model": (False, _as_str),
        "checks_file": (False, _as_str),
        "n": (False, _int_field(lo=1)),
        "L": (False, _int_field(lo=1)),
        "checks": (False, _int_field(lo=1)),
        "model_seed": (False, _int_field(lo=0)),
    }


def _subspace_field():
    return (
        True,
        lambda k, v: _as_dict(
            k,
            v,
            {
                "centers": (True, _int_list(lo=0)),
                "radius": (True, _int_field(lo=0)),
            },
        ),
    )


def _barrier_field(required=True):
    return (
        required,
        lambda k, v: _as_dict(
            k,
            v,
            {
                "center": (True, _as_center),
                "inner": (True, _int_field(lo=0)),
                "boundary": (True, _int_field(lo=1)),
            },
        ),
    )


def _check_state(key, value, n):
    """A basis-state index must name a state of the n-bit register."""
    if value >= 1 << n:
        _fail(key, value, f"a state of the {n}-bit register (< {1 << n})")


def _check_center(key, center, n):
    """Both bitstrings of an [x, z] eigenstate label lie in the register."""
    for i, part in enumerate(center):
        _check_state(f"{key}[{i}]", part, n)


def _check_centers(sub, n):
    for i, c in enumerate(sub["centers"]):
        _check_state(f"subspace.centers[{i}]", c, n)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config top level must be a JSON object")
    return cfg


def _build_checks(vals):
    """CheckFamily plus the short label used in report rows."""
    has_model = "model" in vals
    has_file = "checks_file" in vals
    if has_model == has_file:
        raise ConfigInvalid("give exactly one of 'model' and 'checks_file'")
    if has_file:
        path = vals["checks_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read checks_file {path!r}: {exc}")
        try:
            fam = checks_from_text(text)
        except BottleneckLabError as exc:
            raise ConfigInvalid(f"checks_file {path!r} is invalid: {exc}")
        return fam, os.path.splitext(os.path.basename(path))[0]
    name = vals["model"]
    if name not in REGISTRY:
        raise ModelNotFound(f"unknown model {name!r}; registry has {sorted(REGISTRY)}")
    if name == "steane7":
        if vals.get("n", 7) != 7:
            raise ConfigInvalid("steane7 is fixed at n = 7")
        return REGISTRY[name](), name
    if name == "toric":
        return REGISTRY[name](vals.get("L", 2)), name
    if name == "random_ldpc":
        for key in ("n", "checks", "model_seed"):
            if key not in vals:
                raise ConfigInvalid(f"random_ldpc needs {key!r}")
        return REGISTRY[name](vals["n"], vals["checks"], vals["model_seed"]), name
    if "n" not in vals:
        raise ConfigInvalid(f"model {name!r} needs 'n'")
    return REGISTRY[name](vals["n"]), name


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


def _csv_line(fields):
    return ",".join(repr(f) if isinstance(f, float) else str(f) for f in fields)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _emit(out, header, rows, jrows):
    _write_text(os.path.join(out, "report.csv"), "\n".join([header] + rows) + "\n")
    _write_json(os.path.join(out, "report.json"), jrows)


def _run_grid(point, tasks, jobs):
    """Evaluate grid points in order; package errors become failure entries.

    Every point returns (csv, json) where either side may be a list when
    one grid point yields several report rows. Results keep task order so
    the artifacts do not depend on the worker count.
    """

    def guarded(task):
        try:
            return point(task), None
        except BottleneckLabError as exc:
            entry = {
                "reason": type(exc).__name__,
                "message": str(exc),
                "point": task,
            }
            data = getattr(exc, "data", None)
            if data:
                entry["data"] = _sanitize(data)
            return None, entry

    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(guarded, tasks))
    else:
        results = [guarded(t) for t in tasks]
    rows, jrows, failures = [], [], []
    for good, bad in results:
        if bad is not None:
            failures.append(bad)
            continue
        csv_part, json_part = good
        rows.extend(csv_part if isinstance(csv_part, list) else [csv_part])
        jrows.extend(json_part if isinstance(json_part, list) else [json_part])
    return rows, jrows, failures


# --- subcommand pipelines ----------------------------------------------------


def _run_verify_classical(cfg, out, jobs):
    schema = {
        **_model_schema(),
        "betas": (True, _num_list(lo=0.0)),
        "partition": (
            True,
            lambda k, v: _as_dict(
                k,
                v,
                {
                    "center": (True, _int_field(lo=0)),
                    "inner": (True, _int_field(lo=0)),
                    "width": (True, _int_field(lo=1)),
                },
            ),
        ),
        "laziness": (False, _num_field(lo=0.0)),
    }
    vals = _validate(cfg, schema, "verify-classical")
    checks, label = _build_checks(vals)
    if not checks.is_classical:
        raise ConfigInvalid("verify-classical needs a classical (Z-only) model")
    laziness = vals.get("laziness", 0.0)
    spec = vals["partition"]
    _check_state("partition.center", spec["center"], checks.n)
    if spec["inner"] + 2 * spec["width"] >= checks.n:
        raise ConfigInvalid(
            f"partition inner + 2*width = {spec['inner'] + 2 * spec['width']} "
            f"reaches every state of the {checks.n}-bit register, so C is empty"
        )
    energies = classical_energies(checks)
    part = hamming_state_partition(
        checks.n, spec["center"], spec["inner"], spec["width"]
    )

    def point(task):
        chain = glauber_chain(energies, task["beta"], laziness)
        rep = classical_bottleneck_report(chain, part)
        payload = {
            "model": label,
            "n": checks.n,
            "beta": task["beta"],
            "laziness": laziness,
            "lhs": rep.lhs,
            "bound": rep.bound,
            "pi_A": rep.pi_A,
            "pi_B": rep.pi_B,
            "pi_C": rep.pi_C,
            "condition_max": rep.condition_max,
        }
        fields = [
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
        ]
        return _csv_line(fields), payload

    tasks = [{"model": label, "beta": b} for b in vals["betas"]]
    rows, jrows, failures = _run_grid(point, tasks, jobs)
    _emit(out, CLASSICAL_COLUMNS, rows, jrows)
    return failures


def _quantum_schedule_keys():
    return {
        "sites": (False, _int_list(lo=0)),
        "flavors": (False, lambda k, v: _as_list(k, v, _as_str, options=("X", "Z"))),
        "repetitions": (False, _int_field(lo=1)),
        "attempt_prob": (False, lambda k, v: _as_unit(k, v)),
        "mix_eps": (False, lambda k, v: _as_unit(k, v, hi=0.5)),
    }


def _check_flavors(vals, checks):
    if not checks.is_classical and "flavors" not in vals:
        raise ConfigInvalid('models with X checks need "flavors" (e.g. ["X"])')


def _schedule_for(vals, checks, H, beta):
    return sweep_schedule(
        H,
        beta,
        vals.get("sites", list(range(checks.n))),
        flavors=vals.get("flavors"),
        repetitions=vals.get("repetitions", 1),
        attempt_prob=vals.get("attempt_prob", DEFAULT_ATTEMPT),
    )


def _run_verify_quantum(cfg, out, jobs):
    schema = {
        **_model_schema(),
        **_quantum_schedule_keys(),
        "betas": (True, _num_list(lo=0.0)),
        "subspace": _subspace_field(),
        "partition_radius": (True, _int_field(lo=1)),
    }
    vals = _validate(cfg, schema, "verify-quantum")
    checks, label = _build_checks(vals)
    n = checks.n
    sub = vals["subspace"]
    _check_centers(sub, n)
    _check_flavors(vals, checks)
    H = build_hamiltonian(checks)
    V = hamming_ball_subspace(n, sub["centers"], sub["radius"])
    r = vals["partition_radius"]
    eps = vals.get("mix_eps", DEFAULT_MIX_EPS)

    def point(task):
        beta = task["beta"]
        rho, _, _ = gibbs_state(H, beta)
        sched = _schedule_for(vals, checks, H, beta)
        rep = verify_bottleneck_theorem(sched, rho, (V, r), mix_eps=eps)
        return (
            report_csv_row(rep, beta=beta, g=0.0, n=n, model=label, r=r),
            report_json(rep, beta=beta, n=n, model=label, r=r),
        )

    tasks = [{"model": label, "beta": b} for b in vals["betas"]]
    rows, jrows, failures = _run_grid(point, tasks, jobs)
    _emit(out, ",".join(REPORT_COLUMNS), rows, jrows)
    return failures


def _run_barrier_scan(cfg, out, jobs):
    schema = {
        **_model_schema(),
        "center": (True, _as_center),
        "inner": (True, _int_field(lo=0)),
        "radii": (True, _int_list(lo=1)),
    }
    vals = _validate(cfg, schema, "barrier-scan")
    checks, label = _build_checks(vals)
    _check_center("center", vals["center"], checks.n)
    H = build_hamiltonian(checks)
    center = vals["center"]
    inner = vals["inner"]

    def point(task):
        cert = barrier_subspace(checks, center, inner, task["boundary"], H)
        payload = {
            "model": label,
            "n": checks.n,
            "center_x": center[0],
            "center_z": center[1],
            "inner": inner,
            "boundary": task["boundary"],
            "dim_V": cert.V.dim,
            "dim_boundary": cert.boundary.dim,
            "E_min_V": cert.E_min_V,
            "E_min_boundary": cert.E_min_boundary,
            "kappa": cert.kappa,
        }
        fields = [
            label,
            checks.n,
            center[0],
            center[1],
            inner,
            task["boundary"],
            cert.V.dim,
            cert.boundary.dim,
            cert.E_min_V,
            cert.E_min_boundary,
            cert.kappa,
        ]
        return _csv_line(fields), payload

    tasks = [{"model": label, "boundary": b} for b in vals["radii"]]
    rows, jrows, failures = _run_grid(point, tasks, jobs)
    _emit(out, BARRIER_COLUMNS, rows, jrows)
    return failures


def _run_tail_check(cfg, out, jobs):
    schema = {
        **_model_schema(),
        "eps1": (True, _num_field(lo=0.0, strict=True)),
        "eps2": (True, _num_field(lo=0.0, strict=True)),
        "gs": (True, _num_list(lo=0.0, strict=True)),
        "seeds": (True, _int_list(lo=0)),
        "delta_E": (False, _num_field(lo=0.0, strict=True)),
    }
    vals = _validate(cfg, schema, "tail-check")
    if vals["eps2"] <= vals["eps1"]:
        raise ConfigInvalid("need eps2 > eps1")
    checks, label = _build_checks(vals)
    H0 = build_hamiltonian(checks)
    n = checks.n
    eps1, eps2 = vals["eps1"], vals["eps2"]
    supports = tuple((i,) for i in range(n))

    def point(task):
        g, seed = task["g"], task["seed"]
        delta_E = vals.get("delta_E") or plan_shell_width(H0, eps1, eps2, g)
        V = random_local_perturbation(n, supports, g, seed)
        H = perturb(H0, V)
        shells = shell_decomposition(H0, eps1, eps2, g, delta_E)
        block = verify_block_tridiagonal(V, shells)
        if not block.passes:
            raise ConditionViolated(
                f"shell coupling residual {block.residual:.3e} "
                f"at pair {block.worst_pair}"
            )
        rows, jrows = [], []
        for rec in tail_amplitudes(H, H0, eps1, eps2, g, delta_E):
            payload = {
                "model": label,
                "n": n,
                "eps1": eps1,
                "eps2": eps2,
                "g": g,
                "seed": seed,
                "delta_E": delta_E,
                "eigen_index": rec.eigen_index,
                "energy": rec.energy,
                "amplitude": rec.amplitude,
                "lemma_bound": rec.lemma_bound,
                "lambda": rec.lambda_,
                "block_residual": block.residual,
            }
            fields = [
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
            ]
            rows.append(_csv_line(fields))
            jrows.append(payload)
        return rows, jrows

    tasks = [
        {"model": label, "g": g, "seed": s} for g in vals["gs"] for s in vals["seeds"]
    ]
    rows, jrows, failures = _run_grid(point, tasks, jobs)
    _emit(out, TAIL_COLUMNS, rows, jrows)
    return failures


def _run_stability_sweep(cfg, out, jobs):
    schema = {
        "model": (True, _as_str),
        "barrier": _barrier_field(),
        "betas": (True, _num_list(lo=0.0)),
        "gs": (True, _num_list(lo=0.0)),
        "ns": (True, _int_list(lo=1)),
        "seeds": (True, _int_list(lo=0)),
    }
    vals = _validate(cfg, schema, "stability-sweep")
    name = vals["model"]
    if name in REGISTRY and name not in SIZE_INDEXED:
        raise ConfigInvalid(
            f"stability-sweep builds the model at each n; {name!r} is not built "
            f"from n alone (use one of {list(SIZE_INDEXED)})"
        )
    bar = vals["barrier"]
    _check_center("barrier.center", bar["center"], min(vals["ns"]))
    result = stability_sweep(
        name,
        (bar["center"], bar["inner"], bar["boundary"]),
        vals["betas"],
        vals["gs"],
        vals["ns"],
        vals["seeds"],
        jobs=jobs,
    )
    _write_text(os.path.join(out, "report.csv"), sweep_to_csv(result))
    _write_text(os.path.join(out, "fit.json"), fits_to_json(result) + "\n")
    jrows = [
        {
            "model": row.model,
            "n": row.n,
            "beta": row.beta,
            "g": row.g,
            "seed": row.seed,
            "kappa": row.kappa,
            "eps": row.eps,
            "delta": row.delta,
            "bound_chain": row.bound_chain,
            "admissible": row.admissible,
            "lambda": row.lambda_kappa,
        }
        for row in result.rows
    ]
    _write_json(os.path.join(out, "report.json"), jrows)
    return []


def _run_mixing_compare(cfg, out, jobs):
    schema = {
        **_model_schema(),
        **_quantum_schedule_keys(),
        "beta": (True, _num_field(lo=0.0)),
        "subspace": _subspace_field(),
        "partition_radius": (True, _int_field(lo=1)),
        "horizon": (True, _int_field(lo=1)),
    }
    vals = _validate(cfg, schema, "mixing-compare")
    checks, label = _build_checks(vals)
    n = checks.n
    sub = vals["subspace"]
    _check_centers(sub, n)
    _check_flavors(vals, checks)
    H = build_hamiltonian(checks)
    V = hamming_ball_subspace(n, sub["centers"], sub["radius"])
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
        P_A = part.A.projector()
        strong, weak = mixing_time_lower_bound(rep, rho, P_A, eps)
        start = P_A @ rho.mat @ P_A
        start = DensityMatrix(start / np.real(np.trace(start)), n)
        observed = math.inf
        for t, dist in enumerate(evolve_sequence(sched, start, rho, T=horizon)):
            if dist / 2 <= eps:
                observed = float(t)
                break
        if observed < strong - 1e-9:
            raise BoundViolated(
                f"observed mixing at step {observed!r} beats the lower "
                f"bound {strong!r}",
                observed=observed,
                bound=strong,
            )
        payload = {
            "model": label,
            "n": n,
            "beta": beta,
            "r": r,
            "delta": rep.delta,
            "denominator": rep.denominator,
            "tmix_strong": strong,
            "tmix_weak": weak,
            "tmix_observed": observed,
            "horizon": horizon,
            "mix_eps": eps,
        }
        fields = [
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
        ]
        return _csv_line(fields), payload

    tasks = [{"model": label, "beta": beta}]
    rows, jrows, failures = _run_grid(point, tasks, jobs)
    _emit(out, MIXING_COLUMNS, rows, jrows)
    return failures


def _run_model_info(cfg, out, jobs):
    schema = {
        **_model_schema(),
        "beta": (False, _num_field(lo=0.0)),
        "expansion_delta": (False, lambda k, v: _as_unit(k, v)),
        "barrier": _barrier_field(required=False),
    }
    vals = _validate(cfg, schema, "model-info")
    checks, label = _build_checks(vals)
    if "barrier" in vals:
        _check_center("barrier.center", vals["barrier"]["center"], checks.n)
    H = build_hamiltonian(checks)
    if checks.is_classical:
        w = classical_energies(checks)
    else:
        w = np.linalg.eigvalsh(H.mat)
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
        "ground_degeneracy": int(np.count_nonzero(w < w.min() + 1e-9)),
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
        info["barrier"] = {
            "dim_V": cert.V.dim,
            "dim_boundary": cert.boundary.dim,
            "E_min_V": cert.E_min_V,
            "E_min_boundary": cert.E_min_boundary,
            "kappa": cert.kappa,
        }
    _write_json(os.path.join(out, "report.json"), info)
    return []


_RUNNERS = {
    "verify-classical": _run_verify_classical,
    "verify-quantum": _run_verify_quantum,
    "barrier-scan": _run_barrier_scan,
    "tail-check": _run_tail_check,
    "stability-sweep": _run_stability_sweep,
    "mixing-compare": _run_mixing_compare,
    "model-info": _run_model_info,
}

_HELP = {
    "verify-classical": "classical bottleneck bound for Glauber chains",
    "verify-quantum": "quantum bottleneck bound for Gibbs sampler schedules",
    "barrier-scan": "energy barrier certificates over boundary radii",
    "tail-check": "eigenstate tail amplitudes against the shell decay bound",
    "stability-sweep": "bottleneck ratio across a (beta, g, n, seed) grid",
    "mixing-compare": "observed mixing step against the theorem lower bounds",
    "model-info": "spectrum, check counts and optional barrier summary",
}


def _resolve_jobs(flag_value):
    env = os.environ.get("BOTTLENECKLAB_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigInvalid(f"BOTTLENECKLAB_JOBS must be an integer, got {env!r}")
    elif flag_value is not None:
        jobs = flag_value
    else:
        jobs = 1
    if jobs < 1:
        raise ConfigInvalid(f"jobs must be >= 1, got {jobs}")
    return jobs


def main(argv=None):
    """Entry point. Returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="bottlenecklab",
        description="Bottleneck-ratio experiment pipelines with asserted bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name in _RUNNERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory, created if absent")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker threads (the BOTTLENECKLAB_JOBS variable overrides this)",
        )
    args = parser.parse_args(argv)
    out = args.out
    os.makedirs(out, exist_ok=True)
    try:
        jobs = _resolve_jobs(args.jobs)
        cfg = _load_config(args.config)
        failures = _RUNNERS[args.subcommand](cfg, out, jobs)
    except (ConfigInvalid, ModelNotFound) as exc:
        _write_json(
            os.path.join(out, "failures.json"),
            [{"reason": type(exc).__name__, "message": str(exc)}],
        )
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    except BottleneckLabError as exc:
        entry = {"reason": type(exc).__name__, "message": str(exc)}
        data = getattr(exc, "data", None)
        if data:
            entry["data"] = _sanitize(data)
        _write_json(os.path.join(out, "failures.json"), [entry])
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    _write_json(os.path.join(out, "failures.json"), failures)
    status = "ok" if not failures else f"{len(failures)} failures"
    print(f"{args.subcommand}: {status} -> {out}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
