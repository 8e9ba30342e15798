"""Config-driven experiment runner behind the ``bottlenecklab`` entry point.

SUBCOMMANDS holds each subcommand's help line, config schema, register
bound, report columns and plan, and main runs one chain for all seven:
the JSON config against the schema, the checks that need no register
size, the check family under the route's bound (a model's keys before its
factory runs), then the plan's own checks and builds, before any matrix
is touched. The plan's points run as one grid and return rows keyed by
column name; ``report.csv`` and ``report.json`` are both written from
them in the order of the subcommand's columns (``model-info`` writes its
one summary to ``report.json`` only). ``fit.json`` holds the per-(beta, g)
regression summaries of a sweep, and ``failures.json`` one entry per
refused or violated assertion with the exception class as its reason code
and, for a grid point, the point itself. Rows are emitted in grid order,
never completion order, so identical configs produce byte-identical files
whatever the worker count.

Exit status: 0 when every asserted inequality held, 1 when any grid point or
an allocation failed (see failures.json), 2 when the config or the output
directory was rejected up front.
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
from .markov import _GLAUBER_MAX_BITS, GlauberFlow
from .model import (
    _EXPANSION_MAX_BITS,
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
from .pauli import gf2_null_space_masks
from .sampler import DEFAULT_ATTEMPT, sweep_schedule
from .stability import (
    SweepRow,
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
from .subspace import ball, basis_state_subspace, partition_from_radius

# Report columns per grid subcommand, in report order: each point returns
# rows keyed by column name, and report.csv and report.json are both written
# from them in this order.
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
# The most label steps, repetitions x sites x flavors + horizon, of a
# verify-quantum or mixing-compare point to n = 10 (a step's cost is about
# flat there), half as many per qubit past it: under 10 s at the bound (README).
_MAX_LABEL_STEPS = 1 << 18
# log2 of the most entries of a CSS family's label basis, 2^n x 2^rank with
# rank that of its X checks: model-info on 2^24 (n = 17, 7 X checks) took 21 s
# and 2126 MiB peak RSS under a 2.5 GB address-space cap; 2^25 did not fit.
_CSS_BASIS_MAX_LOG2 = 24


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
    """Each bitstring of a center, such as the two of an [x, z] eigenstate
    label, lies in the register."""
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
        fam, label = build_model(vals["model"], params, max_bits), vals["model"]
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
    if not fam.is_classical:
        rank = fam.n - len(gf2_null_space_masks(fam.n, fam.x_masks()))
        if fam.n + rank > _CSS_BASIS_MAX_LOG2:
            raise ConfigInvalid(
                f"a CSS label basis of 2^{fam.n} x 2^{rank} entries is past 2^{_CSS_BASIS_MAX_LOG2}"
            )
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


def _failure_entry(exc, point=None):
    """failures.json entry: exception class as reason, its data, the point."""
    entry = {"reason": type(exc).__name__, "message": str(exc)}
    if point is not None:
        entry["point"] = point
    data = getattr(exc, "data", None)
    if data:
        entry["data"] = _sanitize(data)
    return entry


def _run_grid(out, columns, tasks, point, jobs):
    """Evaluate grid points, emit their rows, return (rows, failures).

    A point returns one row (a dict keyed by column name) or a list of
    rows; a package error or an allocation that fails becomes a failure
    entry naming the task. report.csv and report.json are written from
    the same rows, each in the order of columns, other entries left out.
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
    table = [{c: row[c] for c in columns} for row in rows]
    lines = [",".join(columns)] + [",".join(map(_csv_field, row.values())) for row in table]
    _write_text(os.path.join(out, "report.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out, "report.json"), table)
    return rows, failures


# --- subcommand plans --------------------------------------------------------


def _plan_verify_classical(vals, checks, label):
    """The classical bound at each beta from A's out-edges (markov.GlauberFlow):
    per beta, the acceptances of the flips that leave A, the flow
    2 Q(A, A^c)/pi(A) and the bound from the Gibbs law, with no chain over
    the register. A is the Hamming ball of radius inner about the center,
    B1 and B2 the next two shells of the given width: one flip moves the
    distance to the center by exactly one, so A's flips reach at most B1
    and C's at least B2, and the condition has no forbidden position.
    Irreducibility rests on the acceptance of the largest uphill jump, at
    most the most checks on one bit, being positive; where it may
    underflow the point builds the chain (markov.GlauberTable) and its
    class search. Stationarity rests on detailed balance, checked on every
    edge the flow reads."""
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
    energies = label_energies(checks)
    center = basis_state_subspace(checks.n, [spec["center"]])
    part = partition_from_radius(center, spec["width"], spec["inner"])
    # one flip toggles only the checks on its bit
    most = max(sum(q in check for check in checks.z_checks) for q in range(checks.n))
    flow = GlauberFlow(energies, part.labels[1], most)

    def point(task):
        pi, _ = gibbs_weights(energies, task["beta"])
        rep = flow.report(task["beta"], laziness, pi)
        return dict(vars(rep), **task, n=checks.n, laziness=laziness)

    return [{"model": label, "beta": b} for b in vals["betas"]], point


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


def _plan_quantum(vals, checks, label):
    """verify-quantum's theorem at each beta or, given a horizon,
    mixing-compare's observed mixing step at its one beta against the
    theorem's lower bounds; both over one schedule, radius and ball of
    H's labels, a center c being the label (c, 0)."""
    n = checks.n
    sub = vals["subspace"]
    _check_center("subspace.centers", sub["centers"], n)
    sites = vals.get("sites", list(range(n)))
    for i, site in enumerate(sites):
        if site >= n:
            _fail(f"sites[{i}]", site, f"a qubit of the {n}-qubit register")
    _check_shell("partition_radius", vals["partition_radius"], n)
    horizon = vals.get("horizon")
    if not checks.is_classical and "flavors" not in vals:
        raise ConfigInvalid('models with X checks need "flavors" (e.g. ["X"])')
    most = _MAX_LABEL_STEPS >> max(n - 10, 0)
    sweep = len(sites) * len(vals.get("flavors", ["X"]))
    if (got := vals.get("repetitions", 1) * sweep + (horizon or 0)) > most:
        _fail("repetitions x sites x flavors + horizon", got, f"at most {most} at n = {n}")
    H = build_hamiltonian(checks)
    W = H.labels[0]
    V = ball(W, [W.index(c, 0) for c in sub["centers"]], sub["radius"])
    r = vals["partition_radius"]
    eps = vals.get("mix_eps", DEFAULT_MIX_EPS)
    fixed = {"n": n, "r": r, "g": 0.0, "mix_eps": eps, "horizon": horizon}

    def point(task):
        beta = task["beta"]
        rho, _, _ = gibbs_state(H, beta)
        sched = sweep_schedule(
            H,
            beta,
            sites,
            flavors=vals.get("flavors"),
            repetitions=vals.get("repetitions", 1),
            attempt_prob=vals.get("attempt_prob", DEFAULT_ATTEMPT),
        )
        # mixing-compare's partition is explicit: the Kraus condition is
        # verified numerically, so the radius may sit below the crude
        # locality bound when the moves genuinely cannot jump the buffer
        part = (V, r) if horizon is None else partition_from_radius(V, r)
        rep = verify_bottleneck_theorem(sched, rho, part, mix_eps=eps)
        row = dict(vars(rep), **task, **fixed, cond_residual=rep.condition_residual)
        if horizon is None:
            return row
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
        return dict(row, tmix_strong=strong, tmix_weak=weak, tmix_observed=observed)

    betas = vals["betas"] if horizon is None else [vals["beta"]]
    return [{"model": label, "beta": b} for b in betas], point


def _certificate(cert):
    """A barrier certificate's report entries, keyed by column name."""
    return {
        "dim_V": cert.V.dim,
        "dim_boundary": cert.boundary.dim,
        "E_min_V": cert.E_min_V,
        "E_min_boundary": cert.E_min_boundary,
        "kappa": cert.kappa,
    }


def _plan_barrier_scan(vals, checks, label):
    center = vals["center"]
    inner = vals["inner"]
    _check_center("center", center, checks.n)
    _check_shell("inner + max(radii)", inner + max(vals["radii"]), checks.n)
    H = build_hamiltonian(checks)
    fixed = {"n": checks.n, "center_x": center[0], "center_z": center[1], "inner": inner}

    def point(task):
        cert = barrier_subspace(checks, center, inner, task["boundary"], H)
        return {**_certificate(cert), **task, **fixed}

    return [{"model": label, "boundary": b} for b in vals["radii"]], point


def _plan_tail_check(vals, checks, label):
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
        row = dict(task, n=n, eps1=eps1, eps2=eps2, delta_E=delta_E, block_residual=block.residual)
        records = tail_amplitudes(H, H0, shells)
        return [{**vars(rec), **row, "lambda": rec.lambda_} for rec in records]

    tasks = [
        {"model": label, "g": g, "seed": s} for g in vals["gs"] for s in vals["seeds"]
    ]
    return tasks, point


def _plan_stability_sweep(vals):
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
        row = sweep_point(**task, H0=H0, cert=cert)
        return {**row._asdict(), "lambda": row.lambda_kappa}

    return sweep_grid(name, vals["betas"], vals["gs"], vals["ns"], vals["seeds"]), point


def _conditioned_start(rho, A):
    """rho conditioned on A, P_A rho P_A / tr(P_A rho): rho carries labels
    p over the basis W of A, so that is the label state p 1_A / sum, with
    no matrix formed."""
    W, in_A = A.labels
    p = label_weights(rho, W)
    return DensityMatrix.from_labels(W, np.where(in_A, p, 0.0) / p[in_A].sum())


def _plan_model_info(vals, checks, label):
    if "expansion_delta" in vals and not checks.is_classical:
        raise ConfigInvalid("expansion_delta needs a classical (Z-only) model")
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
        info.update(beta=vals["beta"], log_Z=logZ, free_energy=F)
    if "expansion_delta" in vals:
        gamma, witness = expansion_scan(checks, vals["expansion_delta"])
        info.update(expansion_gamma=gamma, expansion_witness=witness)
    if "barrier" in vals:
        bar = vals["barrier"]
        cert = barrier_subspace(checks, bar["center"], bar["inner"], bar["boundary"], H)
        info["barrier"] = _certificate(cert)
    return info


# name: (help line, config schema, register bound of the family build (None:
# the plan builds its own), report columns (None: one summary), plan)
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
        _GLAUBER_MAX_BITS,
        CLASSICAL_COLUMNS,
        _plan_verify_classical,
    ),
    "verify-quantum": (
        "quantum bottleneck bound for Gibbs sampler schedules",
        {**_QUANTUM_SCHEMA, "betas": (True, _num_list(lo=0.0))},
        _SITE_MAX_BITS,
        QUANTUM_COLUMNS,
        _plan_quantum,
    ),
    "barrier-scan": (
        "energy barrier certificates over boundary radii",
        {
            **_MODEL_SCHEMA,
            "center": (True, _as_center),
            "inner": (True, _int_field(lo=0)),
            "radii": (True, _int_list(lo=1)),
        },
        _LABEL_MAX_BITS,
        BARRIER_COLUMNS,
        _plan_barrier_scan,
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
        _TAIL_MAX_BITS,
        TAIL_COLUMNS,
        _plan_tail_check,
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
        None,
        SWEEP_COLUMNS,
        _plan_stability_sweep,
    ),
    "mixing-compare": (
        "observed mixing step against the theorem lower bounds",
        {
            **_QUANTUM_SCHEMA,
            "beta": (True, _num_field(lo=0.0)),
            "horizon": (True, _int_field(1, _MAX_STEPS)),
        },
        _SITE_MAX_BITS,
        MIXING_COLUMNS,
        _plan_quantum,
    ),
    "model-info": (
        "spectrum, check counts and optional barrier summary",
        {
            **_MODEL_SCHEMA,
            "beta": (False, _num_field(lo=0.0)),
            "expansion_delta": (False, functools.partial(_as_unit, hi=1.0)),
            "barrier": _dict_field(_BARRIER_SCHEMA, required=False),
        },
        _LABEL_MAX_BITS,
        None,
        _plan_model_info,
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
    for name, (help_line, *_) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory, created if absent")
        p.add_argument("--jobs", type=int, default=1, help="worker threads")
    return parser


def _run(subcommand, cfg, out, jobs):
    """The chain every subcommand runs on its config: the schema, the
    checks that need no register size, the check family under the route's
    register bound, the plan, the grid and its report, fit.json for a
    sweep. Returns the failures. A plan takes the values and, unless it
    builds its own (stability-sweep, one per n), the family and its label;
    it makes the subcommand's cross-field checks and shared builds and
    returns its tasks and point function, or model-info's one summary."""
    _, schema, max_bits, columns, plan = SUBCOMMANDS[subcommand]
    vals = _as_dict(subcommand, cfg, schema, top=True)
    if vals.get("laziness", 0.0) >= 1:
        _fail("laziness", vals["laziness"], "a number in [0, 1)")
    if "eps2" in vals and vals["eps2"] <= vals["eps1"]:
        raise ConfigInvalid("need eps2 > eps1")
    if "expansion_delta" in vals:
        max_bits = _EXPANSION_MAX_BITS
    planned = plan(vals, *_build_checks(vals, max_bits)) if max_bits else plan(vals)
    if columns is None:
        _write_json(os.path.join(out, "report.json"), planned)
        return []
    rows, failures = _run_grid(out, columns, *planned, jobs)
    if subcommand != "stability-sweep":
        return failures
    try:
        sweep = [SweepRow._make(r[f] for f in SweepRow._fields) for r in rows]
        fits = fit_sweep(sweep, vals["betas"], vals["gs"])
    except BoundViolated as exc:
        return failures + [_failure_entry(exc)]
    _write_text(os.path.join(out, "fit.json"), fits_to_json(fits) + "\n")
    return failures


def main(argv=None):
    """Entry point. Returns the process exit status."""
    args = _parser().parse_args(argv)
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # with no directory, failures.json is not written
        print(f"config rejected: cannot make output directory {out!r}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.jobs < 1:
            raise ConfigInvalid(f"jobs must be >= 1, got {args.jobs}")
        failures = _run(args.subcommand, _load_config(args.config), out, args.jobs)
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
