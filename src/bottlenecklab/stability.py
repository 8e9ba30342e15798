"""Perturbative stability: energy shells, tail bounds, and decay sweeps.

The machinery follows one storyline. Split the spectrum of the
unperturbed Hamiltonian into a low part, a ladder of width-delta_E
shells, and a high part. A perturbation whose terms touch few checks is
block-tridiagonal in that ladder, so the amplitude of a low-energy
eigenstate on the high part decays geometrically shell by shell.

Each shell is a set of eigen-indices of model.spectrum(H0), which for a
check Hamiltonian are the columns of its label basis U, with no
eigensolve. The ladder check reads blocks of U^dag V U and a tail
amplitude the top-shell entries of U^dag psi (U is the identity for a
classical H0), so no 2^n x 2^n projector is built.

The sweep turns the resulting exponential estimates into measured bottleneck
ratios on perturbed Gibbs states across a (beta, g, n, seed) grid.

The sweep comes in four pieces: sweep_model builds H0 and the barrier
certificate once per n, sweep_grid lists the grid points in report order,
sweep_point measures one of them, and fit_sweep fits log(delta) against n
over the rows. The CLI's stability-sweep composes them, running the
points through its grid runner, where a failing point becomes a
failures.json entry.

Each sweep point builds H0 + V in its real gauge as a site form and
keeps it there until Delta comes out. random_local_perturbation(n, g,
seed) draws one term per site and gives V as the real site form R =
diag(e) + sum_q t_q X_q with one phase per site, D = diag(d) with D^dag
V D = R, fixed when V is built; the classical H0 is a site form with no
flips, and perturb adds its diagonal to e. So no dense form of H0, V or
H and no complex matrix is built. The boundary floor gathers its block
from e and t. Delta needs e^{-beta H} only on the label columns of the
ball and its boundary shell, since Z cancels and the phases change
neither piece, and numerics.site_form_ratio applies the Chebyshev
series of e^{-beta R} to those columns with sparse products and a
stated bound on its error. Where that bound certifies both pieces to
5e-10 relative, Delta is read from the columns with no eigensolve; where
it does not (large beta, where the boundary weight is tiny next to the
rounding bound, which a one-column probe mostly detects before the label
columns run), the point solves R with the real symmetric solver
(model.thermal_state) and bottleneck_ratio reads Delta from that
eigen-decomposition, as a real gather and SVD. tail_amplitudes, its
||H - H0|| check and verify_block_tridiagonal read the dense real forms,
formed on first read.
The sweep takes registry models that are built from n alone
(model.SIZE_INDEXED).

Shell width bookkeeping: w0 is the maximum number of checks any qubit
touches and w1 the largest perturbation-term support, so one term can
move the unperturbed energy by at most w0*w1. Hamiltonians built
straight from checks carry w1 = 0; the window tests here treat them as
targets of at-least-single-site perturbations (w1 = 1).
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as tol
from .bottleneck import bottleneck_ratio
from .errors import (
    BoundViolated,
    ParametersInadmissible,
    PerturbationTooLarge,
)
from .model import (
    barrier_subspace,
    build_hamiltonian,
    build_model,
    perturb,
    random_local_perturbation,
    spectrum,
    subspace_min_energy,
    thermal_state,
)
from .numerics import operator_norm, site_form_ratio

__all__ = [
    "ShellDecomposition",
    "TailRecord",
    "BlockTridiagonalReport",
    "SweepRow",
    "shell_decomposition",
    "plan_shell_width",
    "verify_block_tridiagonal",
    "tail_amplitudes",
    "sweep_model",
    "sweep_grid",
    "sweep_point",
    "fit_sweep",
    "fits_to_json",
]


@dataclass
class ShellDecomposition:
    """Exact eigenspace windows [Q_<, Q_1..Q_{q*}, Q_>] of H0, by eigen-index.

    indices[b] lists, ascending, the eigenvectors of H0 in window b: the
    columns of U, or the basis states when U is None because H0 is
    diagonal. So Q_b = U[:, indices[b]] U[:, indices[b]]^dag, and no
    projector is ever formed. Construction checks that every eigen-index
    lies in exactly one window, which for the orthonormal eigenbasis U is
    sum_b Q_b = 1 with Q_a Q_b = 0 for a != b.
    """

    indices: tuple
    U: np.ndarray
    E_boundaries: tuple
    delta_E: float
    eps1: float
    eps2: float
    n: int
    g: float
    q_star: int

    def __post_init__(self):
        hits = np.bincount(np.concatenate(self.indices), minlength=1 << self.n)
        if hits.size != 1 << self.n or (hits == 0).any():
            raise ParametersInadmissible("shell windows do not resolve identity")
        if (hits > 1).any():
            raise ParametersInadmissible("shell windows overlap")


@dataclass
class TailRecord:
    eigen_index: int
    energy: float
    amplitude: float
    lemma_bound: float
    lambda_: float

    def __post_init__(self):
        if not -tol.AMPLITUDE_SLACK <= self.amplitude <= 1 + tol.AMPLITUDE_SLACK:
            raise BoundViolated(
                f"amplitude {self.amplitude!r} outside [0, 1]",
                amplitude=self.amplitude,
            )


@dataclass
class BlockTridiagonalReport:
    residual: float
    passes: bool
    worst_pair: tuple


def _assumed_w0w1(H0):
    return H0.w0 * max(H0.w1, 1)


def _window(H0, eps1, eps2, g):
    """(w0*w1, widest admissible shell width), once eps2 > eps1 + 4g holds."""
    if eps2 <= eps1 + 4 * g:
        raise ParametersInadmissible(
            f"need eps2 > eps1 + 4g, got eps2-eps1 = {eps2 - eps1!r} with g = {g!r}"
        )
    w0w1 = _assumed_w0w1(H0)
    return w0w1, w0w1 * (eps2 - eps1) / (eps2 - eps1 - 4 * g)


def _window_checks(H0, eps1, eps2, g, delta_E):
    w0w1, top = _window(H0, eps1, eps2, g)
    if delta_E <= w0w1:
        raise ParametersInadmissible(
            f"shell width {delta_E!r} must exceed w0*w1 = {w0w1!r}"
        )
    if delta_E > top + tol.SHELL_WIDTH_SLACK:
        raise ParametersInadmissible(
            f"shell width {delta_E!r} above admissible maximum {top!r}"
        )
    q_exact = ((eps2 - eps1) / 2 - 2 * g) * H0.n / delta_E
    q_star = round(q_exact)
    if q_star < 1 or abs(q_exact - q_star) > tol.SHELL_COUNT_REL_TOL * max(1.0, abs(q_exact)):
        raise ParametersInadmissible(
            f"shell count {q_exact!r} is not a positive integer; "
            "pick delta_E so the barrier window tiles exactly"
        )
    return q_star


def plan_shell_width(H0, eps1, eps2, g):
    """Smallest admissible delta_E whose shell count is an integer.

    Smaller shells mean more of them and a faster tail decay rate, so the
    planner maximizes the shell count within the admissible window.
    """
    w0w1, top = _window(H0, eps1, eps2, g)
    span = ((eps2 - eps1) / 2 - 2 * g) * H0.n
    q_star = math.ceil(span / w0w1 - tol.SHELL_INDEX_SLACK) - 1
    if q_star < 1:
        raise ParametersInadmissible(
            f"window {span!r} too narrow for even one shell wider than {w0w1!r}"
        )
    delta_E = span / q_star
    if delta_E > top + tol.SHELL_WIDTH_SLACK:
        raise ParametersInadmissible(
            f"no integer shell count fits: delta_E = {delta_E!r} exceeds {top!r}"
        )
    return delta_E


def shell_decomposition(H0, eps1, eps2, g, delta_E):
    """Split the spectrum of H0 into [Q_<, Q_1..Q_{q*}, Q_>].

    The ladder starts at (eps2+eps1)n/2 + 2gn and ends at eps2*n, in q*
    windows of width delta_E built from exact eigenspaces of H0. Each
    window is the set of eigen-indices of model.spectrum(H0) whose
    eigenvalue falls in it.
    """
    q_star = _window_checks(H0, eps1, eps2, g, delta_E)
    n = H0.n
    E1 = (eps2 + eps1) * n / 2 + 2 * g * n
    boundaries = tuple(E1 + q * delta_E for q in range(q_star + 1))
    w, U = spectrum(H0)
    bins = 1 + np.floor((w - boundaries[0]) / delta_E + tol.SHELL_INDEX_SLACK).astype(np.int64)
    bins[w < boundaries[0]] = 0
    bins[w >= boundaries[-1]] = q_star + 1
    return ShellDecomposition(
        indices=tuple(np.flatnonzero(bins == b) for b in range(q_star + 2)),
        U=U,
        E_boundaries=boundaries,
        delta_E=delta_E,
        eps1=eps1,
        eps2=eps2,
        n=n,
        g=g,
        q_star=q_star,
    )


def verify_block_tridiagonal(Vpert, shells):
    """Largest coupling ||Q_i V Q_j|| between non-adjacent shells.

    Each is the operator norm of one block of U^dag V U (of V itself when
    H0 is diagonal), rows and columns picked by the two index sets. For a
    diagonal H0 the blocks are read from the form M of V: a block of D M
    D^dag is the same block of M between two unitary diagonals, with the
    same singular values.
    """
    if shells.U is None:
        V = Vpert.form
    else:
        V = shells.U.conj().T @ Vpert.mat @ shells.U
    worst = 0.0
    worst_pair = (0, 0)
    m = len(shells.indices)
    for i in range(m):
        for j in range(i + 2, m):
            r = operator_norm(V[np.ix_(shells.indices[i], shells.indices[j])])
            if r > worst:
                worst = r
                worst_pair = (i, j)
    return BlockTridiagonalReport(worst, worst < tol.BLOCK_TRIDIAGONAL_TOL, worst_pair)


def _decay_rate(eps1, eps2, g, delta_E):
    if g <= 0:
        return math.inf
    return (eps2 - eps1 - 4 * g) / (2 * delta_E) * math.log((eps2 - eps1) / (2 * g))


def _check_perturbation(H, H0, g):
    """||H - H0|| <= g*n. A diagonal H0 is subtracted from a site form H
    in the gauge of H, whose unit phases leave the norm unchanged."""
    if H.flips is not None and H0.is_diagonal:
        diff = H.plus_diagonal(-H0.diagonal()).form
    else:
        diff = H.mat - H0.mat
    # the difference is Hermitian, so its norm is its largest |eigenvalue|
    dev = float(np.abs(np.linalg.eigvalsh(diff)).max())
    if dev > g * H0.n + tol.PERTURBATION_SLACK:
        raise PerturbationTooLarge(
            f"||H - H0|| = {dev!r} exceeds g*n = {g * H0.n!r}"
        )


def tail_amplitudes(H, H0, shells):
    """Weight of every low-energy eigenstate of H on the high shell of H0.

    shells is the shell_decomposition of H0, which fixes eps1, eps2, g and
    delta_E. Each eigenstate psi with energy below eps1*n gets its
    measured ||Q_> psi|| = ||(U^dag psi)[top]||, top the high window's
    eigen-indices, together with the geometric-decay bound
    e^{-lambda(g) n}; the bound is asserted, not just reported.
    """
    _check_perturbation(H, H0, shells.g)
    eig = H.eigensystem()
    w = eig.w
    lam = _decay_rate(shells.eps1, shells.eps2, shells.g, shells.delta_E)
    bound = math.exp(-lam * shells.n) if lam < math.inf else 0.0
    top = np.zeros(1 << shells.n, dtype=bool)
    top[shells.indices[-1]] = True
    low = np.flatnonzero(w < shells.eps1 * shells.n)
    psi = eig.vectors(low)
    coeffs = psi if shells.U is None else shells.U.conj().T @ psi
    # zero the entries off the top window rather than gather the rest, so
    # each norm sums all dim entries in index order, rounding as Q_> psi does
    tails = np.where(top[None, :], coeffs.T, 0)
    records = []
    for i, tail in zip(low, tails):
        amp = float(np.linalg.norm(tail))
        if amp > bound + tol.TAIL_BOUND_SLACK:
            raise BoundViolated(
                f"tail amplitude {amp!r} above e^(-lambda n) = {bound!r} "
                f"for eigenstate {int(i)}",
                amplitude=amp,
                bound=bound,
            )
        records.append(
            TailRecord(
                eigen_index=int(i),
                energy=float(w[i]),
                amplitude=amp,
                lemma_bound=bound,
                lambda_=lam,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Decay sweep


class SweepRow(NamedTuple):
    """One grid point of a sweep, fields in report-column order."""

    model: str
    n: int
    beta: float
    g: float
    seed: int
    kappa: float
    eps: float
    delta: float
    bound_chain: float
    admissible: bool
    lambda_kappa: float


_LN2 = math.log(2.0)


def _lambda_kappa(kappa, g, w0w1):
    if kappa <= 0:
        return 0.0
    if g <= 0:
        return math.inf
    return kappa / (4 * w0w1) * math.log(kappa / (4 * g))


def _chain_log_sq(n, beta, g, eps, kappa, lam_k):
    t1 = n * math.log(8.0) - lam_k * n
    t2 = n * math.log(4.0) - beta * (eps + kappa / 2) * n
    return float(np.logaddexp(t1, t2)) + 2 * beta * (eps + g) * n


def sweep_model(model, n, barrier):
    """(H0, barrier certificate) of a size-indexed registry model at size n.

    barrier is (center, inner_radius, boundary_radius). The model is
    built by model.build_model from {"n": n} alone, so a model with other
    keys (not in model.SIZE_INDEXED) raises its ConfigInvalid, and an
    unknown name ModelNotFound.
    """
    checks = build_model(model, {"n": n})
    H0 = build_hamiltonian(checks)
    center, inner_radius, boundary_radius = barrier
    return H0, barrier_subspace(checks, center, inner_radius, boundary_radius, H0)


def sweep_grid(model, betas, gs, ns, seeds):
    """Grid points as {model, n, beta, g, seed} dicts, sorted by
    (n, beta, g, seed). A value repeated in the inputs gives no second
    point, so it is neither reported nor fitted twice."""
    grid = {(n, beta, g, seed) for n in ns for beta in betas for g in gs for seed in seeds}
    return [
        {"model": model, "n": n, "beta": beta, "g": g, "seed": seed}
        for n, beta, g, seed in sorted(grid)
    ]


def sweep_point(model, n, beta, g, seed, H0, cert):
    """Measured Delta of one perturbed Gibbs state, with its proof chain.

    H0 and cert come from sweep_model at this n. Raises BoundViolated when
    the perturbed boundary floor drops more than g*n, or when an
    admissible point's delta^2 exceeds the proof-chain value.
    """
    V = random_local_perturbation(n, g, seed)
    H = perturb(H0, V)
    if g > 0:
        floor_E = cert.E_min_boundary - g * n - tol.BOUNDARY_FLOOR_SLACK
        shifted = subspace_min_energy(cert.boundary, H)
        if shifted < floor_E:
            raise BoundViolated(
                f"boundary floor {shifted!r} dropped below {floor_E!r}",
                shifted=shifted,
                floor=floor_E,
            )
    delta = _site_form_delta(H, beta, cert)
    if delta is None:
        delta, _, _ = bottleneck_ratio(thermal_state(H, beta), cert.V, cert.boundary)
    w0w1 = H0.w0 * max(V.w1, 1)
    lam_k = _lambda_kappa(cert.kappa, g, w0w1)
    eps = cert.E_min_V / n
    cond1 = beta * (cert.kappa / 2 - eps - 2 * g) > 2 * _LN2
    cond2 = lam_k - 2 * beta * (eps + g) > 3 * _LN2
    admissible = bool(cond1 and cond2)
    log_sq = _chain_log_sq(n, beta, g, eps, cert.kappa, lam_k)
    if admissible and delta**2 > math.exp(min(log_sq, 1400.0)) + tol.PROOF_CHAIN_SLACK:
        raise BoundViolated(
            f"delta^2 = {delta**2!r} above the proof chain e^{log_sq!r}",
            delta=delta,
            log_chain=log_sq,
        )
    bound_chain = math.exp(0.5 * log_sq) if log_sq < 1400.0 else math.inf
    return SweepRow(
        model=model,
        n=n,
        beta=beta,
        g=g,
        seed=seed,
        kappa=cert.kappa,
        eps=eps,
        delta=delta,
        bound_chain=bound_chain,
        admissible=admissible,
        lambda_kappa=lam_k,
    )


def _site_form_delta(H, beta, cert):
    """Delta of the Gibbs state of the site form H from the label columns
    of the ball and its shell (numerics.site_form_ratio), which sweep_model
    labels over the identity basis; None where that does not certify, and
    for a diagonal H, whose thermal state needs no eigensolve."""
    if H.is_diagonal:
        return None
    rows = [np.flatnonzero(block.labels[1]) for block in (cert.V, cert.boundary)]
    return site_form_ratio(H.diagonal(), H.flips, beta, *rows)


def fit_sweep(rows, betas, gs):
    """Fits of log(delta) = a - b*n per (beta, g) over sweep rows.

    The slope assertion b > 0 fires only where the proof chain implies
    decay: at least three distinct n values are admissible, and the
    chain value falls strictly from each admissible size to the next
    (status "ok"). With fewer admissible sizes the entry carries the
    status "no-admissible-points"; when the chain value does not fall,
    as on a ring whose barrier stays the same at every n, it carries
    "decay-not-implied" and the slope is reported without the assertion.
    Every admissible point's own delta is checked against the chain in
    sweep_point either way.
    """
    fits = {}
    for beta in betas:
        for g in gs:
            group = [r for r in rows if r.beta == beta and r.g == g]
            pts = [(r.n, math.log(r.delta)) for r in group if r.delta > 0]
            entry = {"points": len(pts)}
            if len(set(x for x, _ in pts)) >= 2:
                xs = np.array([x for x, _ in pts], dtype=float)
                ys = np.array([y for _, y in pts], dtype=float)
                slope, intercept = np.polyfit(xs, ys, 1)
                resid = ys - (slope * xs + intercept)
                ss_tot = float(((ys - ys.mean()) ** 2).sum())
                r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > tol.FIT_SS_FLOOR else 1.0
                entry.update(a=float(intercept), b=float(-slope), r2=r2)
            admissible_ns = sorted({r.n for r in group if r.admissible})
            entry["admissible_ns"] = admissible_ns
            if len(admissible_ns) < 3:
                entry["status"] = "no-admissible-points"
            elif not _chain_falls(group):
                entry["status"] = "decay-not-implied"
            else:
                entry["status"] = "ok"
                if entry.get("b", 0.0) <= 0:
                    raise BoundViolated(
                        f"decay slope {entry['b']!r} not positive over admissible "
                        f"sizes {admissible_ns}",
                        slope=entry["b"],
                    )
            fits[(beta, g)] = entry
    return fits


def _chain_falls(group):
    """Whether the largest proof-chain value over seeds falls strictly from
    each admissible size of one (beta, g) group to the next, compared on
    the log scale so that no value underflows."""
    chain = {}
    for r in group:
        if r.admissible:
            log_sq = _chain_log_sq(r.n, r.beta, r.g, r.eps, r.kappa, r.lambda_kappa)
            chain[r.n] = max(chain.get(r.n, -math.inf), log_sq)
    values = [chain[n] for n in sorted(chain)]
    return all(later < earlier for earlier, later in zip(values, values[1:]))


def fits_to_json(fits):
    """fit_sweep's result as JSON text, keyed "beta=...,g=...", keys sorted."""
    payload = {f"beta={beta!r},g={g!r}": fit for (beta, g), fit in fits.items()}
    return json.dumps(payload, sort_keys=True, indent=2)
