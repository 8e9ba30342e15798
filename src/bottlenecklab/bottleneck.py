"""Bottleneck ratios and the slow-mixing bounds built on them.

The central quantity is Delta = ||P_B rho||_1 / tr(P_A rho) for a fixed
point rho of a channel and a four-way split A, B1, B2, C of the register.
When no Kraus operator connects A with B2 u C nor C with A u B1, the
conditioned state rho_A moves by at most 10 Delta in trace norm per
application. Local channels get their split for free from Pauli
neighborhoods: A = V, B1 and B2 the first and second r-shells, C the
rest; the Kraus condition is still re-verified numerically rather than
trusted.

Every partition is a set of block labels over one label basis
(subspace.HilbertPartition). Each trace-norm quantity has one reader,
which runs on labels when rho carries labels (W, p) over the basis W of
its blocks or channels (the Gibbs state of an unperturbed model,
model.gibbs_state), and dense otherwise: _block_weights gives
||P_B rho||_1 and tr(P_A rho) (sums of p), conditioned_state rho_A (the
label state p 1_A / sum) and _drift ||C_k ... C_1 sigma - sigma||_1 (an
l1 norm of chain steps, MonomialKraus.chain, when every channel is
monomial over W). verify_bottleneck_theorem's label path runs when, in
addition, the partition is labeled over the channels' W: its measures
are then markov's exact-zero condition check and conditioned_drift on
the block label of every label. Anything else (perturbed states, general
channels, CSS channels against a partition over the identity basis)
runs the dense path, with the Kraus condition on the blocks' dense
bases, which serves as the test oracle for the label path.

Everything here asserts the inequalities it reports. A violation raises
BoundViolated carrying the numbers, since it would mean a broken
construction rather than an unlucky instance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as tol
from .channel import _monomial_forms, apply_channel, channel_locality, check_partition_condition
from .errors import (
    BadPartition,
    BetaNegative,
    BoundViolated,
    ConditionViolated,
    EmptyA,
    EmptyBoundary,
    LocalityInsufficient,
    NotFixedPoint,
    ZeroDelta,
)
from .markov import _block_sets, _forbidden_positions, _forbidden_top, conditioned_drift
from .model import ThermalState, gibbs_state, spectrum, subspace_min_energy
from .numerics import (
    THEOREM_SLACK,  # by name, so that bottleneck.THEOREM_SLACK resolves for callers
    DensityMatrix,
    label_weights,
    logsumexp,
    matrix_of,
    operator_norm,
    trace_norm,
)
from .subspace import HilbertPartition, Subspace, boundary, partition_from_radius

__all__ = [
    "BottleneckReport",
    "FreeEnergyReport",
    "QuasiLocalReport",
    "bottleneck_ratio",
    "conditioned_state",
    "verify_bottleneck_theorem",
    "diagonal_bound",
    "mixing_time_lower_bound",
    "product_drift",
    "free_energy_report",
    "quasi_local_bound",
]

DEFAULT_MIX_EPS = 0.25


@dataclass
class BottleneckReport:
    delta: float
    numerator: float
    denominator: float
    lhs: float
    bound: float
    condition_residual: float
    tmix_lower: float
    mode: str
    prob_B: float = 0.0
    prob_C: float = 0.0
    steps: int = 1
    path: str = "dense"


@dataclass
class FreeEnergyReport:
    F_total: float
    F_V: float
    F_boundary: float
    E_min_V: float
    bounds_a: float
    bounds_b: float
    bounds_c: float
    a_applicable: bool
    b_applicable: bool


@dataclass
class QuasiLocalReport:
    lhs: float
    combined_bound: float
    best_radius: int
    terms: dict


def _basis_of(P):
    """An X with X X^dag = P: a Subspace's orthonormal basis, or P itself."""
    if isinstance(P, Subspace):
        return P.basis
    return np.asarray(P, dtype=np.complex128)


def _block_weights(rho, P_A, P_B):
    """(||P_B rho||_1, tr(P_A rho)) for Subspaces or projector arrays P.

    When rho carries labels p over the basis W of two Subspaces, rho =
    W diag(p) W^dag and P = W diag(mask) W^dag, so the pieces are the
    sums of |p| on B's labels and of p on A's. Otherwise both are read
    through X with X X^dag = P: the orthonormal basis of a Subspace, or
    the projector itself (X = P). Then tr(P rho) = Re tr(X^dag rho X),
    and ||P rho||_1 is the sum of the singular values of the k x dim
    block X^dag rho, since an isometry preserves singular values. A
    Subspace of dimension k thus never forms a dim x dim product.

    rho may also be a model.ThermalState, rho = D U diag(p) U^dag D^dag,
    which is never formed: X^dag rho = (X^dag D U) diag(p) (D U)^dag and
    D U is unitary, so the numerator sums the singular values of
    (X_B^dag D U) diag(p) and the denominator is sum_j p_j ||X_A^dag D
    u_j||^2, with X^dag itself in place of X^dag D U when U is None. A
    block labeled over the identity basis has X^dag D U = diag(d_rows)
    U[rows] for its label rows, and the unitary left factor changes
    neither piece, so the rows of U are read directly: a real gather and
    a real SVD after a real solve. A ThermalState with eigenvectors takes
    no other P: BadPartition.
    """
    if isinstance(P_A, Subspace) and isinstance(P_B, Subspace) and P_A.labels[0].same_as(P_B.labels[0]):
        p = label_weights(rho, P_A.labels[0])
        if p is not None:
            return float(np.abs(p[P_B.labels[1]]).sum()), float(p[P_A.labels[1]].sum())
    if isinstance(rho, ThermalState):
        ya, yb = _eigen_rows(P_A, rho), _eigen_rows(P_B, rho)
        sq = ya**2 if np.isrealobj(ya) else ya.real**2 + ya.imag**2
        denominator = float(sq.sum(axis=0) @ rho.p)
        block = yb * rho.p[None, :]
    else:
        xa = _basis_of(P_A)
        mat = matrix_of(rho)
        denominator = float(np.real(np.sum((xa.conj().T @ mat) * xa.T)))
        block = _basis_of(P_B).conj().T @ mat
    return float(np.linalg.svd(block, compute_uv=False).sum()), denominator


def bottleneck_ratio(rho, P_A, P_B):
    """Delta = ||P_B rho||_1 / tr(P_A rho), with its two pieces, read by
    _block_weights; tr(P_A rho) at or below EMPTY_WEIGHT_TOL raises EmptyA."""
    numerator, denominator = _block_weights(rho, P_A, P_B)
    if denominator <= tol.EMPTY_WEIGHT_TOL:
        raise EmptyA(f"tr(P_A rho) = {denominator:.3e}")
    return numerator / denominator, numerator, denominator


def _eigen_rows(P, state):
    """X^dag D U of _block_weights, up to a unitary diagonal left factor:
    X^dag when U is None, and U[mask] for a block over the identity basis."""
    if state.U is None:
        return _basis_of(P).conj().T
    if not (isinstance(P, Subspace) and P.labels[0].identity):
        raise BadPartition("a thermal state with eigenvectors takes blocks over the identity basis")
    return state.U[P.labels[1]]


def conditioned_state(rho, A):
    """rho restricted to the Subspace A and renormalized, P_A rho P_A /
    tr(P_A rho), as a DensityMatrix: the label state p 1_A / sum when rho
    carries labels p over the basis of A, with no matrix formed, and the
    dense block through A.basis otherwise."""
    W, in_A = A.labels
    p = label_weights(rho, W)
    if p is not None:
        return DensityMatrix.from_labels(W, np.where(in_A, p, 0.0) / p[in_A].sum())
    block = A.basis.conj().T @ matrix_of(rho) @ A.basis
    block /= np.real(np.trace(block))
    return DensityMatrix(A.basis @ block @ A.basis.conj().T, A.n)


def _drift(channels, sigma):
    """||C_k ... C_1 sigma - sigma||_1 for channels in order. When every
    channel is monomial over the basis W that sigma carries labels p over,
    sigma stays diagonal in W and each channel acts as its chain, so this
    is the l1 norm of the stepped p less p (chain.residual for one
    channel); otherwise apply_channel steps the dense state and one trace
    norm is taken."""
    forms = _monomial_forms(channels)
    p = None if forms is None else label_weights(sigma, forms[0].basis)
    if p is None:
        state = sigma
        for chan in channels:
            state = apply_channel(chan, state)
        return trace_norm(state.mat - matrix_of(sigma))
    if len(forms) == 1:
        return forms[0].chain.residual(p)
    q = p
    for form in forms:
        q = form.chain.step(q)
    return float(np.abs(q - p).sum())


def _local_hypotheses(channels, rho, part):
    """The dense hypotheses of the local theorem on a partition: the worst
    Kraus-condition residual of the channels (ConditionViolated at
    DENSE_CONDITION_TOL or more) and bottleneck_ratio on its A and B."""
    worst = max(check_partition_condition(chan, part).residual for chan in channels)
    if worst >= tol.DENSE_CONDITION_TOL:
        raise ConditionViolated(f"Kraus condition residual {worst:.3e}")
    return worst, bottleneck_ratio(rho, part.A, part.B)


def verify_bottleneck_theorem(C, rho, spec, mix_eps=DEFAULT_MIX_EPS):
    """Check hypotheses, measure the drift of rho_A, assert lhs <= 10 Delta.

    spec is either an explicit HilbertPartition (general mode) or a pair
    (V, r) for the local construction A=V, B1/B2 = first/second r-shells
    (partition_from_radius).
    A schedule (list of channels) is composed for the drift; each entry
    must fix rho on its own (a channel whose ``fixes`` is the read-only
    label vector of rho itself is not stepped again), and the bound
    scales with the step count.

    The label path runs when every channel is monomial over one label
    basis W, rho carries labels (W, p) (as gibbs_state builds for a check
    Hamiltonian) and the partition's block labels are over W: residuals
    and the drift are then l1 norms of chain steps, Delta and the block
    weights sums, and the Kraus condition demands that every forbidden
    chain entry is exactly zero (the dense path accepts a block norm
    below DENSE_CONDITION_TOL). report.path says which path ran. rho is
    read through _density; the label path never reads its dense matrix.
    """
    channels = list(C) if isinstance(C, (list, tuple)) else [C]
    state = _density(rho, channels[0].n)
    forms = _monomial_forms(channels)
    basis = None if forms is None else forms[0].basis
    p = None if basis is None else label_weights(state, basis)
    for chan in channels:
        if p is not None and chan.fixes is p and not p.flags.writeable:
            continue
        resid = _drift([chan], state)
        if resid > tol.CHANNEL_FIXED_POINT_TOL:
            raise NotFixedPoint(f"steady-state residual {resid:.3e}")
    if isinstance(spec, HilbertPartition):
        part = spec
        mode = "general"
    else:
        V, r = spec
        loc = channel_locality(channels)
        if r < loc:
            raise LocalityInsufficient(f"partition radius {r} below channel locality {loc}")
        part = partition_from_radius(V, r)
        mode = f"local(r={r})"
    if p is None or _label_blocks(basis, part) is None:
        path, measures = "dense", _dense_measures(channels, state, part)
    else:
        path, measures = "label", _label_measures([chan.monomial.chain for chan in channels], p, part)
    worst, delta, numerator, denominator, lhs, prob_B, prob_C = measures
    bound = 10.0 * delta * len(channels)
    if lhs > bound + THEOREM_SLACK:
        raise BoundViolated(
            f"drift {lhs!r} exceeds 10*Delta bound {bound!r}", lhs=lhs, bound=bound, delta=delta
        )
    report = BottleneckReport(
        delta=delta,
        numerator=numerator,
        denominator=denominator,
        lhs=lhs,
        bound=bound,
        condition_residual=worst,
        tmix_lower=math.inf,
        mode=mode,
        prob_B=prob_B,
        prob_C=prob_C,
        steps=len(channels),
        path=path,
    )
    report.tmix_lower = mixing_time_lower_bound(report, mix_eps)[0]
    return report


def _density(rho, n):
    """rho itself if a DensityMatrix on n qubits (checked when built, and
    frozen since), else rho's matrix checked as one."""
    return rho if isinstance(rho, DensityMatrix) and rho.n == n else DensityMatrix(matrix_of(rho), n)


def _label_blocks(basis, part):
    """Block (0=A, 1=B1, 2=B2, 3=C) of every label of W, as the partition
    keeps it, or None unless the partition is labeled over W."""
    W, block = part.labels
    return block if W.same_as(basis) else None


def _label_measures(chains, p, part):
    """Kraus condition, Delta pieces, drift and block weights of the label
    chains, from markov's exact-zero check and conditioned_drift (part.kept)."""
    for sm in chains:
        top, offending = _forbidden_top(sm, part.kept(_kept_positions, sm.moves.shape, sm.moves.tobytes()))
        if offending is not None:
            raise ConditionViolated(f"Kraus condition: forbidden weight {top:.3e} at {offending}")
    denominator, prob_B, prob_C, lhs = conditioned_drift(chains, None, p, part.kept(_kept_sets))
    return 0.0, prob_B / denominator, prob_B, denominator, lhs, prob_B, prob_C


def _kept_positions(part, shape, raw):  # of int64 moves held as bytes
    return _forbidden_positions(np.frombuffer(raw, dtype=np.int64).reshape(shape), part.labels[1])


def _kept_sets(part):
    return _block_sets(part.labels[1])


def _dense_measures(channels, state, part):
    """The same quantities from the dense hypotheses, _drift and _block_weights."""
    worst, (delta, numerator, denominator) = _local_hypotheses(channels, state, part)
    lhs = _drift(channels, conditioned_state(state, part.A))
    prob_B, prob_C = (_block_weights(state, S, S)[1] for S in (part.B, part.C))
    return worst, delta, numerator, denominator, lhs, prob_B, prob_C


def diagonal_bound(rho, P):
    """||rho P||_1 against sqrt(tr(rho P)) for a Subspace or a projector
    array P, read by _block_weights as ||P rho||_1 (the adjoint of rho P)
    and tr(P rho); the inequality is asserted."""
    lhs, weight = _block_weights(rho, P, P)
    rhs = math.sqrt(max(0.0, weight))
    if lhs > rhs + tol.DIAGONAL_BOUND_SLACK:
        raise BoundViolated(
            f"||rho P||_1 = {lhs!r} exceeds sqrt(tr) = {rhs!r}", lhs=lhs, rhs=rhs
        )
    return lhs, rhs


def mixing_time_lower_bound(report, eps):
    """Steps needed before the conditioned state can be eps-mixed.

    Returns (bound, weaker) from a verify_bottleneck_theorem report: the
    main form (1 - tr(P_A rho))/(5 Delta) - eps and the probability-only
    variant tr(P_A rho) tr(P_C rho)/(5 ||P_B rho||_1) - eps, where
    tr(P_A rho) is the report's denominator. Zero Delta means the state
    never leaves: both are +inf.
    """
    if report.delta < 0:
        raise ZeroDelta(f"negative delta {report.delta!r}")
    if report.delta == 0.0 or report.numerator == 0.0:
        return math.inf, math.inf
    strong = (1.0 - report.denominator) / (5.0 * report.delta) - eps
    weak = report.denominator * report.prob_C / (5.0 * report.numerator) - eps
    return strong, weak


def product_drift(channels, sigma):
    """Drift of sigma under a composed schedule, telescoped step by step.

    Peeling one channel at a time and using that channels contract the
    trace norm, the composed drift is at most the sum of the single-step
    drifts measured on sigma itself. For a schedule repeating one channel
    that sum is t times the single drift; once the steps differ, the
    smallest step drift does not bound the composition (one step can
    barely move sigma while the rest transport it far), so the sum is
    what gets asserted.
    """
    channels = list(channels)
    if not channels:
        raise EmptyA("empty channel list")
    delta_t = _drift(channels, sigma)
    step_sum = float(sum(_drift([chan], sigma) for chan in channels))
    if delta_t > step_sum + tol.PRODUCT_DRIFT_SLACK:
        raise BoundViolated(
            f"composed drift {delta_t!r} exceeds summed step drifts {step_sum!r}",
            delta_t=delta_t,
            step_sum=step_sum,
        )
    return delta_t, step_sum


def _log_projected_weight(w, U, basis):
    """log tr(P e^{-beta H}) pieces: eigenweights of the projector."""
    if U is None:
        q = (np.abs(basis) ** 2).sum(axis=1)
    else:
        G = U.conj().T @ basis
        q = (np.abs(G) ** 2).sum(axis=1)
    return np.clip(q, 0.0, None)


def _collar_weights(rho, V, shell):
    """(tr(P_V rho), ||[rho, P_shell]||) for a DensityMatrix or dense rho,
    with the shell labeled over the basis W of V (boundary keeps it).
    tr(P_V rho) is read by _block_weights. When rho carries labels over W,
    the commutator is exactly 0: rho = W diag(p) W^dag and P_shell = W
    diag(mask) W^dag are both diagonal in W. Otherwise it is formed from
    the dense shell projector.
    """
    prob_V = _block_weights(rho, V, V)[1]
    if label_weights(rho, V.labels[0]) is not None:
        return prob_V, 0.0
    mat = matrix_of(rho)
    P_shell = shell.projector()
    return prob_V, operator_norm(mat @ P_shell - P_shell @ mat)


def free_energy_report(H, beta, V, r, delta_measured=0.0):
    """Free energies of V, its 2r-collar, and the whole space, with the
    three Delta upper bounds they imply.

    (a) exp(-beta F(dV)/2) / tr(P_V rho), valid once log Z >= 0;
    (b) exp(-beta (F(dV) - F(V))), valid when rho commutes with the
        collar projector;
    (c) the split form with E_min(V), valid unconditionally.
    Each applicable bound is asserted against the measured Delta. rho is
    the Gibbs state gibbs_state(H, beta), so H must be diagonal in a
    label basis.
    """
    if beta <= 0:
        raise BetaNegative(f"free energies need beta > 0, got {beta}")
    shell = boundary(V, 2 * r)
    if shell.dim == 0:
        raise EmptyBoundary("2r-collar of V is empty")
    w, U = spectrum(H)
    logZ = logsumexp(-beta * w)
    q_V = _log_projected_weight(w, U, V.basis)
    q_B = _log_projected_weight(w, U, shell.basis)
    log_trV = logsumexp(-beta * w, b=q_V)
    log_trB = logsumexp(-beta * w, b=q_B)
    F_total = -logZ / beta
    F_V = -log_trV / beta
    F_boundary = -log_trB / beta
    E_min_V = subspace_min_energy(V, H)
    rho, _, _ = gibbs_state(H, beta)
    prob_V, comm = _collar_weights(rho, V, shell)
    b_applicable = comm < tol.COLLAR_COMMUTATOR_TOL
    a_applicable = logZ >= -tol.LOG_Z_SLACK and prob_V > tol.EMPTY_WEIGHT_TOL
    bounds_a = math.exp(0.5 * log_trB) / prob_V if prob_V > tol.EMPTY_WEIGHT_TOL else math.inf
    bounds_b = math.exp(log_trB - log_trV)
    bounds_c = math.exp(
        0.5 * (log_trB - log_trV) + 0.5 * (logZ + beta * E_min_V)
    )
    checks = [("c", bounds_c, True), ("b", bounds_b, b_applicable), ("a", bounds_a, a_applicable)]
    for name, value, applicable in checks:
        if applicable and value < delta_measured - THEOREM_SLACK:
            raise BoundViolated(
                f"free-energy bound ({name}) = {value!r} below measured "
                f"Delta = {delta_measured!r}",
                which=name,
                bound=value,
                delta=delta_measured,
            )
    return FreeEnergyReport(
        F_total=F_total,
        F_V=F_V,
        F_boundary=F_boundary,
        E_min_V=E_min_V,
        bounds_a=bounds_a,
        bounds_b=bounds_b,
        bounds_c=bounds_c,
        a_applicable=a_applicable,
        b_applicable=b_applicable,
    )


def quasi_local_bound(C, rho, V):
    """Combined drift bound min over certified radii of 10 Delta(s) + f(s).

    The full channel need not be local; each certificate entry supplies an
    s-local surrogate within f(s), and the local theorem runs against the
    surrogate's partition while the tail contributes f(s) additively.
    """
    if not C.quasi_local_certificate:
        raise LocalityInsufficient("channel carries no quasi-local certificate")
    state = _density(rho, C.n)
    resid = _drift([C], state)
    if resid > tol.CHANNEL_FIXED_POINT_TOL:
        raise NotFixedPoint(f"steady-state residual {resid:.3e}")
    terms = {}
    best = (math.inf, None)
    for s in sorted(C.quasi_local_certificate):
        f_s, surrogate = C.quasi_local_certificate[s]
        loc = channel_locality(surrogate)
        if loc > s:
            raise LocalityInsufficient(f"surrogate for radius {s} detected as {loc}-local")
        _, (delta, _, _) = _local_hypotheses([surrogate], state, partition_from_radius(V, s))
        total = 10.0 * delta + f_s
        terms[s] = (delta, f_s, total)
        if total < best[0]:
            best = (total, s)
    lhs = _drift([C], conditioned_state(state, V))
    combined, best_s = best
    if lhs > combined + THEOREM_SLACK:
        raise BoundViolated(
            f"drift {lhs!r} exceeds quasi-local bound {combined!r}", lhs=lhs, bound=combined
        )
    return QuasiLocalReport(lhs=lhs, combined_bound=combined, best_radius=best_s, terms=terms)

