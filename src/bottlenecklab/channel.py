"""Kraus-represented quantum channels.

A channel is a list of Kraus operators summing to the identity under
K† K. Locality is measured per operator by splitting out each qubit and
comparing the four blocks against an identity factor. Quasi-local
channels carry a certificate table mapping a radius r to a distance
estimate f(r) together with the r-local surrogate that achieves it;
channels built as convex mixtures (1-p) local + p tail certify f(r) = 2p
without any diamond-norm computation.

The Metropolis samplers build their channels in monomial form instead
(MonomialKraus, made by _trusted_channel alone): K_m = W T_m W† for a
label basis W of the model, where
T_m moves every label j to j ^ moves[m] with amplitude coef[m, j], one
XOR mask per Kraus operator. A state diagonal in W is then a label
probability vector, and the channel acts on it as a classical chain:
``MonomialKraus.chain`` is the markov.StochasticMatrix of the form's own
(k, 1) masks and weights |coef|^2. Every label step, fixed-point
residual and drift runs through it. Every T_m permutes the labels, so
trace preservation is the chain's column sums; the sampler that builds
a form checks them, and its Gibbs residual, through that chain.
The dense list ``kraus`` is built only when a dense consumer reads it:
apply_channel, check_partition_condition and quasi_local_mixture,
channel_locality for a form over a basis other than the identity, and
evolve_sequence for states without labels over the forms' basis. The
CLI reaches only channel_locality of these, on a CSS family's forms.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as tol
from .errors import DimensionMismatch, EmptyInput, NotTracePreserving
from .markov import StochasticMatrix
from .numerics import DensityMatrix, label_weights, matrix_of, operator_norm, trace_norm

__all__ = [
    "KrausChannel",
    "MonomialKraus",
    "PartitionConditionReport",
    "apply_channel",
    "channel_locality",
    "check_partition_condition",
    "evolve_sequence",
    "quasi_local_mixture",
]

# most entries of stacked monomial forms that one batched pass holds
_STACK_ENTRIES = 1 << 16


class KrausChannel:
    """Trace-preserving channel given by explicit Kraus operators.

    A channel in monomial form over a label basis (see MonomialKraus) is
    built by _trusted_channel instead, and the dense operators in
    ``kraus`` are then built on first read, by the consumers that need
    matrices. ``fixes`` is None, or the read-only label vector that the
    sampler which built the channel checked it to fix.
    """

    fixes = None
    monomial = None

    def __init__(self, n, kraus, quasi_local_certificate=None):
        self.n = n
        self.quasi_local_certificate = quasi_local_certificate
        # a list of operators or one stacked array of them
        ops = [np.asarray(K, dtype=np.complex128) for K in kraus]
        if not ops:
            raise EmptyInput("channel needs at least one Kraus operator")
        for K in ops:
            if K.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"Kraus shape {K.shape} does not match 2^{n}")
        self.kraus = ops
        resid = _trace_residual(ops, self.dim)
        # NaN fails the comparison too
        if not resid <= tol.KRAUS_TRACE_TOL:
            raise NotTracePreserving(f"sum of K†K deviates from identity by {resid:.3e}")

    @property
    def dim(self):
        return 1 << self.n

    @functools.cached_property
    def kraus(self):
        """Dense Kraus operators, built from the monomial form on first read."""
        return self.monomial.dense()


def _trusted_channel(basis, moves, coef, weights):
    """KrausChannel of the form (moves, coef, weights = |coef|^2) over
    basis, the one builder of monomial channels. It checks nothing: each
    sampler checks the channels it builds (sampler._checked)."""
    chan = object.__new__(KrausChannel)
    chan.n, chan.quasi_local_certificate = basis.n, None
    chan.monomial = MonomialKraus(basis, moves, coef, weights)
    return chan


def _trace_residual(ops, dim):
    total = sum(K.conj().T @ K for K in ops)
    return float(np.abs(total - np.eye(dim)).max())


@dataclass
class MonomialKraus:
    """Kraus operators K_m = W T_m W† with every T_m monomial in the labels.

    W is a LabelBasis. Column j of T_m holds coef[m, j] in row
    j ^ moves[m, 0] and nothing else: moves is a (k, 1) column of XOR
    masks, one per Kraus operator, so T_m permutes the labels (coef is
    complex, or real in the forms of sampler._site_channels). A state
    diagonal in W, given by its label probabilities p, stays diagonal:
    one step sends p to sum_m |coef_m|^2 p scattered to j ^ moves_m,
    which is ``chain.step(p)``.
    """

    basis: object
    moves: np.ndarray
    coef: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def chain(self):
        """The channel on label probabilities, as a StochasticMatrix over
        the form's own masks and weights. The sampler that builds the form
        stands for its checks: masks in range, weights |coef|^2, and
        column sums, the diagonal of sum_m T_m† T_m (trace_residual),
        which sampler._checked reads."""
        return StochasticMatrix._trusted(self.moves, self.weights)

    def trace_residual(self):
        """max |sum_m |coef_m|^2 - 1|: every T_m permutes the labels, so
        sum_m T_m† T_m is the diagonal of the column sums."""
        return float(np.abs(self.weights.sum(axis=0) - 1.0).max())

    def dense(self):
        """The Kraus operators as dense matrices in the computational basis."""
        dim = self.basis.dim
        cols = np.arange(dim)
        if self.basis.identity:
            ops = []
            for move, coef in zip(self.moves, self.coef):
                K = np.zeros((dim, dim), dtype=np.complex128)
                K[cols ^ move, cols] = coef
                ops.append(K)
            return ops
        W = self.basis.dense()
        return [(W[:, cols ^ move] * coef) @ W.conj().T for move, coef in zip(self.moves, self.coef)]


@dataclass
class PartitionConditionReport:
    residual: float
    worst_kraus: int = None


def apply_channel(C, rho):
    """Sum of K rho K† as a new density matrix."""
    mat = matrix_of(rho)
    if mat.shape != (C.dim, C.dim):
        raise DimensionMismatch(f"state shape {mat.shape} vs channel dim {C.dim}")
    out = np.zeros_like(mat, dtype=np.complex128)
    for K in C.kraus:
        out += K @ mat @ K.conj().T
    return DensityMatrix(out, C.n)


def _kraus_support(K, n):
    """Qubits on which K differs from an identity tensor factor."""
    support = []
    for q in range(n):
        left = 1 << q
        right = 1 << (n - 1 - q)
        blk = K.reshape(left, 2, right, left, 2, right)
        diag_dev = np.abs(blk[:, 0, :, :, 0, :] - blk[:, 1, :, :, 1, :]).max()
        off_dev = max(np.abs(blk[:, 0, :, :, 1, :]).max(), np.abs(blk[:, 1, :, :, 0, :]).max())
        if max(diag_dev, off_dev) > tol.SUPPORT_TOL:
            support.append(q)
    return tuple(support)


def _monomial_supports(masks, coef, n):
    """(k, n) bool: the _kraus_support of every K = sum_j coef[j]
    |j ^ mask><j| of a stack of k forms, (k, 1) masks, in one pass per
    qubit with the same rule and tolerance, no matrix formed.

    For qubit q with bit b, the dense rule asks the entries that change
    bit q to vanish and compares the entries that keep it against their
    partners with bit q flipped on both sides. A form's entries all
    change bit q when its mask holds b, and none does otherwise. So q is
    in its support, in the first case, when some entry passes the
    tolerance; in the second, when coef[j] and coef[j ^ b], the two halves
    of a (2^q, 2, b) view, differ by more than it.
    """
    k = len(coef)
    bits = 1 << np.arange(n - 1, -1, -1)
    moved = (masks & bits) != 0
    support = moved & (np.abs(coef) > tol.SUPPORT_TOL).any(axis=1, keepdims=True)
    for q, b in enumerate(bits.tolist()):
        halves = coef.reshape(k, 1 << q, 2, b)
        lo, hi = halves[:, :, 0], halves[:, :, 1]
        if (lo == hi).all():
            continue
        dev = np.abs(lo - hi).reshape(k, -1).max(axis=1)
        support[:, q] |= ~moved[:, q] & (dev > tol.SUPPORT_TOL)
    return support


def channel_locality(C):
    """Largest detected Kraus support size of a channel, or of a list:
    forms over the identity basis stacked per _STACK_ENTRIES entries
    (real if no form has an imaginary part) for _monomial_supports, any
    other channel from its dense operators by _kraus_support."""
    channels = {id(c): c for c in (C if isinstance(C, (list, tuple)) else [C])}.values()
    dense = [c for c in channels if c.monomial is None or not c.monomial.basis.identity]
    forms = [c.monomial for c in channels if c not in dense]
    sizes = [len(_kraus_support(K, c.n)) for c in dense for K in c.kraus]
    real = not any(np.iscomplexobj(f.coef) and f.coef.imag.any() for f in forms)
    block = max(1, _STACK_ENTRIES // forms[0].coef.size) if forms else 1
    for lo in range(0, len(forms), block):
        stack = forms[lo : lo + block]
        masks = np.concatenate([f.moves for f in stack])
        coef = np.concatenate([f.coef.real if real else f.coef for f in stack])
        sizes.append(int(_monomial_supports(masks, coef, forms[0].basis.n).sum(axis=1).max()))
    return max(sizes)


def check_partition_condition(C, part):
    """Operator-norm residual of the two forbidden Kraus blocks.

    Norms are taken on isometry-compressed blocks: ||(P_C + P_B2) K P_A||
    equals the norm of basis†_{B2,C} K basis_A, which keeps the
    computation at subspace size. The theorem checks raise on a residual
    of DENSE_CONDITION_TOL or more.
    """
    if part.A.basis.shape[0] != C.dim:
        raise DimensionMismatch("partition register differs from channel register")
    out_a = np.hstack([part.B2.basis, part.C.basis])
    out_c = np.hstack([part.A.basis, part.B1.basis])
    worst = 0.0
    worst_idx = None
    for i, K in enumerate(C.kraus):
        r1 = operator_norm(out_a.conj().T @ K @ part.A.basis) if out_a.size and part.A.dim else 0.0
        r2 = operator_norm(out_c.conj().T @ K @ part.C.basis) if out_c.size and part.C.dim else 0.0
        r = max(r1, r2)
        if r > worst:
            worst, worst_idx = r, i
    return PartitionConditionReport(worst, worst_idx)


def evolve_sequence(channels, rho0, rho_ref, T):
    """Iterator of trace distances to a reference after t = 0..T steps.

    Step t applies channels[(t - 1) % len(channels)]. The arguments are
    validated at the call; each step is computed only when the iterator
    is advanced, so a caller that stops at a threshold pays for the steps
    it read and no more.

    When every channel is monomial over one label basis W and both
    states carry labels over W (DensityMatrix.from_labels), every state
    stays W diag(p_t) W^dag, p_t the step of p_{t-1} by the channel's
    chain, and the trace distance to W diag(q) W^dag is ||p_t - q||_1.
    Any other input evolves dense matrices.
    """
    if not channels:
        raise DimensionMismatch("need at least one channel")
    dim = channels[0].dim
    for C in channels:
        if C.dim != dim:
            raise DimensionMismatch("channels act on different registers")
    forms = _monomial_forms(channels)
    if forms is not None:
        p = label_weights(rho0, forms[0].basis)
        q = label_weights(rho_ref, forms[0].basis)
        if p is not None and q is not None:
            return _label_distances(forms, p, q, T)
    state = matrix_of(rho0)
    ref = matrix_of(rho_ref)
    if state.shape != (dim, dim) or ref.shape != (dim, dim):
        raise DimensionMismatch("state dimensions do not match the channels")
    return _distances(channels, state, ref, T)


def _monomial_forms(channels):
    """The monomial forms of the channels when every channel has one and
    all share one basis W (same_as); None otherwise."""
    forms = [C.monomial for C in channels]
    if any(form is None for form in forms):
        return None
    if not all(form.basis.same_as(forms[0].basis) for form in forms[1:]):
        return None
    return forms


def _label_distances(forms, p, q, T):
    chains = [form.chain for form in forms]
    diff = np.empty_like(q)  # |p - q|, one buffer for every step

    def distance(p):
        np.subtract(p, q, out=diff)
        return float(np.abs(diff, out=diff).sum())

    yield distance(p)
    for t in range(1, T + 1):
        p = chains[(t - 1) % len(chains)].step(p)
        yield distance(p)


def _distances(channels, state, ref, T):
    yield trace_norm(state - ref)
    for t in range(1, T + 1):
        state = apply_channel(channels[(t - 1) % len(channels)], state).mat
        yield trace_norm(state - ref)


def quasi_local_mixture(local, tail, p):
    """Convex mixture (1-p) local + p tail with its locality certificate.

    The surrogate at radius r = locality(local) is the local part itself;
    the certified distance is f(r) = 2p, from pulling the mixture apart
    term by term.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"mixture weight {p} outside [0, 1]")
    if local.n != tail.n:
        raise DimensionMismatch("mixture parts act on different registers")
    kraus = [np.sqrt(1 - p) * K for K in local.kraus]
    kraus += [np.sqrt(p) * K for K in tail.kraus]
    r = channel_locality(local)
    cert = {r: (2.0 * p, local)}
    return KrausChannel(local.n, kraus, quasi_local_certificate=cert)

