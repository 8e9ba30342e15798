"""Kraus-represented quantum channels.

A channel is a list of Kraus operators summing to the identity under
K† K. Locality is measured per operator by splitting out each qubit and
comparing the four blocks against an identity factor. Quasi-local
channels carry a certificate table mapping a radius r to a distance
estimate f(r) together with the r-local surrogate that achieves it;
channels built as convex mixtures (1-p) local + p tail certify f(r) = 2p
without any diamond-norm computation.

The Metropolis samplers build their channels in monomial form instead
(MonomialKraus): K_m = W T_m W† for a label basis W of the model, with
one nonzero per column of T_m. A state diagonal in W is then a label
probability vector, and one step maps it to a vector. Trace preservation
is checked on those vectors at construction (on the dense operators when
some T_m has two nonzeros in one row). The dense list ``kraus`` is built
only when a dense consumer reads it: apply_channel, channel_locality,
check_partition_condition, evolve_sequence and quasi_local_mixture.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NotTracePreserving
from .numerics import DensityMatrix, matrix_of, operator_norm, trace_norm

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

# a forbidden Kraus block below this operator norm counts as zero
_ABS_TOL = 1e-10


class KrausChannel:
    """Trace-preserving channel given by explicit Kraus operators.

    A channel may be given in monomial form over a label basis instead
    (``monomial``, see MonomialKraus). Trace preservation is then checked
    on its coefficient vectors, and the dense operators in ``kraus`` are
    built on first read, by the consumers that need matrices.
    """

    def __init__(self, n, kraus=None, quasi_local_certificate=None, monomial=None):
        self.n = n
        self.quasi_local_certificate = quasi_local_certificate
        self.monomial = monomial
        self._kraus = None
        if monomial is not None:
            if monomial.basis.n != n:
                raise DimensionMismatch(
                    f"monomial form on {monomial.basis.n} qubits, channel on {n}"
                )
            resid = monomial.trace_residual()
            if resid is None:
                resid = _trace_residual(self.kraus, self.dim)
        else:
            if not kraus:
                raise EmptyInput("channel needs at least one Kraus operator")
            ops = []
            for K in kraus:
                K = np.asarray(K, dtype=np.complex128)
                if K.shape != (self.dim, self.dim):
                    raise DimensionMismatch(
                        f"Kraus shape {K.shape} does not match 2^{n}"
                    )
                ops.append(K)
            self._kraus = ops
            resid = _trace_residual(ops, self.dim)
        if resid > 1e-9:
            raise NotTracePreserving(
                f"sum of K†K deviates from identity by {resid:.3e}"
            )

    @property
    def dim(self):
        return 1 << self.n

    @property
    def kraus(self):
        """Dense Kraus operators, built from the monomial form on first read."""
        if self._kraus is None:
            self._kraus = self.monomial.dense()
        return self._kraus


def _trace_residual(ops, dim):
    total = sum(K.conj().T @ K for K in ops)
    return float(np.abs(total - np.eye(dim)).max())


@dataclass
class MonomialKraus:
    """Kraus operators K_m = W T_m W† with every T_m monomial in the labels.

    W is a LabelBasis. Column j of T_m holds coef[m, j] in row rows[m, j]
    and nothing else, so K_m maps each label state to one label state.
    A state diagonal in W, given by its label probabilities p, stays
    diagonal: one step sends p to sum_m |coef_m|^2 p scattered to rows_m.
    """

    basis: object
    rows: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        dim = self.basis.dim
        if self.rows.ndim != 2 or self.rows.shape[1] != dim or self.coef.shape != self.rows.shape:
            raise DimensionMismatch(
                f"monomial rows {self.rows.shape} and coef {self.coef.shape} "
                f"need shape (kraus, {dim})"
            )
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= dim):
            raise DimensionMismatch("monomial row outside the label range")
        self.weights = np.abs(self.coef) ** 2

    def step(self, p):
        """Label probabilities after one application."""
        dim = self.basis.dim
        return np.bincount(
            self.rows.ravel(), weights=(self.weights * p).ravel(), minlength=dim
        )

    def residual(self, p):
        """l1 distance between p and its image: zero when p is a fixed point."""
        return float(np.abs(self.step(p) - p).sum())

    def trace_residual(self):
        """max |sum_m |coef_m|^2 - 1|, or None when some T_m has two
        nonzeros in one row (T_m† T_m is then not diagonal)."""
        for rows, coef in zip(self.rows, self.coef):
            hit = rows[coef != 0]
            if np.unique(hit).size != hit.size:
                return None
        return float(np.abs(self.weights.sum(axis=0) - 1.0).max())

    def forbidden_norm(self, src, dst):
        """Largest operator norm over m of the block of T_m from src to dst.

        src and dst are boolean masks over the labels. A monomial block B
        has B B† diagonal, so its norm is the square root of the largest
        row sum of |coef|^2 over entries with column in src and row in dst.
        """
        hit = src[None, :] & dst[self.rows]
        if not hit.any():
            return 0.0
        dim = self.basis.dim
        slot = np.arange(self.rows.shape[0])[:, None] * dim + self.rows
        sums = np.bincount(slot[hit], weights=self.weights[hit])
        return math.sqrt(float(sums.max()))

    def dense(self):
        """The Kraus operators as dense matrices in the computational basis."""
        dim = self.basis.dim
        cols = np.arange(dim)
        if self.basis.identity:
            ops = []
            for rows, coef in zip(self.rows, self.coef):
                K = np.zeros((dim, dim), dtype=np.complex128)
                K[rows, cols] = coef
                ops.append(K)
            return ops
        W = self.basis.dense()
        return [(W[:, rows] * coef) @ W.conj().T for rows, coef in zip(self.rows, self.coef)]


@dataclass
class PartitionConditionReport:
    residual: float
    passes: bool
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
        off_dev = max(
            np.abs(blk[:, 0, :, :, 1, :]).max(), np.abs(blk[:, 1, :, :, 0, :]).max()
        )
        if max(diag_dev, off_dev) > 1e-9:
            support.append(q)
    return tuple(support)


def channel_locality(C):
    """Largest detected Kraus support size."""
    return max(len(_kraus_support(K, C.n)) for K in C.kraus)


def check_partition_condition(C, part):
    """Operator-norm residual of the two forbidden Kraus blocks.

    Norms are taken on isometry-compressed blocks: ||(P_C + P_B2) K P_A||
    equals the norm of basis†_{B2,C} K basis_A, which keeps the
    computation at subspace size.
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
    return PartitionConditionReport(worst, worst < _ABS_TOL, worst_idx)


def evolve_sequence(channels, rho0, rho_ref, T):
    """Iterator of trace distances to a reference after t = 0..T steps.

    Step t applies channels[(t - 1) % len(channels)]. The arguments are
    validated at the call; each step is computed only when the iterator
    is advanced, so a caller that stops at a threshold pays for the steps
    it read and no more.
    """
    if not channels:
        raise DimensionMismatch("need at least one channel")
    dim = channels[0].dim
    for C in channels:
        if C.dim != dim:
            raise DimensionMismatch("channels act on different registers")
    state = matrix_of(rho0)
    ref = matrix_of(rho_ref)
    if state.shape != (dim, dim) or ref.shape != (dim, dim):
        raise DimensionMismatch("state dimensions do not match the channels")
    return _distances(channels, state, ref, T)


def _distances(channels, state, ref, T):
    yield trace_norm(state - ref)
    for t in range(1, T + 1):
        C = channels[(t - 1) % len(channels)]
        nxt = np.zeros_like(state)
        for K in C.kraus:
            nxt += K @ state @ K.conj().T
        state = nxt
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

