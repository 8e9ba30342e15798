"""Classical Markov chains and the four-set classical bottleneck bound.

Matrices are column-stochastic: entry [i, j] is the probability of moving
j -> i, so the chain acts on column probability vectors as pi' = M @ pi.
Every chain is held as a ``scipy.sparse.csc_array``: a single-bit-flip
chain on 2^m states stores m + 1 entries per column, and building it and
checking the bound allocate nothing of size 2^m x 2^m.

The stationary law is never solved for. A Metropolis chain satisfies
detailed balance with respect to the Gibbs weights e^{-beta E}/Z
(model.gibbs_weights), so the caller passes that law, and the bound
certifies it with two exact checks: the graph of strictly positive
entries is one strongly connected class, so the chain is irreducible and
its stationary law unique, and pi is stationary within a residual of
1e-10. Low temperatures, whose spectral gaps no eigensolver resolves,
are covered as long as every move keeps a positive probability.

The structural condition mirrors the quantum one: with the state space
split into disjoint sets A, B1, B2, C, single applications of M must not
connect A with B2 or C, nor C with A or B1. Builders place structural
(exact) zeros, so the condition check demands that every stored entry of
the forbidden blocks is exactly zero rather than small.

scipy is imported only inside the functions here that use it (the sparse
chains and the connectivity check), so that importing the package loads
numpy alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadPartition,
    BoundViolated,
    ConditionViolated,
    EmptyA,
    NonUniqueStationary,
    NotStochastic,
)
from .pauli import hamming_distance

__all__ = [
    "StochasticMatrix",
    "StatePartition",
    "ClassicalConditionReport",
    "ClassicalBottleneckReport",
    "check_classical_condition",
    "classical_bottleneck_report",
    "glauber_chain",
    "hamming_state_partition",
]

_GLAUBER_MAX_BITS = 16
_PROBABILITY_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10


@dataclass
class StochasticMatrix:
    """Column-stochastic matrix in CSC form; columns sum to 1 within 1e-12.

    Dense arrays and other sparse formats are converted on construction.
    Stored entries must be non-negative.
    """

    mat: object

    def __post_init__(self):
        from scipy import sparse

        M = self.mat
        if not sparse.issparse(M):
            M = np.asarray(M, dtype=np.float64)
            if M.ndim != 2:
                raise NotStochastic(f"expected square matrix, got {M.shape}")
        M = sparse.csc_array(M, dtype=np.float64)
        if M.shape[0] != M.shape[1]:
            raise NotStochastic(f"expected square matrix, got {M.shape}")
        M.sum_duplicates()
        if M.nnz and M.data.min() < 0:
            raise NotStochastic(f"negative entry {M.data.min():.3e}")
        dev = np.abs(M.sum(axis=0) - 1.0).max()
        if dev > 1e-12:
            raise NotStochastic(f"column sums deviate from 1 by {dev:.3e}")
        self.mat = M

    @property
    def dim(self):
        return self.mat.shape[0]


def _as_chain(M):
    return M if isinstance(M, StochasticMatrix) else StochasticMatrix(M)


@dataclass
class StatePartition:
    """Disjoint index sets A, B1, B2, C covering {0..dim-1}; A, C non-empty."""

    A: tuple
    B1: tuple
    B2: tuple
    C: tuple
    dim: int = field(default=None)

    def __post_init__(self):
        blocks = []
        for name in ("A", "B1", "B2", "C"):
            idx = tuple(sorted(int(i) for i in getattr(self, name)))
            setattr(self, name, idx)
            blocks.append(idx)
        allidx = [i for blk in blocks for i in blk]
        if len(set(allidx)) != len(allidx):
            raise BadPartition("blocks overlap")
        if self.dim is None:
            self.dim = len(allidx)
        if sorted(allidx) != list(range(self.dim)):
            raise BadPartition("blocks do not cover 0..dim-1")
        if not self.A or not self.C:
            raise BadPartition("A and C must be non-empty")

    @property
    def B(self):
        return tuple(sorted(self.B1 + self.B2))


def _certify_stationary(sm, pi):
    """Check that pi is the unique stationary law of the chain; return it
    as a float array.

    pi must be a probability vector: no negative entry and a sum within
    1e-12 of 1. Uniqueness: the graph of the chain's strictly positive
    entries must be one strongly connected class, so the chain is
    irreducible. Explicit stored zeros are dropped first, since the
    graph search counts every stored entry as an edge. Stationarity:
    ||M pi - pi||_1 <= 1e-10. Each failure raises NonUniqueStationary.
    """
    from scipy.sparse.csgraph import connected_components

    pi = np.asarray(pi, dtype=np.float64)
    total = float(pi.sum())
    if pi.min() < 0 or abs(total - 1.0) > _PROBABILITY_SUM_TOL:
        raise NonUniqueStationary(
            f"pi is not a probability vector (min {pi.min():.3e}, sum {total!r})"
        )
    graph = sm.mat.copy()
    graph.eliminate_zeros()
    classes, _ = connected_components(graph, directed=True, connection="strong")
    if classes != 1:
        raise NonUniqueStationary(
            f"chain is not irreducible: {classes} communicating classes"
        )
    resid = float(np.abs(sm.mat @ pi - pi).sum())
    if resid > _STATIONARY_TOL:
        raise NonUniqueStationary(f"pi is not stationary (residual {resid:.3e})")
    return pi


@dataclass
class ClassicalConditionReport:
    max_forbidden_entry: float
    passes: bool
    offending: tuple = None


def check_classical_condition(M, part):
    """Exact-zero check of the two forbidden blocks of M.

    The blocks are P_{B2 u C} M P_A and P_{A u B1} M P_C; every stored
    entry inside them must be exactly zero. ``offending`` is the (row,
    column) of the largest such entry.
    """
    sm = _as_chain(M)
    if part.dim != sm.dim:
        raise BadPartition(f"partition covers {part.dim} states, chain has {sm.dim}")
    coo = sm.mat.tocoo()
    label = np.empty(sm.dim, dtype=np.int8)
    for k, name in enumerate(("A", "B1", "B2", "C")):
        label[list(getattr(part, name))] = k
    to, frm = label[coo.row], label[coo.col]
    hits = np.flatnonzero(((frm == 0) & (to >= 2)) | ((frm == 3) & (to <= 1)))
    vals = np.abs(coo.data[hits])
    if not vals.any():
        return ClassicalConditionReport(0.0, True, None)
    j = hits[np.argmax(vals)]
    offending = (int(coo.row[j]), int(coo.col[j]))
    return ClassicalConditionReport(float(vals.max()), False, offending)


@dataclass
class ClassicalBottleneckReport:
    lhs: float
    bound: float
    pi_A: float
    pi_B: float
    pi_C: float
    condition_max: float


def classical_bottleneck_report(M, part, pi):
    """Verify ||M pi_A - pi_A||_1 <= 2 pi(B)/pi(A) for a conditioned chain.

    pi is the chain's stationary law in closed form, such as the Gibbs
    weights of a detailed-balance chain; _certify_stationary checks it
    before the bound is read. The theorem inequality is asserted with
    slack 1e-12; a violation raises BoundViolated since it would falsify
    the implementation, not the theorem. Both products are sparse
    matvecs.
    """
    sm = _as_chain(M)
    cond = check_classical_condition(sm, part)
    if not cond.passes:
        raise ConditionViolated(
            f"forbidden entry {cond.max_forbidden_entry:.3e} at {cond.offending}"
        )
    pi = _certify_stationary(sm, pi)
    pA = float(pi[list(part.A)].sum())
    pB = float(pi[list(part.B)].sum()) if part.B else 0.0
    pC = float(pi[list(part.C)].sum())
    if pA < 1e-14:
        raise EmptyA(f"pi(A) = {pA:.3e}")
    piA = np.zeros_like(pi)
    piA[list(part.A)] = pi[list(part.A)] / pA
    lhs = float(np.abs(sm.mat @ piA - piA).sum())
    bound = 2.0 * pB / pA
    if lhs > bound + 1e-12:
        raise BoundViolated(
            f"classical bottleneck bound violated: {lhs!r} > {bound!r}",
            lhs=lhs,
            bound=bound,
        )
    return ClassicalBottleneckReport(lhs, bound, pA, pB, pC, cond.max_forbidden_entry)


def glauber_chain(energies, beta, laziness=0.0):
    """Single-bit-flip Metropolis chain over bitstring states, in CSC form.

    Proposals pick one of the m bits uniformly (scaled by 1-laziness) and
    accept with min(1, e^{-beta dE}); the rest of each column stays put.
    Column j stores its m flips j ^ (1 << b) and the stay entry, so the
    chain holds (m + 1) 2^m entries and m may go up to 16. Detailed
    balance with respect to pi ~ e^{-beta E} holds exactly by
    construction.
    """
    from scipy import sparse

    E = np.asarray(energies, dtype=np.float64)
    dim = E.shape[0]
    m = int(dim).bit_length() - 1
    if 2**m != dim or not 1 <= m <= _GLAUBER_MAX_BITS:
        raise BadPartition(
            f"need 2^m energies with 1 <= m <= {_GLAUBER_MAX_BITS}, got {dim}"
        )
    if not 0 <= laziness < 1:
        raise ValueError(f"laziness {laziness} outside [0, 1)")
    idx = np.arange(dim)
    # Rows ascending down each column: the stay entry is then summed in the
    # order of a dense column sum, and matches the dense builder bit for bit.
    flip = np.sort(idx ^ (1 << np.arange(m))[:, None], axis=0)
    move = (1.0 - laziness) / m * np.minimum(1.0, np.exp(-beta * np.maximum(E[flip] - E, 0)))
    # With every flip accepted the moves sum to 1 + ulp; the stay entry is
    # clamped at 0 and the column-sum check still applies.
    stay = np.maximum(1.0 - move.sum(axis=0), 0.0)
    rows = np.concatenate([flip.ravel(), idx])
    cols = np.concatenate([np.tile(idx, m), idx])
    data = np.concatenate([move.ravel(), stay])
    return StochasticMatrix(sparse.csc_array((data, (rows, cols)), shape=(dim, dim)))


def hamming_state_partition(m, center, inner, width):
    """Shells by Hamming distance from a center bitstring.

    A is the ball of radius inner, B1/B2 the next two shells of the given
    width, C everything beyond. Suits chains whose single update moves at
    most `width` bits.
    """
    dim = 1 << m
    d = hamming_distance(m, [center])
    A = np.flatnonzero(d <= inner)
    B1 = np.flatnonzero((d > inner) & (d <= inner + width))
    B2 = np.flatnonzero((d > inner + width) & (d <= inner + 2 * width))
    C = np.flatnonzero(d > inner + 2 * width)
    return StatePartition(tuple(A), tuple(B1), tuple(B2), tuple(C), dim)
