"""Classical Markov chains and the four-set classical bottleneck bound.

Matrices are column-stochastic: entry [i, j] is the probability of moving
j -> i, so the chain acts on column probability vectors as pi' = M @ pi.
Every chain is held in one op-major layout: (k, dim) weights and integer
moves broadcastable against them, entry k of column j moving weights[k, j]
to j ^ moves[k, j]: a (k, 1) column of masks for the Glauber, site and CSS
chains (one shift per entry row, 0 to stay), else (k, dim) moves, rows ^ j
for explicit rows (``from_columns``, the birth-death chains). A target may
repeat inside a column, and the weights of a repeated target add; short
columns are padded with zero weights. A monomial Kraus form
(channel.MonomialKraus) holds (k, 1) masks only, and its chain on label
probabilities is its masks with weights |coef|^2, so the quantum label
path and the classical path step, check and drift through one kernel,
which reads either shape of moves by broadcasting; the samplers' Gibbs
check of every channel they build is one such step. A step p -> M p adds
each target's entries in k order, by one bincount over the flattened
form or, for masks past _STEP_CHUNK entries, by a gather through XOR
views, and a column sum adds the entries of each column in k order.
Nothing of size 2^m x 2^m is formed. A GlauberTable keeps what the
chains of one energy vector share at every beta (the masks, the uphill
jumps and a partition's forbidden positions), so each beta costs one
acceptance pass and the checks of its weights.

The stationary law is never solved for. A Metropolis chain satisfies
detailed balance with respect to the Gibbs weights e^{-beta E}/Z
(model.gibbs_weights), so the caller passes that law, and the bound
certifies it with two exact checks: the chain is irreducible, so its
stationary law is unique, and pi is stationary within a residual of
STATIONARY_TOL; the residual is one step, so it makes no temporary of
the form's size. A chain whose every column moves with positive weight
to each of its m single-bit flips holds every edge of the m-cube in
both directions, so it is irreducible by construction (the hypercube
walk, Levin-Peres-Wilmer, Markov Chains and Mixing Times, 2nd ed.), read
from its masks and the signs of its flips' weights.
Any other chain, such as one whose uphill moves underflow to 0 or a
birth-death chain, gets a strong-connectivity search over its strictly
positive entries. Low temperatures, whose spectral gaps no eigensolver
resolves, are covered as long as every move keeps a positive probability.

The structural condition mirrors the quantum one: with the state space
split into disjoint sets A, B1, B2, C, single applications of M must not
connect A with B2 or C, nor C with A or B1. Builders place structural
(exact) zeros, so the condition check demands that every stored entry of
the forbidden blocks is exactly zero rather than small. The split is one
block label per state (0 for A, 1 for B1, 2 for B2, 3 for C), the array
that a subspace.HilbertPartition over the identity basis keeps
(part.labels[1]). The check, the bound and a GlauberTable take that
array and refuse it unless it has one label 0..3 per state and A and C
are non-empty; forbidden_entry and conditioned_drift, which reads pi(A),
pi(B), pi(C) and the drift of pi conditioned on A, take it as it is, so
the quantum label path, whose C may be empty, runs them too.

scipy is imported only where it is used: forming
``StochasticMatrix.mat`` on first read, and the connectivity search for
a chain without the single-flip certificate. Importing the
package, and a verify-classical run whose chains carry the certificate,
load numpy alone.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as tol
from .errors import (
    BadPartition,
    BoundViolated,
    ConditionViolated,
    EmptyA,
    NonUniqueStationary,
    NotStochastic,
)

__all__ = [
    "StochasticMatrix",
    "ClassicalConditionReport",
    "ClassicalBottleneckReport",
    "check_classical_condition",
    "classical_bottleneck_report",
    "conditioned_drift",
    "forbidden_entry",
    "GlauberTable",
]

# The largest n at which a whole verify-classical run (ising_ring, four
# betas, width 1, --jobs 1) stays within 10 s and 1 GB on a 2-core
# machine, peak RSS in MiB at inner 1, 9 and 17: n=20 takes 2.1-3.8 s and
# 461-469, n=21 5.0-7.4 s and 917-937 (its uphill jumps and one beta's
# weights are 336 and 352 MiB).
_GLAUBER_MAX_BITS = 21
# The most entries StochasticMatrix.step reads by one flat bincount; past it (k, 1) masks
# gather row by row (ising_ring Glauber steps, n=6: 3.8 us flat, 15.7 gathered; n=11: 73, 65).
_STEP_CHUNK = 1 << 13


class StochasticMatrix:
    """Column-stochastic matrix in op-major XOR form; columns sum to 1
    within COLUMN_SUM_TOL and every weight is non-negative (NotStochastic
    otherwise).

    Built from explicit rows by ``from_columns``; ``moves``, (k, 1) or
    (k, dim), and ``weights`` are stored read-only. ``mat`` is the matrix
    as a scipy CSC array, formed on first read; stored zeros of the form
    stay stored, and the weights of a repeated target are added.
    """

    @classmethod
    def from_columns(cls, rows, weights):
        """The chain whose column j moves weights[k, j] to rows[k, j] for
        every k, held as the (k, dim) moves rows ^ j. The weights are
        kept, not copied, and made read-only."""
        rows, weights = np.asarray(rows), np.asarray(weights, dtype=np.float64)
        if rows.ndim != 2 or rows.shape != weights.shape or rows.shape[0] == 0:
            raise NotStochastic(f"column form of shapes {rows.shape} and {weights.shape}")
        if rows.min() < 0 or rows.max() >= rows.shape[1]:
            raise NotStochastic(f"rows outside 0..{rows.shape[1] - 1}")
        self = cls._trusted(rows ^ np.arange(rows.shape[1]), weights)
        self._check_weights()
        return self

    @classmethod
    def _trusted(cls, moves, weights):
        """from_columns on moves, without its checks, for a caller that has
        made them: masks below a power-of-two dim stay in range, and the
        sampler that builds a monomial Kraus form checks its column sums."""
        moves, weights = np.asarray(moves), np.asarray(weights, dtype=np.float64)
        k = weights.shape[0] if weights.ndim == 2 else 0
        if k == 0 or moves.shape not in ((k, 1), weights.shape):
            raise NotStochastic(f"form of moves {moves.shape} and weights {weights.shape}")
        moves.setflags(write=False)
        weights.setflags(write=False)
        self = cls.__new__(cls)
        self.moves, self.weights = moves, weights
        return self

    def _check_weights(self):
        weights = self.weights
        low = weights.min()
        if not low >= 0:
            raise NotStochastic(f"negative entry {low:.3e}")
        dev = np.abs(weights.sum(axis=0) - 1.0).max()
        if not dev <= tol.COLUMN_SUM_TOL:
            raise NotStochastic(f"column sums deviate from 1 by {dev:.3e}")

    @property
    def dim(self):
        return self.weights.shape[1]

    @functools.cached_property
    def mat(self):
        """The chain as a scipy CSC array, formed on first read."""
        from scipy import sparse

        cols = np.broadcast_to(np.arange(self.dim), self.weights.shape)
        coo = sparse.coo_array(
            (self.weights.ravel(), ((cols ^ self.moves).ravel(), cols.ravel())),
            shape=(self.dim, self.dim),
        )
        coo.sum_duplicates()
        return coo.tocsc()

    def step(self, p, cols=None):
        """M @ p. When cols is given, p is zero outside those columns and
        only they are read; ascending cols give a whole step's bits, as
        the others add exact zeros. One flat bincount over the targets
        j ^ moves up to _STEP_CHUNK entries read, and for (k, dim) moves;
        past it (k, 1) masks gather row by row, out[j] += (w p)[j ^ c] through
        _xor_views, cols or not: each target adds in k order, the same bits."""
        k, dim = self.weights.shape
        if k * (dim if cols is None else len(cols)) > _STEP_CHUNK and self.moves.shape[1] == 1:
            out = np.zeros(dim)
            for w, (shape, flip) in zip(self.weights, self._xor_views):
                at = out.reshape(shape)
                at += (w * p).reshape(shape)[flip]
            return out
        if cols is None:
            targets, scaled = _index(dim) ^ self.moves, self.weights * p
        else:  # wrap mode reads a (k, 1) column's one mask for every j
            targets = cols ^ np.take(self.moves, cols, axis=1, mode="wrap")
            scaled = self.weights[:, cols] * p[cols]
        return np.bincount(targets.ravel(), scaled.ravel(), minlength=dim)

    @functools.cached_property
    def _xor_views(self):
        """(shape, flip) per mask c, so that v.reshape(shape)[flip] is v[j ^ c]:
        one axis per bit, the top one first, reversed where c has the bit."""
        n, flips = self.dim.bit_length() - 1, (slice(None), slice(None, None, -1))
        masks = self.moves[:, 0].tolist()
        return [((2,) * n, tuple(flips[c >> b & 1] for b in range(n - 1, -1, -1))) for c in masks]

    def residual(self, p):
        """||M p - p||_1: zero when p is a fixed point."""
        return float(np.abs(self.step(p) - p).sum())

    def single_flip_certified(self):
        """Whether the chain is a single-bit-flip chain with every flip
        positive, read from the masks: dim is 2^m, each of the m + 1 entry
        rows moves every column by one mask, the masks are 0 and each
        1 << b exactly once, and every flip has positive weight. The chain
        then holds every edge of the m-cube both ways and is irreducible."""
        k, dim = self.weights.shape
        masks = self.moves[:, 0]
        return bool(
            dim == 1 << (k - 1)
            and (self.moves == masks[:, None]).all()
            and np.array_equal(np.sort(masks), np.append(0, 1 << np.arange(k - 1)))
            and (self.weights.min(axis=1) > 0)[masks != 0].all()
        )

    def communicating_classes(self):
        """Strongly connected classes of the graph of strictly positive
        entries, by scipy's graph search on ``mat``. Stored zeros are
        dropped first, since the search counts every stored entry as an
        edge."""
        from scipy.sparse.csgraph import connected_components

        graph = self.mat.copy()
        graph.eliminate_zeros()
        return connected_components(graph, directed=True, connection="strong")[0]


@functools.lru_cache(maxsize=4)
def _index(dim):
    """arange(dim), read-only and kept: a step reads it at every call."""
    idx = np.arange(dim)
    idx.setflags(write=False)
    return idx


def _block_labels(label, dim):
    """One block label per state of a chain on dim states, as int8:
    BadPartition unless label has shape (dim,), every label is 0..3, and
    A (0) and C (3) are non-empty."""
    label = np.asarray(label)
    if label.shape != (dim,):
        raise BadPartition(f"block labels of shape {label.shape}, the chain has {dim} states")
    if label.min() < 0 or label.max() > 3:
        raise BadPartition("block labels must be 0..3")
    if not (label == 0).any() or not (label == 3).any():
        raise BadPartition("A and C must be non-empty")
    return label.astype(np.int8, copy=False)


def _certify_stationary(sm, pi):
    """Check that pi is the unique stationary law of the chain; return it
    as a float array.

    pi must be a probability vector: no negative entry and a sum within
    PROBABILITY_SUM_TOL of 1. Uniqueness: the chain must be irreducible,
    certified structurally for a single-bit-flip chain with every flip
    positive and otherwise by a graph search over the strictly positive
    entries, which must form one strongly connected class. Stationarity:
    ||M pi - pi||_1 <= STATIONARY_TOL. Each failure raises
    NonUniqueStationary.
    """
    pi = np.asarray(pi, dtype=np.float64)
    total = float(pi.sum())
    if pi.min() < 0 or abs(total - 1.0) > tol.PROBABILITY_SUM_TOL:
        raise NonUniqueStationary(
            f"pi is not a probability vector (min {pi.min():.3e}, sum {total!r})"
        )
    if not sm.single_flip_certified():
        classes = sm.communicating_classes()
        if classes != 1:
            raise NonUniqueStationary(
                f"chain is not irreducible: {classes} communicating classes"
            )
    resid = sm.residual(pi)
    if resid > tol.STATIONARY_TOL:
        raise NonUniqueStationary(f"pi is not stationary (residual {resid:.3e})")
    return pi


@dataclass
class ClassicalConditionReport:
    max_forbidden_entry: float
    passes: bool
    offending: tuple = None


def check_classical_condition(sm, label):
    """Exact-zero check of the two forbidden blocks of a StochasticMatrix M
    for one block label per state (_block_labels).

    The blocks are P_{B2 u C} M P_A and P_{A u B1} M P_C; every stored
    entry inside them must be exactly zero. ``offending`` is the (row,
    column) of the largest such entry, the first in column order on a
    tie.
    """
    top, offending = forbidden_entry(sm, _block_labels(label, sm.dim))
    return ClassicalConditionReport(top, offending is None, offending)


def forbidden_entry(sm, label):
    """(largest weight, (row, column)) over the entries of a chain that
    move a state of block 0 (A) to block 2 or 3 (B2, C), or of block 3
    to block 0 or 1, for one block label per state; (0.0, None) when
    every such entry is exactly zero. Any block may be empty."""
    return _forbidden_top(sm, _forbidden_positions(sm.moves, label))


def _forbidden_positions(moves, label):
    """(columns, positions) of the forbidden entries of a form with these
    moves, in column order; they depend on the moves and the blocks alone."""
    to = label[_index(label.size) ^ moves]
    forbidden = ((label == 0) & (to >= 2)) | ((label == 3) & (to <= 1))
    # transposed: column by column, a tie to the first; none when empty (strided nonzero is slow)
    return np.nonzero(forbidden.T if forbidden.any() else forbidden[:0])


def _forbidden_top(sm, forbidden):
    """forbidden_entry of a chain from its forbidden positions."""
    cols, pos = forbidden
    vals = sm.weights[pos, cols]
    top = float(vals.max(initial=0.0))
    if top == 0.0:
        return 0.0, None
    at = int(np.argmax(vals))
    return top, (int(cols[at] ^ np.take(sm.moves[pos[at]], cols[at], mode="wrap")), int(cols[at]))


def conditioned_drift(chains, label, pi, sets=None):
    """(pi(A), pi(B), pi(C), ||M_t ... M_1 pi_A - pi_A||_1) for one block
    label per state (0 for A, 1 and 2 for B, 3 for C), or sets, its kept
    _block_sets, and pi_A the law pi conditioned on A, carried through the
    chains in order. pi(A) at or below EMPTY_WEIGHT_TOL raises EmptyA, as
    an empty quantum A block does. The first step reads A's columns only,
    or the whole chain past a third of it: cheaper, and the same bits."""
    in_A, in_B, in_C, cols = _block_sets(label) if sets is None else sets
    pA, pB, pC = (float(pi[s].sum()) for s in (in_A, in_B, in_C))
    if pA <= tol.EMPTY_WEIGHT_TOL:
        raise EmptyA(f"pi(A) = {pA:.3e}")
    piA = np.where(in_A, pi, 0.0) / pA
    evolved = chains[0].step(piA, cols if 3 * cols.size <= len(pi) else None)
    for sm in chains[1:]:
        evolved = sm.step(evolved)
    return pA, pB, pC, float(np.abs(evolved - piA).sum())


def _block_sets(label):
    """The masks of A, B (B1 and B2) and C, and A's columns: the drift's."""
    in_A = label == 0
    return in_A, (label == 1) | (label == 2), label == 3, np.flatnonzero(in_A)


@dataclass
class ClassicalBottleneckReport:
    lhs: float
    bound: float
    pi_A: float
    pi_B: float
    pi_C: float
    condition_max: float


def classical_bottleneck_report(sm, label, pi):
    """Verify ||M pi_A - pi_A||_1 <= 2 pi(B)/pi(A) for a conditioned chain
    M, a StochasticMatrix, and one block label per state (_block_labels).

    pi is the chain's stationary law in closed form, such as the Gibbs
    weights of a detailed-balance chain; _certify_stationary checks it
    before the bound is read. pi(A) at or below EMPTY_WEIGHT_TOL raises
    EmptyA. The theorem inequality is asserted with slack
    CLASSICAL_BOUND_SLACK; a violation raises BoundViolated since it
    would falsify the implementation, not the theorem.
    """
    return _bottleneck_report(sm, label, check_classical_condition(sm, label), pi)


def _bottleneck_report(sm, label, cond, pi):
    """classical_bottleneck_report of a chain whose condition report on
    the block labels is given."""
    if not cond.passes:
        raise ConditionViolated(
            f"forbidden entry {cond.max_forbidden_entry:.3e} at {cond.offending}"
        )
    pi = _certify_stationary(sm, pi)
    pA, pB, pC, lhs = conditioned_drift([sm], label, pi)
    bound = 2.0 * pB / pA
    if lhs > bound + tol.CLASSICAL_BOUND_SLACK:
        raise BoundViolated(
            f"classical bottleneck bound violated: {lhs!r} > {bound!r}",
            lhs=lhs,
            bound=bound,
        )
    return ClassicalBottleneckReport(lhs, bound, pA, pB, pC, cond.max_forbidden_entry)


class GlauberTable:
    """What the single-bit-flip Metropolis chains of one energy vector
    share at every beta: the (m + 1, 1) masks, 1 << b for b ascending and
    0 for the stay entry, and the (m, 2^m) uphill jumps
    max(E[j ^ (1 << b)] - E[j], 0), read-only. Given one block label per
    state, the table also keeps the positions of its forbidden entries.

    The forbidden positions are found once, here; ``chain`` then costs
    one acceptance pass per beta and checks only the weights, and
    ``report`` runs the classical bound on that chain with the kept
    positions. Raises BadPartition unless there are 2^m energies with
    1 <= m <= _GLAUBER_MAX_BITS, or when the block labels are not one per
    state of _block_labels.
    """

    def __init__(self, energies, label=None):
        E = np.asarray(energies, dtype=np.float64)
        dim = E.shape[0]
        m = int(dim).bit_length() - 1
        if 2**m != dim or not 1 <= m <= _GLAUBER_MAX_BITS:
            raise BadPartition(
                f"need 2^m energies with 1 <= m <= {_GLAUBER_MAX_BITS}, got {dim}"
            )
        self.m = m
        self.moves = np.append(1 << np.arange(m), 0)[:, None]
        self.moves.setflags(write=False)
        self.label = self.forbidden = None
        if label is not None:
            # a read-only copy, so the kept positions always match it
            self.label = np.array(_block_labels(label, dim))
            self.label.setflags(write=False)
            self.forbidden = _forbidden_positions(self.moves, self.label)
        uphill = E[np.arange(dim) ^ self.moves[:m]]
        uphill -= E
        np.maximum(uphill, 0, out=uphill)
        uphill.setflags(write=False)
        self.uphill = uphill

    def chain(self, beta, laziness=0.0):
        """The chain at beta: proposals pick one of the m bits uniformly
        (scaled by 1-laziness) and accept with min(1, e^{-beta dE}); the
        rest of each column stays put."""
        if not 0 <= laziness < 1:
            raise ValueError(f"laziness {laziness} outside [0, 1)")
        weights = np.empty((self.m + 1, self.uphill.shape[1]))
        flips = weights[: self.m]
        np.multiply(self.uphill, -beta, out=flips)
        np.exp(flips, out=flips)
        np.minimum(flips, 1.0, out=flips)
        flips *= (1.0 - laziness) / self.m
        # flips add in ascending bit order; all accepted, they sum to 1 + ulp,
        # so the stay entry is clamped at 0 (the column-sum check applies)
        np.maximum(1.0 - flips.sum(axis=0), 0.0, out=weights[self.m])
        sm = StochasticMatrix._trusted(self.moves, weights)
        sm._check_weights()
        return sm

    def report(self, beta, laziness, pi):
        """classical_bottleneck_report of ``chain(beta, laziness)`` on the
        table's block labels, with pi its Gibbs law."""
        if self.label is None:
            raise BadPartition("the table was built without block labels")
        sm = self.chain(beta, laziness)
        top, offending = _forbidden_top(sm, self.forbidden)
        cond = ClassicalConditionReport(top, offending is None, offending)
        return _bottleneck_report(sm, self.label, cond, pi)
