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
form or, for masks on rows past _STEP_CHUNK columns, by a gather
through XOR views, and a column sum adds the entries of each column in k order.
Nothing of size 2^m x 2^m is formed.

The classical bound's lhs is one formula, the boundary flow. For a chain
M with stationary law pi, the one-step drift of pi conditioned on A is
||M pi_A - pi_A||_1 = 2 Q(A, A^c)/pi(A), Q(A, A^c) = sum over x in A and
y outside A of pi(x) M(y|x) (Levin-Peres-Wilmer, Markov Chains and
Mixing Times, 2nd ed., section 7.2): a sum of nonnegative terms over A's
out-entries, which loses nothing to cancellation however small the flow
is next to pi_A (_flow_lhs). classical_bottleneck_report and
GlauberTable.report read it from their chain's A columns; a GlauberFlow
reads it from the acceptances of A's out-edges alone and builds no chain.
conditioned_drift steps pi_A through a schedule, for the quantum label
path.

The stationary law is never solved for. A Metropolis chain satisfies
detailed balance with respect to the Gibbs weights e^{-beta E}/Z
(model.gibbs_weights), so the caller passes that law, and the bound
certifies it. On a chain: the chain is irreducible, so its stationary
law is unique, and pi is stationary within a residual of STATIONARY_TOL;
the residual is one step, so it makes no temporary of the form's size. A
chain whose every column moves with positive weight to each of its m
single-bit flips holds every edge of the m-cube in both directions, so
it is irreducible by construction (the hypercube walk), read from its
masks and the signs of its flips' weights. Any other chain, such as one
whose uphill moves underflow to 0 or a birth-death chain, gets a
strong-connectivity search over its strictly positive entries. A
GlauberFlow certifies the same two facts without the chain: every flip
is positive when the acceptance of the largest uphill jump is, and
detailed balance is checked on every edge the flow reads. Low
temperatures, whose spectral gaps no eigensolver resolves, are covered
as long as every move keeps a positive probability.

The structural condition mirrors the quantum one: with the state space
split into disjoint sets A, B1, B2, C, single applications of M must not
connect A with B2 or C, nor C with A or B1. Builders place structural
(exact) zeros, so the condition check demands that every stored entry of
the forbidden blocks is exactly zero rather than small. The split is one
block label per state (0 for A, 1 for B1, 2 for B2, 3 for C), the array
that a subspace.HilbertPartition over the identity basis keeps
(part.labels[1]). The check, the bound, a GlauberTable and a GlauberFlow
take that array and refuse it unless it has one label 0..3 per state and
A and C are non-empty; forbidden_entry and conditioned_drift, which reads
pi(A), pi(B), pi(C) and the drift of pi conditioned on A, take it as it
is, so the quantum label path, whose C may be empty, runs them too.

scipy is imported only where it is used: forming
``StochasticMatrix.mat`` on first read, and the connectivity search for
a chain without the single-flip certificate. Importing the
package, and a verify-classical run whose acceptances are all positive,
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
    "GlauberFlow",
]

# The largest n at which a whole verify-classical run (ising_ring, four
# betas, width 1, --jobs 1) stays within 10 s and 1 GB on a 2-core
# machine, on the GlauberFlow route, peak RSS in MiB: n=22 takes 1.5-1.9 s
# and 341 at inner 1, 4.4-4.9 s and 414-449 at inner 10 and 11 (the most
# flips leave A there); n=23 took 9.4-9.9 s and 816 at inner 11, too close
# to 10 s. What is left is register-wide: the energies, the distance
# search and the Gibbs weights.
_GLAUBER_MAX_BITS = 22
# The most bits a GlauberTable holds: a whole verify-classical run that
# builds its chain at every beta took 4.8-7.4 s and 917-937 MiB at n=21
# (its uphill jumps and one beta's weights are 336 and 352 MiB), so a
# GlauberFlow past it refuses a point whose acceptances may underflow.
_CHAIN_MAX_BITS = 21
# The longest entry row StochasticMatrix.step reads by one flat bincount; past it (k, 1)
# masks gather row by row. Best of 7 x 200 steps, in process, 2-core Intel Xeon, flat and
# gathered: ising_ring Glauber chains (k = n + 1) n=10 38 and 53 us, n=11 154 and 75; two-entry
# site chains n=10 7.5 and 8.0 us, n=11 12.1 and 10.3.
_STEP_CHUNK = 1 << 10
# The states a GlauberFlow searches for edges at once, and about the edges it reads at once.
_EDGE_CHUNK = 1 << 16


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
        j ^ moves for rows of up to _STEP_CHUNK columns read, and for (k,
        dim) moves; past it (k, 1) masks gather row by row, out[j] += (w
        p)[j ^ c] through _xor_views, cols or not: each target adds in k
        order, the same bits."""
        dim = self.dim
        if (dim if cols is None else len(cols)) > _STEP_CHUNK and self.moves.shape[1] == 1:
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


def _probability(pi):
    """pi as a float array; NonUniqueStationary unless it is a probability
    vector: no negative entry and a sum within PROBABILITY_SUM_TOL of 1."""
    pi = np.asarray(pi, dtype=np.float64)
    total = float(pi.sum())
    # NaN fails the comparisons too
    if not (pi.min() >= 0 and abs(total - 1.0) <= tol.PROBABILITY_SUM_TOL):
        raise NonUniqueStationary(
            f"pi is not a probability vector (min {pi.min():.3e}, sum {total!r})"
        )
    return pi


def _certify_stationary(sm, pi):
    """Check that pi is the unique stationary law of the chain; return it
    as a float array.

    pi must be a probability vector (_probability). Uniqueness: the chain
    must be irreducible, certified structurally for a single-bit-flip
    chain with every flip positive and otherwise by a graph search over
    the strictly positive entries, which must form one strongly connected
    class. Stationarity: ||M pi - pi||_1 <= STATIONARY_TOL. Each failure
    raises NonUniqueStationary.
    """
    pi = _probability(pi)
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
    before the bound is read. The lhs is the boundary flow 2 Q(A, A^c)/pi(A)
    read from the chain's A columns (_flow_lhs). It equals the stepped
    ||M pi_A - pi_A||_1 when pi is stationary, and for any pi the two lie
    within 2 ||M pi - pi||_1 / pi(A) of each other: inside A the stepped
    deviation is minus the flow into each state plus the residual there,
    and the flows into and out of A differ by the residual's sum over A.
    pi(A) at or below EMPTY_WEIGHT_TOL raises EmptyA. The theorem
    inequality is asserted with slack _bound_slack; a violation raises
    BoundViolated since it would falsify the implementation, not the
    theorem.
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
    sets = _block_sets(label)
    cols = sets[3]
    # A's out-entries, column by column and in k order within a column
    targets = cols ^ np.take(sm.moves, cols, axis=1, mode="wrap")
    at, k = np.nonzero((label[targets] != 0).T)
    out = np.bincount(at, sm.weights[k, cols[at]], minlength=cols.size)
    return _flow_report(pi, sets, out, at.size, cond.max_forbidden_entry)


def _flow_report(pi, sets, out, entries, condition_max):
    """The report of a chain with stationary law pi whose entries leaving
    A's states cols carry the out-weights out, each the sum of its state's
    entries in k order; entries counts them."""
    in_A, in_B, in_C, cols = sets
    pA, pB, pC = (float(pi[s].sum()) for s in (in_A, in_B, in_C))
    if pA <= tol.EMPTY_WEIGHT_TOL:
        raise EmptyA(f"pi(A) = {pA:.3e}")
    lhs = _flow_lhs(pi[cols], pA, out)
    bound = 2.0 * pB / pA
    terms = entries + 2 * cols.size + np.count_nonzero(in_B)
    if not lhs <= bound * (1.0 + _bound_slack(terms)):
        raise BoundViolated(
            f"classical bottleneck bound violated: {lhs!r} > {bound!r}",
            lhs=lhs,
            bound=bound,
        )
    return ClassicalBottleneckReport(lhs, bound, pA, pB, pC, condition_max)


def _flow_lhs(pi_A, pA, out):
    """2 Q(A, A^c)/pi(A), from pi on A's states and their out-weights (the
    sum of each state's entries that leave A, in entry order, by one
    bincount): Q is the sum of pi(x) times it over A's states, in their
    order."""
    return 2.0 * float((pi_A * out).sum()) / pA


def _bound_slack(terms):
    """The classical theorem's slack, relative to its bound: the table's
    relative part plus the rounding of a sum of this many nonnegative
    terms, each of which rounds by at most one unit per addition."""
    return tol.CLASSICAL_BOUND_REL_SLACK + terms * tol.UNIT_ROUNDOFF


def _accept(uphill, beta, scale):
    """min(1, e^{-beta uphill}) * scale, by the operations of
    GlauberTable.chain in their order, so each weight keeps its bits."""
    w = np.multiply(uphill, -beta)
    np.exp(w, out=w)
    np.minimum(w, 1.0, out=w)
    w *= scale
    return w


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
    1 <= m <= _CHAIN_MAX_BITS, or when the block labels are not one per
    state of _block_labels.
    """

    def __init__(self, energies, label=None):
        E = np.asarray(energies, dtype=np.float64)
        dim = E.shape[0]
        m = int(dim).bit_length() - 1
        if 2**m != dim or not 1 <= m <= _CHAIN_MAX_BITS:
            raise BadPartition(
                f"need 2^m energies with 1 <= m <= {_CHAIN_MAX_BITS}, got {dim}"
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
        table's block labels, with pi its Gibbs law: the stepped residual
        certifies pi, and the lhs is the flow from the chain's A columns."""
        if self.label is None:
            raise BadPartition("the table was built without block labels")
        sm = self.chain(beta, laziness)
        top, offending = _forbidden_top(sm, self.forbidden)
        cond = ClassicalConditionReport(top, offending is None, offending)
        return _bottleneck_report(sm, self.label, cond, pi)


class GlauberFlow:
    """The classical bound of the single-bit-flip Metropolis chains of one
    energy vector on one block split, from the edges of A's states alone:
    no chain over the register is built.

    Per beta, report forms the acceptance of every flip x -> x ^ (1 << b)
    that leaves A, min(1, e^{-beta max(dE, 0)}) (1 - laziness)/m by the
    operations of GlauberTable.chain, so each weight has the bits of that
    chain's entry, and reads the lhs 2 Q(A, A^c)/pi(A) from them by
    _flow_lhs, as classical_bottleneck_report reads it from the chain's A
    columns: the same bits. pi(A), pi(B), pi(C) and the bound come from pi
    as there.

    Certificates, per beta, with no chain:
    - Irreducibility. max_jump bounds every uphill jump E[x ^ (1 << b)] -
      E[x] of the register, such as the most checks on one bit for
      energies that count violated checks (one flip toggles only the
      checks on its bit). When the acceptance of max_jump is positive,
      so is every flip's (each operation is monotone), and the chain
      holds every edge of the m-cube both ways. Otherwise an acceptance
      may underflow, and the point runs GlauberTable.report, the chain
      with its single-flip certificate or class search and its stepped
      residual; past _CHAIN_MAX_BITS that chain does not fit, and the
      point raises NonUniqueStationary saying so.
    - Stationarity. Metropolis acceptances satisfy detailed balance,
      pi(x) M(y|x) = pi(y) M(x|y), with respect to the Gibbs law, so a
      chain that holds it on every edge fixes pi. It is checked on every
      edge the flow reads, within DETAILED_BALANCE_ULPS units of the
      larger side plus 2 beta (E - E_min) units for the exps, E the
      highest energy of those edges (e^{-a} carries the rounding of a
      times a). The stepped residual of the whole register is the
      oracle's (tests/test_oracles.py).
    - The condition. The forbidden positions are the flips from A into B2
      or C and from C into A or B1. Flips are symmetric, so they are found
      from the states of A and B1 once, here, and each beta reads their
      acceptances. On Hamming shells of width >= 1 about a center
      (subspace.partition_from_radius of one basis state) there are none:
      one flip moves the distance to the center by exactly one, so A's
      flips reach at most B1, and C's at least B2.

    Raises BadPartition unless there are 2^m energies with m >= 1 and the
    block labels are one per state of _block_labels.
    """

    def __init__(self, energies, label, max_jump):
        E = np.asarray(energies, dtype=np.float64)
        dim = E.shape[0]
        m = int(dim).bit_length() - 1
        if 2**m != dim or m < 1:
            raise BadPartition(f"need 2^m energies with m >= 1, got {dim}")
        self.E, self.m, self.max_jump = E, m, max_jump
        self.flips = 1 << np.arange(m)
        self.label = np.array(_block_labels(label, dim))
        self.label.setflags(write=False)
        self.sets = _block_sets(self.label)
        self.lowest = float(E.min())
        cols = self.sets[3]
        # A's flips that leave A, by state and then bit, ascending, read
        # in spans of whole states of about _EDGE_CHUNK flips each
        self.at, self.bit = self._edges(cols, self.label != 0)
        starts = np.searchsorted(self.at, self.at[::_EDGE_CHUNK])
        bounds = np.unique(np.append(starts, self.at.size))
        self.spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        # per span: the highest energy of an edge the flow reads, and the
        # forbidden positions (source, bit), A into B2 or C and C into A or
        # B1; a flip and its reverse pair up, so C's are A's flips into C
        # reversed and B1's flips into C
        top, src, bit = self.lowest, [], []
        for x, y, b in self._spans_of(cols):
            top = max(top, float(np.maximum(self.E[x], self.E[y]).max()))
            to = self.label[y]
            src += [x[to >= 2], y[to == 3]]
            bit += [b[to >= 2], b[to == 3]]
        self.span = top - self.lowest
        b1 = np.flatnonzero(self.label == 1)
        c_at, c_bit = self._edges(b1, self.label == 3)
        src, bit = np.concatenate(src + [b1[c_at] ^ self.flips[c_bit]]), np.concatenate(bit + [c_bit])
        order = np.lexsort((bit, src))  # column order, then entry order, as _forbidden_top
        self.forbidden = (src[order], bit[order])

    def _spans_of(self, cols):
        """(x, y, bit) of the flips x -> y = x ^ (1 << bit) that leave A, one
        span of whole states at a time."""
        for lo, hi in self.spans:
            x = cols[self.at[lo:hi]]
            yield x, x ^ self.flips[self.bit[lo:hi]], self.bit[lo:hi]

    def _edges(self, states, reached):
        """(at, bit) of every flip states[at] -> states[at] ^ (1 << bit)
        that lands where reached holds, by state and then bit, ascending;
        _EDGE_CHUNK states at a time, so the temporaries stay bounded."""
        at, bit = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.int8)]
        for lo in range(0, states.size, _EDGE_CHUNK):
            i, b = np.nonzero(reached[states[lo : lo + _EDGE_CHUNK, None] ^ self.flips])
            at.append(i + lo)
            bit.append(b.astype(np.int8))
        return np.concatenate(at), np.concatenate(bit)

    def _uphill(self, x, y):
        """The uphill jumps max(E[y] - E[x], 0) of the flips x -> y, and of
        their reverses, as GlauberTable takes them."""
        dE = self.E[y] - self.E[x]
        return np.maximum(dE, 0), np.maximum(-dE, 0)

    @functools.cached_property
    def _table(self):
        return GlauberTable(self.E, self.label)

    def report(self, beta, laziness, pi):
        """ClassicalBottleneckReport at beta, with pi the Gibbs law of the
        energies (model.gibbs_weights); see the class for its checks."""
        if not 0 <= laziness < 1:
            raise ValueError(f"laziness {laziness} outside [0, 1)")
        scale = (1.0 - laziness) / self.m
        if not _accept(np.array([float(self.max_jump)]), beta, scale)[0] > 0:
            if self.m > _CHAIN_MAX_BITS:
                raise NonUniqueStationary(
                    f"an uphill flip of up to {self.max_jump} may underflow at beta {beta!r}, "
                    f"and the class search that would decide irreducibility runs on chains "
                    f"of at most {_CHAIN_MAX_BITS} bits, not {self.m}"
                )
            return self._table.report(beta, laziness, pi)
        src, bit = self.forbidden
        vals = _accept(self._uphill(src, src ^ self.flips[bit])[0], beta, scale)
        if vals.size and (top := float(vals.max())) > 0.0:
            at = int(np.argmax(vals))
            raise ConditionViolated(
                f"forbidden entry {top:.3e} at {(int(src[at] ^ self.flips[bit[at]]), int(src[at]))}"
            )
        pi = _probability(pi)
        cols = self.sets[3]
        out = np.zeros(cols.size)
        for (lo, hi), (x, y, _) in zip(self.spans, self._spans_of(cols)):
            at = self.at[lo:hi]
            up, down = self._uphill(x, y)
            w = _accept(up, beta, scale)
            self._check_balance(pi, x, y, w, _accept(down, beta, scale), beta)
            # a span holds whole states, so each sum runs as in one bincount
            out[at[0] : at[-1] + 1] = np.bincount(at - at[0], w)
        return _flow_report(pi, self.sets, out, self.at.size, 0.0)

    def _check_balance(self, pi, x, y, w, back, beta):
        """Detailed balance on the flips x -> y, of weights w forward and
        back in reverse, within its rounding bound at the highest energy
        of any edge the flow reads."""
        fwd, rev = pi[x] * w, pi[y] * back
        room = (tol.DETAILED_BALANCE_ULPS + 2.0 * beta * self.span) * tol.UNIT_ROUNDOFF
        gap = np.abs(fwd - rev)
        gap -= room * np.maximum(fwd, rev)
        if not (worst := float(gap.max())) <= _TINY:
            at = int(np.argmax(gap))
            raise NonUniqueStationary(
                f"pi is not stationary: detailed balance fails on the flip "
                f"{int(x[at])} -> {int(y[at])} by {worst:.3e}"
            )


# an absolute floor for the detailed-balance check: a few of the least
# subnormal, which a product of weights that underflow can be off by
_TINY = 8 * np.finfo(np.float64).smallest_subnormal
