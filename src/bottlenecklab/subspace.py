"""Subspaces of the n-qubit Hilbert space as sets of eigenstate labels,
and operator-spread neighborhoods.

A LabelBasis is an orthonormal eigenbasis W of a commuting model whose
columns are indexed by label pairs (x, z); the computational basis is
its identity case. What a basis derives from its columns alone (the
image of a Pauli) is computed once and kept. A Subspace is the set of
columns of one W that a boolean mask picks; its dense basis is formed
from them the first time something reads it. A HilbertPartition is one
read-only array of block labels over one W, and its four blocks are the
Subspaces of that array's masks.

The r-neighborhood of V is span{ S|psi> : S a Pauli string of weight <= r,
|psi> in V }. Composing neighborhoods adds radii. A weight-1 Pauli
X(a)Z(b) maps |x, z> to a phase times |x^a, z^b>, so a weight-<=r string
reaches exactly the labels at most r such moves away, and that move count
is the minimal Pauli weight between two eigenstates (Gottesman,
arXiv:quant-ph/9705052). It comes from one breadth-first search from a
set of labels, whose every round moves its frontier by the distinct
weight-1 moves at once, with no table kept and no Pauli string
enumerated. ball gives the labels within r moves of some seed labels (a
Hamming ball over the identity basis, a barrier ball over a CSS basis);
partition_from_radius builds the local-theorem split (A, first r-shell,
second r-shell, rest) of V or a ball around it, and boundary the r-shell.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as tol
from . import pauli as pl
from .errors import BadPartition, CenterOutsideSpace, NotCommuting, RadiusExceedsN

__all__ = [
    "LabelBasis",
    "identity_basis",
    "Subspace",
    "HilbertPartition",
    "boundary",
    "ball",
    "hamming_ball_subspace",
    "basis_state_subspace",
    "partition_from_radius",
]


@dataclass(frozen=True, eq=False)
class LabelBasis:
    """An orthonormal eigenbasis W of a commuting model, stored by blocks.

    Column j is the eigenstate with labels (x[j], z[j]). Columns run
    x-class major: the nz labels of x class c are columns c*nz .. c*nz +
    nz - 1, so the column of any bitstring pair (x, z) is index(x, z),
    read from the class tables of every bitstring: x_class numbers the
    cosets of one linear span of bitstrings, z_class those of another
    (for the identity basis, {0} and every bitstring). All labels of class c
    live on the same k rows order[c*k : (c+1)*k] (ascending), with values
    blocks[c] (k x nz). So W = P blockdiag(blocks) for the row
    permutation P given by order, and products with W are one gather
    plus one batched matmul. Classical models use the identity basis
    (k = nz = 1). Arrays are read-only: one basis is shared by every
    caller.
    """

    n: int
    order: np.ndarray
    blocks: np.ndarray
    x: np.ndarray
    z: np.ndarray
    x_class: np.ndarray
    z_class: np.ndarray
    identity: bool = False

    def __post_init__(self):
        for name in ("order", "blocks", "x", "z", "x_class", "z_class"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self):
        return 1 << self.n

    @property
    def rows(self):
        """(k, dim): the rows of the nonzero entries of every column."""
        nx, k, nz = self.blocks.shape
        return np.repeat(self.order.reshape(nx, k).T, nz, axis=1)

    @property
    def vals(self):
        """(k, dim): the nonzero entries of every column, matching rows."""
        nx, k, nz = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(k, nx * nz)

    def index(self, x, z):
        """Column of the eigenstate labeled by the bitstrings (x, z)."""
        return self.x_class[x] * self.blocks.shape[2] + self.z_class[z]

    def same_as(self, other):
        """Whether two bases have the same columns, entry for entry."""
        return self is other or (
            self.n == other.n
            and np.array_equal(self.order, other.order)
            and np.array_equal(self.blocks, other.blocks)
        )

    def columns(self, mask):
        """The columns of W picked by a boolean mask, as a dense (dim, count)
        array scattered from rows and vals."""
        sel = np.flatnonzero(mask)
        out = np.zeros((self.dim, sel.size), dtype=np.complex128)
        out[self.rows[:, sel], np.arange(sel.size)] = self.vals[:, sel]
        return out

    def dense(self):
        """W as a dense dim x dim matrix."""
        return self.columns(np.ones(self.dim, dtype=bool))

    def outer(self, p):
        """W diag(p) W^dag as a dense dim x dim matrix, for real weights p
        over the columns. W is block-diagonal over its x classes, so the
        product is B_c diag(p_c) B_c^dag on the rows of class c and zero
        elsewhere: one batched matmul over blocks, scattered through
        order. For the identity basis that is diag(p) exactly."""
        nx, k, nz = self.blocks.shape
        block = np.matmul(self.blocks * p.reshape(nx, 1, nz), self.blocks.conj().transpose(0, 2, 1))
        rows = self.order.reshape(nx, k)
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[rows[:, :, None], rows[:, None, :]] = block
        return out

    @functools.cached_property
    def _kept(self):
        return {}

    def kept(self, build, *args):
        """build(self, *args), computed on the first call per (build, args)
        and kept on the basis with every array read-only. A build that
        raises keeps nothing, so it raises on every call."""
        key = (build,) + args
        value = self._kept.get(key)
        if value is None:
            value = build(self, *args)
            for a in value:
                a.setflags(write=False)
            self._kept[key] = value
        return value

    def pauli_image(self, xmask, zmask):
        """Columns and phases of X(xmask) Z(zmask) W: P w_j = phase_j w_col_j.

        The image of every column is checked to be one column of W times
        a unit phase; raises NotCommuting when the Pauli does not permute
        the basis up to phases. A checked image is kept per mask pair.
        """
        return self.kept(LabelBasis._pauli_image, int(xmask), int(zmask))

    def _pauli_image(self, xmask, zmask):
        rows, vals = self.rows, self.vals
        signs = 1 - 2 * (pl.popcount(rows & int(zmask)) & 1)
        rows = rows ^ int(xmask)
        order = np.argsort(rows, axis=0)
        rows = np.take_along_axis(rows, order, axis=0)
        moved = np.take_along_axis(vals * signs, order, axis=0)
        col = self.index(self.x ^ np.uint64(xmask), self.z ^ np.uint64(zmask))
        same = np.array_equal(rows, self.rows[:, col])
        phase = (vals[:, col].conj() * moved).sum(axis=0)
        dev = float(np.abs(np.abs(phase) - 1.0).max())
        if not same or dev > tol.PAULI_PHASE_TOL:
            raise NotCommuting(
                f"Pauli (x={xmask}, z={zmask}) does not permute the label basis "
                f"(support match {same}, phase deviation {dev:.3e})"
            )
        return col, phase


@functools.lru_cache(maxsize=32)
def identity_basis(n):
    """The computational basis of n qubits as a LabelBasis, one per n."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    return LabelBasis(
        n,
        order=idx,
        blocks=np.ones((dim, 1, 1), dtype=np.complex128),
        x=idx.astype(np.uint64),
        z=np.zeros(dim, dtype=np.uint64),
        x_class=idx.copy(),
        z_class=np.zeros(dim, dtype=np.int64),
        identity=True,
    )


class Subspace:
    """The columns of one LabelBasis W that a boolean mask picks.

    labels is (W, mask), with the mask copied and stored read-only, and
    dim is its count. basis is W.columns(mask), a (2^n, dim) array with
    orthonormal columns because W is unitary, formed on first read. An
    empty mask is a legal value: its basis is (2^n, 0) and its projector
    the zero matrix. A mask that is not boolean, or not of shape
    (W.dim,), raises BadPartition.
    """

    def __init__(self, W, mask):
        mask = np.array(mask)
        if mask.dtype != bool or mask.shape != (W.dim,):
            raise BadPartition(f"{mask.dtype} mask of shape {mask.shape} over a basis of {W.dim} columns")
        mask.setflags(write=False)
        self.labels = (W, mask)
        self.n = W.n
        self.dim = int(np.count_nonzero(mask))
        self._partitions = {}

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"

    @functools.cached_property
    def basis(self):
        """The (2^n, dim) column basis W.columns(mask), formed on first read."""
        W, mask = self.labels
        return W.columns(mask)

    def projector(self):
        """Dense projector basis basis^dag onto the subspace."""
        return self.basis @ self.basis.conj().T


def boundary(V, r):
    """States reachable from V with a weight-<=r string but orthogonal to V.

    Equals range(P_{B_r(V)} - P_V): the labels 1..r weight-1 moves
    away from V, labeled over the basis W that labels V. Empty when the
    neighborhood adds nothing (V already invariant), which is a
    first-class outcome. Raises RadiusExceedsN, for nonempty V, when r
    is outside [0, n].
    """
    W, dist = _label_shells(V, r, r)
    return Subspace(W, dist > 0)


def ball(W, seeds, radius):
    """The labels of W within radius weight-1 moves of the seed columns,
    as a Subspace of W. A radius past n reaches every label. Raises
    CenterOutsideSpace for a negative radius or a seed outside
    0..dim-1."""
    if radius < 0:
        raise CenterOutsideSpace(f"negative radius {radius}")
    mask = np.zeros(W.dim, dtype=bool)
    for c in seeds:
        if not 0 <= int(c) < W.dim:
            raise CenterOutsideSpace(f"center {int(c)} outside 0..{W.dim - 1}")
        mask[int(c)] = True
    return Subspace(W, _shells(W, mask, radius) >= 0)


def hamming_ball_subspace(n, centers, radius):
    """Span of basis states within Hamming distance <= radius of any center.

    Centers are basis-state indices (qubit 0 = most significant bit).
    Columns are identity columns in ascending index order, labeled over
    identity_basis(n): the ball of the identity basis.
    """
    return ball(identity_basis(n), centers, radius)


def basis_state_subspace(n, indices):
    """Subspace spanned by the listed computational-basis states, in
    ascending index order, labeled over identity_basis(n)."""
    return ball(identity_basis(n), indices, 0)


def _block_subspace(k):
    """The Subspace of block k of a HilbertPartition, built on first read."""
    return functools.cached_property(lambda part: Subspace(part.labels[0], part.labels[1] == k))


class HilbertPartition:
    """Orthogonal decomposition H = A + B1 + B2 + C over one LabelBasis W.

    labels is (W, block), with block a read-only int8 copy of the block of
    every column of W: 0 for A, 1 for B1, 2 for B2, 3 for C. Every label
    thus lies in exactly one block, and any block may be empty. A, B1,
    B2 and C are the Subspaces of the four masks of block, built on first
    read. A block array of any other shape than (W.dim,), or with a
    value outside 0..3, raises BadPartition.
    """

    def __init__(self, W, block):
        block = np.asarray(block)
        if block.shape != (W.dim,):
            raise BadPartition(f"block labels of shape {block.shape} over a basis of {W.dim} columns")
        if not np.isin(block, range(4)).all():
            raise BadPartition("block labels must be 0..3")
        block = block.astype(np.int8)
        block.setflags(write=False)
        self.labels, self._kept = (W, block), {}

    A, B1, B2, C = map(_block_subspace, range(4))
    kept = LabelBasis.kept  # what the label path reads of the blocks alone

    def b_projector(self):
        """Projector on the combined buffer B1 + B2."""
        return self.B1.projector() + self.B2.projector()


def partition_from_radius(V, r, inner=0):
    """Partition (A, B1, B2, C) from the weight-r neighborhoods of A, the
    labels within inner moves of V (A = V at inner 0).

    B1 spans the r-boundary of A, B2 what the 2r-neighborhood adds beyond
    that, and C the rest of the space. The blocks are the label shells
    0 < d <= r, r < d <= 2r and d > 2r of the basis W that labels V,
    where d is the number of weight-1 moves from the nearest label of A:
    moves are symmetric, so d is the distance to V less inner, and the
    block of every label comes from one distance search. Raises
    RadiusExceedsN, for nonempty V, when r or inner is outside [0, n].
    The partition is kept on V per (r, inner): its read-only labels fix it.
    """
    if (r, inner) in V._partitions:
        return V._partitions[r, inner]
    if V.dim and not 0 <= inner <= V.n:
        raise RadiusExceedsN(f"inner radius {inner} outside [0, {V.n}]")
    W, dist = _label_shells(V, r, inner + 2 * r)
    dist = np.where(dist < 0, dist, np.maximum(dist - inner, 0))
    block = np.select([dist < 0, dist > r, dist > 0], [3, 2, 1], 0)
    part = HilbertPartition(W, block)
    V._partitions[r, inner] = part
    return part


def _label_shells(V, r, reach):
    """(W, _shells(W, mask, reach)) for V = (W, mask); a nonempty V raises
    RadiusExceedsN when r is outside [0, n].
    """
    W, mask = V.labels
    if V.dim and not 0 <= r <= V.n:
        raise RadiusExceedsN(f"radius {r} outside [0, {V.n}]")
    return W, _shells(W, mask, reach)


_SHELL_CHUNK = 1 << 15


def _shells(W, seed, reach):
    """The number of weight-1 Pauli moves X(a)Z(b) from the nearest label
    of a seed mask to every label of W, from a breadth-first search of
    reach rounds, and -1 past reach, as int8 (a distance is at most n).
    Each round takes every frontier label f by the distinct moves at
    once, index(x[f] ^ a, z[f] ^ b), _SHELL_CHUNK frontier labels at a
    time so that the temporaries stay bounded; index(x, z) is x over the
    identity basis."""
    a, b = _moves(W)
    dist = np.full(W.dim, -1, dtype=np.int8)
    dist[seed] = 0
    frontier = np.flatnonzero(seed)
    for step in range(1, reach + 1):
        for start in range(0, frontier.size, _SHELL_CHUNK):
            f = frontier[start : start + _SHELL_CHUNK, None]
            reached = W.index(W.x[f] ^ a, W.z[f] ^ b)
            dist[reached[dist[reached] < 0]] = step
        frontier = np.flatnonzero(dist == step)
        if frontier.size == 0:
            break
    return dist


def _moves(W):
    """The weight-1 moves (a, b) of W that change a label, one per image.
    The label classes are cosets of linear spans, so the image of (x, z)
    under a move depends on the move only through index(a, b): moves of
    one index land on one label, and moves of index(0, 0) keep it. Over
    the identity basis that leaves the n single-bit X moves."""
    bits = np.uint64(1) << np.arange(W.n, dtype=np.uint64)
    a, b = np.concatenate([bits, 0 * bits, bits]), np.concatenate([0 * bits, bits, bits])
    key, first = np.unique(W.index(a, b), return_index=True)
    keep = np.sort(first[key != W.index(np.uint64(0), np.uint64(0))])
    return a[keep], b[keep]
