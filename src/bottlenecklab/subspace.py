"""Subspaces of the n-qubit Hilbert space and operator-spread neighborhoods.

A Subspace is an explicit orthonormal basis (dim x k complex matrix).
Dimension-0 subspaces are legal values: boundaries can be empty and the
code downstream treats that case explicitly rather than by crashing.

The r-neighborhood of V is span{ S|psi> : S a Pauli string of weight <= r,
|psi> in V }. Composing neighborhoods adds radii. partition_from_radius
builds the local-theorem split (V, first r-shell, second r-shell, rest)
in one of two ways, chosen from V alone:

- V spanned by computational-basis states (every basis column has exactly
  one nonzero entry): a weight-<=r string maps |b> to a phase times
  |b xor x> with |x| <= r, so the shells are Hamming-distance shells
  around the support of V. They are read off one popcount over the
  register per basis state of V, with no enumeration and no size cap.
- any other V: the weight-<=r strings are enumerated and their images
  orthonormalized. This path is exponential in r and is the oracle the
  Hamming shells are tested against.
"""

from dataclasses import dataclass, field

import numpy as np

from . import pauli as pl
from .errors import (
    BadPartition,
    CenterOutsideSpace,
    EnumerationTooLarge,
    NotOrthonormal,
    RadiusExceedsN,
)
from .numerics import DEFAULT_TOL, fix_phases, orthonormal_column_basis

__all__ = [
    "Subspace",
    "HilbertPartition",
    "projector",
    "neighborhood",
    "boundary",
    "complement",
    "hamming_ball_subspace",
    "basis_state_subspace",
    "partition_from_radius",
]

_ENUM_CAP = 2**28
_ORTHO_TOL = 1e-9


@dataclass
class Subspace:
    """An orthonormal set of columns spanning a subspace of (C^2)^n."""

    n: int
    basis: np.ndarray
    label: str = ""

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        if basis.ndim != 2:
            basis = basis.reshape(2**self.n, -1)
        if basis.shape[0] != 2**self.n:
            raise BadPartition(
                f"basis rows {basis.shape[0]} do not match dim 2^{self.n}"
            )
        if basis.shape[1]:
            gram = basis.conj().T @ basis
            dev = np.abs(gram - np.eye(basis.shape[1])).max()
            if dev > _ORTHO_TOL:
                raise NotOrthonormal(f"basis deviates from orthonormal by {dev:.3e}")
        self.basis = basis

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return projector(self)


def projector(V):
    """Dense projector onto the subspace."""
    if V.dim == 0:
        d = 2**V.n
        return np.zeros((d, d), dtype=np.complex128)
    return V.basis @ V.basis.conj().T


def empty_subspace(n, label=""):
    return Subspace(n, np.zeros((2**n, 0), dtype=np.complex128), label)


def neighborhood(V, r, tol=None, cap=_ENUM_CAP):
    """Span of all weight-<=r Pauli strings applied to V.

    Stacks S * basis for every S in the weight-<=r enumeration (fixed
    order) and orthonormalizes with the rank-revealing cutoff. Contains V
    because the identity string is part of the enumeration. Raises
    EnumerationTooLarge when the stacked matrix would exceed the entry cap.
    """
    tol = tol or DEFAULT_TOL
    if V.dim == 0:
        return empty_subspace(V.n, V.label)
    paulis = pl.enumerate_paulis(V.n, r)
    entries = len(paulis) * V.dim * (2**V.n)
    if entries > cap:
        raise EnumerationTooLarge(
            f"{len(paulis)} strings x {V.dim} columns x {2**V.n} rows "
            f"= {entries} entries exceeds cap {cap}"
        )
    blocks = [pl.apply_pauli_matrix(P, V.basis) for P in paulis]
    stacked = np.hstack(blocks)
    out = orthonormal_column_basis(stacked, tol)
    return Subspace(V.n, out, V.label)


def complement(V):
    """Orthogonal complement of V inside the full space."""
    d = 2**V.n
    if V.dim == 0:
        return Subspace(V.n, np.eye(d, dtype=np.complex128), V.label)
    if V.dim == d:
        return empty_subspace(V.n, V.label)
    U, _, _ = np.linalg.svd(V.basis, full_matrices=True)
    return Subspace(V.n, fix_phases(U[:, V.dim :]), V.label)


def _complement_within(big, small, tol=None):
    """Basis of (1 - P_small) restricted to big; assumes small <= big."""
    tol = tol or DEFAULT_TOL
    if big.dim == 0:
        return empty_subspace(big.n)
    resid = big.basis
    if small.dim:
        resid = resid - small.basis @ (small.basis.conj().T @ big.basis)
    if not np.abs(resid).max() > 0:
        return empty_subspace(big.n)
    out = orthonormal_column_basis(resid, tol)
    return Subspace(big.n, out)


def boundary(V, r, tol=None, cap=_ENUM_CAP):
    """States reachable from V with a weight-<=r string but orthogonal to V.

    Equals range(P_{B_r(V)} - P_V). Empty when the neighborhood adds
    nothing (V already invariant), which is a first-class outcome.
    """
    B = neighborhood(V, r, tol=tol, cap=cap)
    return _complement_within(B, V, tol=tol)


def hamming_ball_subspace(n, centers, radius, label=""):
    """Span of basis states within Hamming distance <= radius of any center.

    Centers are basis-state indices (qubit 0 = most significant bit).
    Columns are identity columns in ascending index order.
    """
    if radius < 0:
        raise CenterOutsideSpace(f"negative radius {radius}")
    dim = 1 << n
    centers = [int(c) for c in centers]
    for c in centers:
        if not 0 <= c < dim:
            raise CenterOutsideSpace(f"center {c} outside 0..{dim - 1}")
    keep = pl.hamming_distance(n, centers) <= radius
    return basis_state_subspace(n, np.flatnonzero(keep), label)


def basis_state_subspace(n, indices, label=""):
    """Subspace spanned by the listed computational-basis states."""
    dim = 1 << n
    indices = sorted(int(i) for i in indices)
    basis = np.zeros((dim, len(indices)), dtype=np.complex128)
    for col, i in enumerate(indices):
        if not 0 <= i < dim:
            raise CenterOutsideSpace(f"index {i} outside 0..{dim - 1}")
        basis[i, col] = 1.0
    return Subspace(n, basis, label)


@dataclass
class HilbertPartition:
    """Orthogonal decomposition H = A + B1 + B2 + C (any block may be empty).

    Pairwise orthogonality within 1e-9 and completeness of the dimension
    count are validated at construction.
    """

    A: Subspace
    B1: Subspace
    B2: Subspace
    C: Subspace
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        blocks = [self.A, self.B1, self.B2, self.C]
        n = blocks[0].n
        if any(b.n != n for b in blocks):
            raise BadPartition("blocks live on different registers")
        total = sum(b.dim for b in blocks)
        if total != 2**n:
            raise BadPartition(f"block dims sum to {total}, expected {2**n}")
        names = ["A", "B1", "B2", "C"]
        for i in range(4):
            for j in range(i + 1, 4):
                bi, bj = blocks[i], blocks[j]
                if bi.dim and bj.dim:
                    dev = np.abs(bi.basis.conj().T @ bj.basis).max()
                    if dev > _ORTHO_TOL:
                        raise BadPartition(
                            f"blocks {names[i]} and {names[j]} overlap by {dev:.3e}"
                        )

    @property
    def n(self):
        return self.A.n

    def b_projector(self):
        """Projector on the combined buffer B1 + B2."""
        return projector(self.B1) + projector(self.B2)


def partition_from_radius(V, r, tol=None, cap=_ENUM_CAP):
    """Partition (A=V, B1, B2, C) from the weight-r neighborhoods of V.

    B1 spans the r-boundary of V, B2 what the 2r-neighborhood adds beyond
    that, and C the rest of the space. When every basis column of V has
    exactly one nonzero entry, the blocks are the Hamming shells
    0 < d <= r, r < d <= 2r and d > 2r, where d is the distance to the
    nearest basis state in V (meta builder "hamming"; tol and cap unused).
    Any other V goes through the Pauli enumeration (builder "pauli"),
    which raises EnumerationTooLarge past cap. For nonempty V both raise
    RadiusExceedsN when r is outside [0, n].
    """
    support = _basis_state_support(V)
    if support is not None:
        return _hamming_shell_partition(V, support, r)
    tol = tol or DEFAULT_TOL
    B_r = neighborhood(V, r, tol=tol, cap=cap)
    B_2r = neighborhood(B_r, r, tol=tol, cap=cap)
    B1 = _complement_within(B_r, V, tol=tol)
    B2 = _complement_within(B_2r, B_r, tol=tol)
    C = complement(B_2r)
    return HilbertPartition(V, B1, B2, C, meta={"r": r, "builder": "pauli"})


def _basis_state_support(V):
    """Row of each column's single nonzero, or None if some column has more."""
    nonzero = V.basis != 0
    if V.dim == 0 or not (nonzero.sum(axis=0) == 1).all():
        return None
    return np.nonzero(nonzero)[0]


def _hamming_shell_partition(V, support, r):
    n = V.n
    if not 0 <= r <= n:
        raise RadiusExceedsN(f"radius {r} outside [0, {n}]")
    d = pl.hamming_distance(n, support)
    B1 = basis_state_subspace(n, np.flatnonzero((d > 0) & (d <= r)))
    B2 = basis_state_subspace(n, np.flatnonzero((d > r) & (d <= 2 * r)))
    C = basis_state_subspace(n, np.flatnonzero(d > 2 * r))
    return HilbertPartition(V, B1, B2, C, meta={"r": r, "builder": "hamming"})
