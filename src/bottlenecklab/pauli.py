"""Pauli strings in the symplectic (x|z) representation.

Bit conventions, used consistently across the package:

* Qubit 0 is the most significant bit of a computational-basis index.
  A length-n bit vector over qubits is packed into a Python int so that
  qubit i sits at bit position (n - 1 - i); with this packing, applying
  an X mask to a basis state is a plain XOR on the index.
* A Pauli string is P = i^{|x AND z|} * X(x) * Z(z), i.e. the single
  qubit letter with x=z=1 is Y = i*X*Z. On a basis state |b>:
        P|b> = i^{|x AND z|} * (-1)^{|b AND z|} |b XOR x>
  where |.| counts set bits.
* Enumeration order is deterministic: weight ascending, support sets in
  lexicographic order, letters per site in (X, Y, Z) order.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GroupTooLarge, RadiusExceedsN

__all__ = [
    "PauliString",
    "mask_from_indices",
    "indices_from_mask",
    "enumerate_paulis",
    "pauli_count",
    "apply_pauli",
    "apply_pauli_matrix",
    "pauli_matrix",
    "gf2_span",
    "gf2_rank",
    "gf2_null_space_masks",
    "popcount",
    "hamming_distance",
]

_COSET_CAP = 2**20


def mask_from_indices(n, indices):
    """Pack a set of qubit indices into an index-space bit mask."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise DimensionMismatch(f"qubit index {i} outside 0..{n - 1}")
        mask |= 1 << (n - 1 - i)
    return mask


def indices_from_mask(n, mask):
    """Qubit indices whose bit is set in an index-space mask, ascending."""
    return tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)


def popcount(arr):
    """Elementwise set-bit count for an integer array."""
    return np.bitwise_count(np.asarray(arr, dtype=np.uint64)).astype(np.int64)


def hamming_distance(n, centers):
    """Hamming distance of every n-bit basis index to the nearest center."""
    idx = np.arange(1 << n, dtype=np.uint64)
    d = np.full(idx.shape, np.iinfo(np.int64).max)
    for c in centers:
        np.minimum(d, popcount(idx ^ np.uint64(int(c))), out=d)
    return d


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string identified by its X and Z masks.

    x_bits/z_bits are index-space masks (see module docstring). The
    overall phase convention i^{|x AND z|} is fixed by apply_pauli and
    pauli_matrix; equality and hashing ignore nothing, two strings are
    equal iff (n, x_bits, z_bits) coincide.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.x_bits & ~full or self.z_bits & ~full:
            raise DimensionMismatch("mask has bits outside the register")

    @classmethod
    def from_letters(cls, n, letters):
        """Build from {qubit: 'X'|'Y'|'Z'} (identity elsewhere)."""
        x = z = 0
        for i, w in letters.items():
            bit = 1 << (n - 1 - i)
            if w in ("X", "Y"):
                x |= bit
            if w in ("Z", "Y"):
                z |= bit
            if w not in ("X", "Y", "Z"):
                raise ValueError(f"unknown letter {w!r}")
        return cls(n, x, z)

    def support(self):
        """Set of qubits on which the string acts non-trivially."""
        return set(indices_from_mask(self.n, self.x_bits | self.z_bits))

    def weight(self):
        return int(self.x_bits | self.z_bits).bit_count()

    def letter(self, i):
        bit = 1 << (self.n - 1 - i)
        x, z = bool(self.x_bits & bit), bool(self.z_bits & bit)
        return {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(x, z)]

    def __str__(self):
        return "".join(self.letter(i) for i in range(self.n))


def pauli_count(n, r):
    """Number of Pauli strings of weight at most r on n qubits."""
    from math import comb

    return sum(comb(n, k) * 3**k for k in range(r + 1))


def enumerate_paulis(n, r):
    """All Pauli strings of weight <= r in deterministic order.

    Order: weight ascending, supports lexicographically, letters per
    support position in X < Y < Z order. Raises RadiusExceedsN when r is
    outside [0, n].
    """
    if not 0 <= r <= n:
        raise RadiusExceedsN(f"radius {r} outside [0, {n}]")
    out = [PauliString(n, 0, 0)]
    for k in range(1, r + 1):
        for supp in itertools.combinations(range(n), k):
            for letters in itertools.product("XYZ", repeat=k):
                out.append(PauliString.from_letters(n, dict(zip(supp, letters))))
    return out


def _phases_and_perm(P, dim):
    idx = np.arange(dim, dtype=np.uint64)
    signs = 1 - 2 * (popcount(idx & np.uint64(P.z_bits)) & 1)
    phase = 1j ** (int(P.x_bits & P.z_bits).bit_count() % 4)
    perm = (idx ^ np.uint64(P.x_bits)).astype(np.int64)
    return phase * signs.astype(np.complex128), perm


def apply_pauli(P, v):
    """Apply a Pauli string to a state vector."""
    v = np.asarray(v, dtype=np.complex128)
    dim = 1 << P.n
    if v.shape[0] != dim:
        raise DimensionMismatch(f"vector has dim {v.shape[0]}, operator needs {dim}")
    coef, perm = _phases_and_perm(P, dim)
    out = np.zeros_like(v)
    out[perm] = (coef * v.T).T if v.ndim > 1 else coef * v
    return out


def apply_pauli_matrix(P, cols):
    """Apply a Pauli string to every column of a (dim, k) matrix at once."""
    cols = np.asarray(cols, dtype=np.complex128)
    dim = 1 << P.n
    if cols.shape[0] != dim:
        raise DimensionMismatch(f"columns have dim {cols.shape[0]}, need {dim}")
    coef, perm = _phases_and_perm(P, dim)
    out = np.zeros_like(cols)
    out[perm, :] = coef[:, None] * cols
    return out


def pauli_matrix(P):
    """Dense matrix of a Pauli string (dim x dim)."""
    dim = 1 << P.n
    coef, perm = _phases_and_perm(P, dim)
    M = np.zeros((dim, dim), dtype=np.complex128)
    M[perm, np.arange(dim)] = coef
    return M


def gf2_rank(masks):
    """Rank over GF(2) of a list of bit masks."""
    by_msb = {}
    rank = 0
    for row in masks:
        cur = int(row)
        while cur:
            msb = cur.bit_length() - 1
            if msb in by_msb:
                cur ^= by_msb[msb]
            else:
                by_msb[msb] = cur
                rank += 1
                break
    return rank


def gf2_span(masks, cap=_COSET_CAP):
    """All XOR combinations of the given masks, as a sorted numpy array.

    Dependent generators are fine; duplicates are removed. Raises
    GroupTooLarge when 2**len(masks) would exceed the cap.
    """
    if 2 ** len(masks) > cap:
        raise GroupTooLarge(f"2^{len(masks)} coset elements exceed cap {cap}")
    span = np.zeros(1, dtype=np.uint64)
    for m in masks:
        span = np.concatenate([span, span ^ np.uint64(m)])
    return np.unique(span)


def gf2_null_space_masks(n, masks):
    """Basis masks for {v : v . m = 0 mod 2 for every m in masks}.

    Works in index-space packing; v ranges over n-bit masks. Standard
    GF(2) elimination on the n x len(masks) transpose system.
    """
    m = len(masks)
    if m == 0:
        return [1 << (n - 1 - i) for i in range(n)]
    # rows: one per mask; columns: qubit bit positions (MSB first).
    rows = [int(x) for x in masks]
    pivot_col = {}
    reduced = []
    for row in rows:
        cur = row
        for col, prow in pivot_col.items():
            if cur >> col & 1:
                cur ^= prow
        if cur:
            col = cur.bit_length() - 1
            pivot_col[col] = cur
            reduced.append(cur)
    # back substitution to make pivot columns unique
    cols = sorted(pivot_col, reverse=True)
    for i, c in enumerate(cols):
        for c2 in cols[:i]:
            if pivot_col[c2] >> c & 1:
                pivot_col[c2] ^= pivot_col[c]
    free_cols = [c for c in range(n) if c not in pivot_col]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for c, prow in pivot_col.items():
            if prow >> fc & 1:
                v |= 1 << c
        basis.append(v)
    return basis
