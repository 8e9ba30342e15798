"""Bit masks over qubits and GF(2) linear algebra on them.

Qubit 0 is the most significant bit of a computational-basis index. A
length-n bit vector over qubits is packed into a Python int so that
qubit i sits at bit position (n - 1 - i); with this packing, applying an
X mask to a basis state is a plain XOR on the index. The Pauli string
X(x) Z(z) is named by its X and Z masks in this packing.
"""

import numpy as np

from .errors import DimensionMismatch, GroupTooLarge

__all__ = [
    "mask_from_indices",
    "gf2_span",
    "gf2_null_space_masks",
    "popcount",
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


def popcount(arr):
    """Elementwise set-bit count for an integer array."""
    return np.bitwise_count(np.asarray(arr, dtype=np.uint64)).astype(np.int64)


def gf2_span(masks, cap=_COSET_CAP):
    """All XOR combinations of the given masks, as a sorted numpy array.

    A mask already in the span of the masks before it adds nothing, so
    dependent generators and duplicates are fine. Raises GroupTooLarge
    when the span would hold more than cap elements.
    """
    span = np.zeros(1, dtype=np.uint64)
    for m in map(np.uint64, masks):
        if m in span:
            continue
        if 2 * span.size > cap:
            raise GroupTooLarge(f"2^{span.size.bit_length()} coset elements exceed cap {cap}")
        span = np.concatenate([span, span ^ m])
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
