import numpy as np
import pytest

from bottlenecklab import subspace as sub
from bottlenecklab.errors import BadPartition, CenterOutsideSpace, NotOrthonormal, RadiusExceedsN
from bottlenecklab.model import barrier_subspace, build_hamiltonian, label_basis, steane7

from conftest import random_state
from oracles import (
    EnumerationTooLarge,
    _complement_within,
    complement,
    empty_subspace,
    enumerated_blocks,
    enumerated_partition,
    neighborhood,
    per_block_labels,
)


def ball(n, center, radius, label=""):
    return sub.hamming_ball_subspace(n, [center], radius, label)


def test_subspace_validates_orthonormality():
    good = np.eye(4, dtype=complex)[:, :2]
    sub.Subspace(2, good)
    bad = good.copy()
    bad[:, 1] = bad[:, 0]
    with pytest.raises(NotOrthonormal):
        sub.Subspace(2, bad)


def test_projector_idempotent(rng):
    V = sub.Subspace(2, np.linalg.qr(rng.normal(size=(4, 2)) + 0j)[0])
    P = sub.projector(V)
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P - P.conj().T).max() < 1e-12


def test_empty_subspace_is_first_class():
    e = empty_subspace(2)
    assert e.dim == 0
    P = sub.projector(e)
    assert P.shape == (4, 4) and np.abs(P).max() == 0


def test_neighborhood_contains_input(rng):
    v = random_state(rng, 8)
    V = sub.Subspace(3, v.reshape(-1, 1))
    B = neighborhood(V, 1)
    PV, PB = sub.projector(V), sub.projector(B)
    assert np.abs(PV @ PB - PV).max() < 1e-8


def test_neighborhood_of_basis_state_is_hamming_ball():
    # diagonal fast path agreement, radius 1 and 2 around |000>
    n = 3
    V = ball(n, 0, 0)
    for r in (1, 2):
        B = neighborhood(V, r)
        H = ball(n, 0, r)
        assert np.abs(sub.projector(B) - sub.projector(H)).max() < 1e-8


def test_neighborhood_fast_path_multiball(rng):
    # same for a two-center diagonal subspace
    n = 4
    V = sub.hamming_ball_subspace(n, [0b0000, 0b1111], 0)
    B = neighborhood(V, 1)
    H = sub.hamming_ball_subspace(n, [0b0000, 0b1111], 1)
    assert np.abs(sub.projector(B) - sub.projector(H)).max() < 1e-8


def test_composition_law(rng):
    # B_r(B_s(V)) = B_{r+s}(V) as projectors, Frobenius tolerance 1e-7
    n = 3
    for _ in range(4):
        k = int(rng.integers(1, 3))
        basis = np.linalg.qr(
            rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
        )[0]
        V = sub.Subspace(n, basis)
        for r, s in [(1, 1), (1, 2)]:
            lhs = neighborhood(neighborhood(V, s), r)
            rhs = neighborhood(V, r + s)
            dev = np.linalg.norm(sub.projector(lhs) - sub.projector(rhs))
            assert dev < 1e-7


def test_neighborhood_full_radius_spans_everything(rng):
    n = 2
    v = random_state(rng, 4)
    V = sub.Subspace(n, v.reshape(-1, 1))
    B = neighborhood(V, n)
    assert B.dim == 4


def test_neighborhood_cap():
    V = ball(4, 0, 1)
    with pytest.raises(EnumerationTooLarge):
        neighborhood(V, 2, cap=100)


def test_boundary_dims():
    n = 3
    V = ball(n, 0, 0)
    # radius-1 boundary of |000> are the three single-flip states
    B = sub.boundary(V, 1)
    assert B.dim == 3
    PV = sub.projector(V)
    assert np.abs(sub.projector(B) @ PV).max() < 1e-10


def test_boundary_empty_for_invariant_subspace():
    # the full space has empty boundary at any radius
    n = 2
    V = ball(n, 0, n)
    B = sub.boundary(V, 1)
    assert B.dim == 0


def test_hamming_ball_counts():
    n = 4
    assert ball(n, 0, 0).dim == 1
    assert ball(n, 0, 1).dim == 5
    assert ball(n, 0, 2).dim == 11
    assert ball(n, 0, 4).dim == 16


def test_hamming_ball_rejects_bad_center():
    with pytest.raises(CenterOutsideSpace):
        ball(3, 9, 1)


def test_partition_from_radius_structure():
    n = 3
    V = ball(n, 0, 0)
    part = sub.partition_from_radius(V, 1)
    # A=|000>, B1 = weight-1 shell, B2 = weight-2 shell, C = |111>
    assert [part.A.dim, part.B1.dim, part.B2.dim, part.C.dim] == [1, 3, 3, 1]
    total = (
        sub.projector(part.A)
        + sub.projector(part.B1)
        + sub.projector(part.B2)
        + sub.projector(part.C)
    )
    assert np.abs(total - np.eye(2**n)).max() < 1e-8


@pytest.mark.parametrize("n", range(1, 7))
def test_hamming_shells_match_enumeration(n):
    # every radius whose enumeration stays under 2^20 stacked entries
    checked = 0
    for centers in ([1], [0, (1 << n) - 1]):
        for radius in (0, 1):
            V = sub.hamming_ball_subspace(n, centers, radius)
            for r in range(n + 1):
                try:
                    oracle = enumerated_blocks(V, r, cap=2**20)
                except EnumerationTooLarge:
                    continue
                part = sub.partition_from_radius(V, r)
                for name, P in oracle.items():
                    block = getattr(part, name)
                    assert name == "A" or block.labels[0] is sub.identity_basis(n)
                    dev = np.abs(P - sub.projector(block)).max()
                    assert dev < 1e-9, (centers, radius, r, name)
                checked += 1
    # all 4 (n + 1) cases fit up to n = 5; at n = 6, 20 of the 28 do,
    # among them r >= 3 on the radius-0 balls, where B_2r is everything
    assert checked >= (4 * (n + 1) if n <= 5 else 20)


def test_partition_builder_chosen_from_input(rng):
    # a labeled V takes the label shells; the same span without labels,
    # even one phased basis state per column, is refused
    n = 4
    ball_V = ball(n, 0b0101, 1)
    part = sub.partition_from_radius(ball_V, 1)
    assert part.A is ball_V
    for block in (part.B1, part.B2, part.C):
        assert block.labels[0] is sub.identity_basis(n)
    oracle = enumerated_blocks(ball_V, 1, cap=2**20)
    for name, P in oracle.items():
        assert np.abs(P - sub.projector(getattr(part, name))).max() < 1e-9
    phased = sub.Subspace(n, ball_V.basis * np.exp(1j * rng.uniform(0, 6, ball_V.dim)))
    with pytest.raises(BadPartition, match="no labels"):
        sub.partition_from_radius(phased, 1)
    with pytest.raises(BadPartition, match="no labels"):
        sub.boundary(phased, 1)
    # no enumeration runs, so no size cap applies
    big = sub.partition_from_radius(ball(9, 0, 1), 3)
    assert [big.B1.dim, big.B2.dim, big.C.dim] == [36 + 84 + 126, 126 + 84 + 36, 9 + 1]


def test_superposed_input_rejected(rng):
    n = 3
    superposed = sub.Subspace(n, random_state(rng, 1 << n).reshape(-1, 1))
    with pytest.raises(BadPartition):
        sub.partition_from_radius(superposed, 1)
    with pytest.raises(BadPartition):
        sub.boundary(superposed, 1)


def test_partition_radius_outside_register_rejected(rng):
    n = 3
    superposed = sub.Subspace(n, random_state(rng, 1 << n).reshape(-1, 1))
    for r in (-1, n + 1):
        with pytest.raises(RadiusExceedsN):
            sub.partition_from_radius(ball(n, 0, 1), r)
        with pytest.raises(RadiusExceedsN):
            enumerated_partition(superposed, r)
        with pytest.raises(BadPartition):
            sub.partition_from_radius(superposed, r)
    # an empty V has no radius to reject: everything lands in C
    for r in (-2, -1, n + 1):
        part = sub.partition_from_radius(sub.basis_state_subspace(n, []), r)
        assert [b.dim for b in (part.A, part.B1, part.B2, part.C)] == [0, 0, 0, 1 << n]


def test_partition_validation_catches_overlap():
    n = 2
    A = ball(n, 0, 0)
    bad = sub.basis_state_subspace(n, [0, 1])
    B2 = sub.basis_state_subspace(n, [2])
    C = sub.basis_state_subspace(n, [3])
    with pytest.raises(BadPartition):
        sub.HilbertPartition(A, bad, B2, C)


def test_partition_validation_catches_missing_dims():
    n = 2
    A = ball(n, 0, 0)
    B1 = sub.basis_state_subspace(n, [1])
    B2 = sub.basis_state_subspace(n, [2])
    with pytest.raises(BadPartition):
        sub.HilbertPartition(A, B1, B2, empty_subspace(n))


def test_complement_roundtrip(rng):
    n = 3
    V = sub.Subspace(n, np.linalg.qr(rng.normal(size=(8, 3)) + 0j)[0])
    C = complement(V)
    assert C.dim == 5
    assert np.abs(V.basis.conj().T @ C.basis).max() < 1e-10


def test_labels_must_reproduce_the_basis(rng):
    n = 3
    W = sub.identity_basis(n)
    V = sub.basis_state_subspace(n, [5, 1])
    assert V.labels[0] is W
    assert np.flatnonzero(V.labels[1]).tolist() == [1, 5]
    assert not V.labels[1].flags.writeable
    mask = np.zeros(8, dtype=bool)
    mask[[1, 5]] = True
    sub.Subspace(n, W.columns(mask), labels=(W, mask))
    built = sub.Subspace(n, labels=(W, mask))
    assert np.array_equal(built.basis, W.columns(mask))
    with pytest.raises(BadPartition):
        sub.Subspace(n)
    phased = W.columns(mask) * np.exp(1j * rng.uniform(0, 6, 2))
    wrong = mask.copy()
    wrong[2] = True
    for basis, labels in (
        (phased, (W, mask)),
        (W.columns(mask), (W, wrong)),
        (W.columns(mask), (sub.identity_basis(n + 1), np.zeros(16, dtype=bool))),
    ):
        with pytest.raises(BadPartition):
            sub.Subspace(n, basis, labels=labels)


def test_labeled_css_ball_needs_no_enumeration():
    checks = steane7()
    V = barrier_subspace(checks, (0, 0), 0, 1, build_hamiltonian(checks)).V
    part = sub.partition_from_radius(V, 1)
    for block in (part.B1, part.B2, part.C):
        assert block.labels[0] is label_basis(checks)
    assert [part.A.dim, part.B1.dim, part.B2.dim, part.C.dim] == [1, 21, 98, 8]
    assert sub.boundary(V, 1).dim == 21


def test_complement_within_drops_rounding_noise():
    # a Steane ball of radius 1 reaches every label within 3 moves, so its
    # radius-2 split has empty B2 and C: the enumeration's complement of
    # the full space in itself is pure rounding and must come out empty
    checks = steane7()
    V = barrier_subspace(checks, (0, 0), 1, 1, build_hamiltonian(checks)).V
    superposed = sub.Subspace(V.n, V.basis)
    dims = [22, 106, 0, 0]
    for part in (sub.partition_from_radius(V, 2), enumerated_partition(superposed, 2)):
        assert [part.A.dim, part.B1.dim, part.B2.dim, part.C.dim] == dims
    full = neighborhood(V, 2)
    assert full.dim == 128
    assert _complement_within(neighborhood(full, 1), full).dim == 0


@pytest.mark.parametrize("pair", [("A", "B1"), ("B1", "C"), ("B2", "C"), ("A", "C")])
def test_overlapping_labeled_blocks_are_named(pair):
    n = 3
    W = sub.identity_basis(n)
    names = ["A", "B1", "B2", "C"]
    owner = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    masks = [owner == b for b in range(4)]
    # one label claimed by both blocks of the pair, one label by neither
    i, j = (names.index(x) for x in pair)
    moved = np.flatnonzero(masks[i])[0]
    masks[j][moved] = True
    masks[j][np.flatnonzero(masks[j] & ~masks[i])[0]] = False
    blocks = [sub.Subspace(n, labels=(W, m)) for m in masks]
    with pytest.raises(BadPartition, match=f"blocks {pair[0]} and {pair[1]} share 1 labels"):
        sub.HilbertPartition(*blocks)


def test_partition_keeps_the_block_of_every_label():
    fam = steane7()
    H = build_hamiltonian(fam)
    W = label_basis(fam)
    cert = barrier_subspace(fam, (0, 0), 0, 1, H)
    for r in (0, 1, 2):
        part = sub.partition_from_radius(cert.V, r)
        W_part, block = part.labels
        assert W_part is W and not block.flags.writeable
        assert np.array_equal(block, per_block_labels(W, part))
    # blocks given as dense bases keep no labels
    dense = sub.HilbertPartition(*(sub.Subspace(b.n, b.basis) for b in (part.A, part.B1, part.B2, part.C)))
    assert dense.labels is None and per_block_labels(W, dense) is None
    # an empty block need not carry labels
    n = 2
    part = sub.HilbertPartition(
        ball(n, 0, 0), sub.basis_state_subspace(n, [1, 2]), empty_subspace(n), sub.basis_state_subspace(n, [3])
    )
    assert np.array_equal(part.labels[1], [0, 1, 1, 3])
    assert np.array_equal(part.labels[1], per_block_labels(sub.identity_basis(n), part))
