import tracemalloc

import numpy as np
import pytest

from bottlenecklab import subspace as sub
from bottlenecklab.errors import BadPartition, CenterOutsideSpace, RadiusExceedsN
from bottlenecklab.model import barrier_subspace, build_hamiltonian, ising_ring, label_basis, steane7, toric

from conftest import random_state
from oracles import (
    EnumerationTooLarge,
    _complement_within,
    complement,
    enumerated_blocks,
    enumerated_partition,
    neighborhood,
    row_norm_blocks,
    span_projector,
)


def ball(n, center, radius):
    return sub.hamming_ball_subspace(n, [center], radius)


def test_projector_idempotent(rng):
    W = label_basis(steane7())
    V = sub.Subspace(W, rng.random(W.dim) < 0.3)
    P = V.projector()
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P - P.conj().T).max() < 1e-12
    assert np.trace(P).real == pytest.approx(V.dim, abs=1e-12)


def test_empty_subspace_is_first_class():
    e = sub.basis_state_subspace(2, [])
    assert e.dim == 0 and e.basis.shape == (4, 0)
    P = e.projector()
    assert P.shape == (4, 4) and np.abs(P).max() == 0


def test_neighborhood_contains_input(rng):
    X = random_state(rng, 8).reshape(-1, 1)
    PV, PB = span_projector(X), span_projector(neighborhood(X, 1))
    assert np.abs(PV @ PB - PV).max() < 1e-8


def test_neighborhood_of_basis_state_is_hamming_ball():
    # diagonal fast path agreement, radius 1 and 2 around |000>
    n = 3
    V = ball(n, 0, 0)
    for r in (1, 2):
        B = neighborhood(V.basis, r)
        H = ball(n, 0, r)
        assert np.abs(span_projector(B) - H.projector()).max() < 1e-8


def test_neighborhood_fast_path_multiball(rng):
    # same for a two-center diagonal subspace
    n = 4
    V = sub.hamming_ball_subspace(n, [0b0000, 0b1111], 0)
    B = neighborhood(V.basis, 1)
    H = sub.hamming_ball_subspace(n, [0b0000, 0b1111], 1)
    assert np.abs(span_projector(B) - H.projector()).max() < 1e-8


def test_composition_law(rng):
    # B_r(B_s(V)) = B_{r+s}(V) as projectors, Frobenius tolerance 1e-7
    n = 3
    for _ in range(4):
        k = int(rng.integers(1, 3))
        basis = np.linalg.qr(
            rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
        )[0]
        for r, s in [(1, 1), (1, 2)]:
            lhs = neighborhood(neighborhood(basis, s), r)
            rhs = neighborhood(basis, r + s)
            dev = np.linalg.norm(span_projector(lhs) - span_projector(rhs))
            assert dev < 1e-7


def test_neighborhood_full_radius_spans_everything(rng):
    n = 2
    B = neighborhood(random_state(rng, 4).reshape(-1, 1), n)
    assert B.shape == (4, 4)


def test_neighborhood_cap():
    V = ball(4, 0, 1)
    with pytest.raises(EnumerationTooLarge):
        neighborhood(V.basis, 2, cap=100)


def test_boundary_dims():
    n = 3
    V = ball(n, 0, 0)
    # radius-1 boundary of |000> are the three single-flip states
    B = sub.boundary(V, 1)
    assert B.dim == 3
    assert np.abs(B.projector() @ V.projector()).max() < 1e-10


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
    total = part.A.projector() + part.B1.projector() + part.B2.projector() + part.C.projector()
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
                    oracle = enumerated_blocks(V.basis, r, cap=2**20)
                except EnumerationTooLarge:
                    continue
                part = sub.partition_from_radius(V, r)
                for name, P in oracle.items():
                    block = getattr(part, name)
                    assert block.labels[0] is sub.identity_basis(n)
                    dev = np.abs(P - block.projector()).max()
                    assert dev < 1e-9, (centers, radius, r, name)
                checked += 1
    # all 4 (n + 1) cases fit up to n = 5; at n = 6, 20 of the 28 do,
    # among them r >= 3 on the radius-0 balls, where B_2r is everything
    assert checked >= (4 * (n + 1) if n <= 5 else 20)


def test_partition_builder_chosen_from_input():
    # the blocks are the label shells of the ball over the basis that
    # labels it, the identity basis here and a CSS basis below, and match
    # the enumeration
    n = 4
    ball_V = ball(n, 0b0101, 1)
    part = sub.partition_from_radius(ball_V, 1)
    assert np.array_equal(part.A.labels[1], ball_V.labels[1])
    for block in (part.A, part.B1, part.B2, part.C):
        assert block.labels[0] is sub.identity_basis(n)
    oracle = enumerated_blocks(ball_V.basis, 1, cap=2**20)
    for name, P in oracle.items():
        assert np.abs(P - getattr(part, name).projector()).max() < 1e-9
    # no enumeration runs, so no size cap applies
    big = sub.partition_from_radius(ball(9, 0, 1), 3)
    assert [big.B1.dim, big.B2.dim, big.C.dim] == [36 + 84 + 126, 126 + 84 + 36, 9 + 1]
    checks = steane7()
    V = barrier_subspace(checks, (0, 0), 0, 1, build_hamiltonian(checks)).V
    assert sub.partition_from_radius(V, 1).labels[0] is label_basis(checks)


def test_partition_of_a_ball_matches_the_two_searches():
    # one search from V to inner + 2r gives the blocks of the radius-inner
    # ball's own search followed by a partition of that ball: on the
    # identity basis of ising_ring, where verify-classical runs it, at
    # every (inner, width) with C empty or not, and on two CSS bases from
    # one seed, two seeds and a random set of labels
    rng = np.random.default_rng(7)
    cases = []
    for n in (3, 6, 9, 12):
        W = label_basis(ising_ring(n))
        for center in rng.integers(0, 1 << n, 3):
            cases += [(W, [center], inner, r) for inner in range(n + 1) for r in range(n + 1)]
    for checks in (steane7(), toric(2)):
        W = label_basis(checks)
        for seeds in ([0], [0, W.dim - 1], np.flatnonzero(rng.random(W.dim) < 0.05)):
            cases += [(W, seeds, inner, r) for inner in range(4) for r in range(1, 4)]
    for W, seeds, inner, r in cases:
        want = sub.partition_from_radius(sub.ball(W, seeds, inner), r)
        got = sub.partition_from_radius(sub.ball(W, seeds, 0), r, inner)
        assert got.labels[0] is W
        assert np.array_equal(got.labels[1], want.labels[1]), (W.n, seeds, inner, r)
    # an inner radius outside the register is refused as r is, for a
    # nonempty V; an empty V puts everything in C
    for inner in (-1, 4):
        with pytest.raises(RadiusExceedsN):
            sub.partition_from_radius(ball(3, 0, 0), 1, inner)
    empty = sub.partition_from_radius(sub.basis_state_subspace(3, []), 1, 5)
    assert (empty.labels[1] == 3).all()


def test_superposed_input_rejected(rng):
    # a subspace is a boolean mask over a basis: a state vector is not one
    n = 3
    superposed = random_state(rng, 1 << n)
    for mask in (superposed, superposed.reshape(-1, 1), np.ones(1 << n, dtype=int)):
        with pytest.raises(BadPartition):
            sub.Subspace(sub.identity_basis(n), mask)


def test_partition_radius_outside_register_rejected(rng):
    n = 3
    superposed = random_state(rng, 1 << n).reshape(-1, 1)
    for r in (-1, n + 1):
        with pytest.raises(RadiusExceedsN):
            sub.partition_from_radius(ball(n, 0, 1), r)
        with pytest.raises(RadiusExceedsN):
            enumerated_partition(superposed, r)
    # an empty V has no radius to reject: everything lands in C
    for r in (-2, -1, n + 1):
        part = sub.partition_from_radius(sub.basis_state_subspace(n, []), r)
        assert [b.dim for b in (part.A, part.B1, part.B2, part.C)] == [0, 0, 0, 1 << n]


def test_partition_validation_catches_missing_dims():
    # a block-label array must give one block 0..3 to every label of W
    W = sub.identity_basis(2)
    for block in ([0, 1, 2], [0, 1, 2, 3, 3], [0, 1, 2, 4], [-1, 1, 2, 3]):
        with pytest.raises(BadPartition):
            sub.HilbertPartition(W, np.array(block))
    part = sub.HilbertPartition(W, [0, 1, 1, 3])
    assert [b.dim for b in (part.A, part.B1, part.B2, part.C)] == [1, 2, 0, 1]


def test_partition_validation_catches_overlap():
    # one block per label: giving a label two blocks is a shape error
    W = sub.identity_basis(2)
    with pytest.raises(BadPartition):
        sub.HilbertPartition(W, [[0, 1], [1, 1], [2, 2], [3, 3]])


def test_complement_roundtrip(rng):
    X = np.linalg.qr(rng.normal(size=(8, 3)) + 0j)[0]
    C = complement(X)
    assert C.shape == (8, 5)
    assert np.abs(X.conj().T @ C).max() < 1e-10


def test_labels_must_reproduce_the_basis():
    # a Subspace is a mask over one basis: its basis is the masked columns
    n = 3
    W = sub.identity_basis(n)
    V = sub.basis_state_subspace(n, [5, 1])
    assert V.labels[0] is W
    assert np.flatnonzero(V.labels[1]).tolist() == [1, 5]
    assert not V.labels[1].flags.writeable
    mask = np.zeros(8, dtype=bool)
    mask[[1, 5]] = True
    built = sub.Subspace(W, mask)
    mask[2] = True
    assert np.flatnonzero(built.labels[1]).tolist() == [1, 5]
    assert np.array_equal(built.basis, V.basis) and built.dim == 2
    css = label_basis(steane7())
    for W_, bad in ((W, np.zeros(16, dtype=bool)), (W, np.zeros((2, 4), dtype=bool)), (css, mask)):
        with pytest.raises(BadPartition):
            sub.Subspace(W_, bad)


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
    dims = [22, 106, 0, 0]
    part = sub.partition_from_radius(V, 2)
    assert [part.A.dim, part.B1.dim, part.B2.dim, part.C.dim] == dims
    assert [X.shape[1] for X in enumerated_partition(V.basis, 2)] == dims
    full = neighborhood(V.basis, 2)
    assert full.shape[1] == 128
    assert _complement_within(neighborhood(full, 1), full).shape[1] == 0


def test_partition_keeps_the_block_of_every_label():
    # the block array is a read-only copy over V's basis, and each block's
    # dense basis spans exactly the labels the array gives it
    fam = steane7()
    H = build_hamiltonian(fam)
    W = label_basis(fam)
    cert = barrier_subspace(fam, (0, 0), 0, 1, H)
    for r in (0, 1, 2):
        part = sub.partition_from_radius(cert.V, r)
        W_part, block = part.labels
        assert W_part is W and block.dtype == np.int8 and not block.flags.writeable
        want = row_norm_blocks(W, [b.basis for b in (part.A, part.B1, part.B2, part.C)])
        assert np.array_equal(block, want)
    given = np.array([0, 1, 1, 3])
    part = sub.HilbertPartition(sub.identity_basis(2), given)
    given[0] = 3
    assert part.labels[1].tolist() == [0, 1, 1, 3]


def test_identity_basis_holds_one_table():
    # order, x and x_class share one arange, and blocks, z and z_class are
    # broadcast constants: 8 bytes per state, 8 MiB at n = 20
    tracemalloc.start()
    try:
        W = sub.identity_basis.__wrapped__(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 << 20
    assert W.identity and W.blocks.shape == (1 << 20, 1, 1)
    for name in ("order", "x", "x_class", "z", "z_class", "blocks"):
        assert not getattr(W, name).flags.writeable, name
    small = sub.identity_basis.__wrapped__(3)
    assert np.array_equal(small.x, np.arange(8)) and small.x.dtype == np.uint64
    assert np.array_equal(small.x_class, np.arange(8)) and not small.z.any() and not small.z_class.any()
    assert np.array_equal(small.dense(), np.eye(8))
    assert np.array_equal(small.index(small.x, small.z), np.arange(8))
