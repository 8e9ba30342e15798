import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenecklab import pauli as pl
from bottlenecklab.errors import DimensionMismatch, GroupTooLarge, RadiusExceedsN
from oracles import (
    PauliString,
    apply_pauli,
    enumerate_paulis,
    gf2_rank,
    indices_from_mask,
    pauli_count,
    pauli_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def test_mask_packing_msb_convention():
    # qubit 0 is the most significant bit of the basis index
    assert pl.mask_from_indices(3, [0]) == 0b100
    assert pl.mask_from_indices(3, [2]) == 0b001
    assert indices_from_mask(3, 0b101) == (0, 2)


def test_single_y_phase():
    # Y|0> = i|1> under the Y = i X Z convention
    P = PauliString.from_letters(1, {0: "Y"})
    v = np.array([1, 0], dtype=complex)
    out = apply_pauli(P, v)
    assert np.allclose(out, [0, 1j])


@pytest.mark.parametrize("letter,mat", [("X", X), ("Y", Y), ("Z", Z)])
def test_single_qubit_matrices(letter, mat):
    P = PauliString.from_letters(1, {0: letter})
    assert np.allclose(pauli_matrix(P), mat, atol=1e-14)


def test_multi_qubit_matrix_matches_kron(rng):
    # letters on qubits 0..2; qubit 0 is the leftmost kron factor
    for _ in range(20):
        letters = {}
        mats = []
        for q in range(3):
            w = rng.choice(["I", "X", "Y", "Z"])
            mats.append({"I": I2, "X": X, "Y": Y, "Z": Z}[w])
            if w != "I":
                letters[q] = w
        P = PauliString.from_letters(3, letters)
        assert np.allclose(pauli_matrix(P), kron_all(mats), atol=1e-14)


def test_support_and_weight():
    P = PauliString.from_letters(4, {1: "X", 3: "Z"})
    assert P.support() == {1, 3}
    assert P.weight() == 2
    assert str(P) == "IXIZ"


def test_apply_matches_matrix(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        x = int(rng.integers(0, 2**n))
        z = int(rng.integers(0, 2**n))
        P = PauliString(n, x, z)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert np.allclose(apply_pauli(P, v), pauli_matrix(P) @ v, atol=1e-12)


def test_apply_dimension_mismatch():
    P = PauliString(2, 0, 0)
    with pytest.raises(DimensionMismatch):
        apply_pauli(P, np.zeros(3))


def test_pauli_involution(rng):
    # the i-factor on Y makes every string square to + identity
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x = int(rng.integers(0, 2**n))
        z = int(rng.integers(0, 2**n))
        P = PauliString(n, x, z)
        M = pauli_matrix(P)
        assert np.allclose(M @ M, np.eye(2**n), atol=1e-13)


def test_enumeration_counts():
    assert pauli_count(2, 1) == 7
    assert len(enumerate_paulis(2, 1)) == 7
    assert pauli_count(3, 2) == 37
    assert len(enumerate_paulis(3, 2)) == 37


def test_enumeration_deterministic_and_unique():
    a = enumerate_paulis(3, 2)
    b = enumerate_paulis(3, 2)
    assert a == b
    assert len(set(a)) == len(a)
    # identity first, then weight-1 on qubit 0 in X, Y, Z order
    assert str(a[0]) == "III"
    assert [str(p) for p in a[1:4]] == ["XII", "YII", "ZII"]


def test_enumeration_radius_errors():
    with pytest.raises(RadiusExceedsN):
        enumerate_paulis(2, 3)
    with pytest.raises(RadiusExceedsN):
        enumerate_paulis(2, -1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.data())
def test_enumeration_count_formula(n, data):
    r = data.draw(st.integers(0, n))
    assert len(enumerate_paulis(n, r)) == pauli_count(n, r)


def test_gf2_rank():
    assert gf2_rank([0b110, 0b011, 0b101]) == 2
    assert gf2_rank([0b110, 0b011]) == 2
    assert gf2_rank([0, 0]) == 0


def test_gf2_span():
    span = pl.gf2_span([0b110, 0b011])
    assert sorted(int(s) for s in span) == [0b000, 0b011, 0b101, 0b110]


def test_gf2_span_cap():
    with pytest.raises(GroupTooLarge, match="2\\^21 coset elements"):
        pl.gf2_span([1 << i for i in range(21)], cap=2**20)


def test_gf2_span_cap_counts_the_span_not_the_masks():
    # 21 masks spanning two elements: the cap reads the span's size, so
    # dependent masks and repeats cost nothing against it
    assert pl.gf2_span([0b11] * 21, cap=2**20).tolist() == [0b00, 0b11]
    assert pl.gf2_span(list(range(1, 22)), cap=32).size == 32
    with pytest.raises(GroupTooLarge, match="2\\^6 coset elements"):
        pl.gf2_span(list(range(1, 34)), cap=32)


def test_null_space(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        masks = [int(rng.integers(0, 2**n)) for _ in range(int(rng.integers(1, 5)))]
        basis = pl.gf2_null_space_masks(n, masks)
        assert len(basis) == n - gf2_rank(masks)
        for v in basis:
            for m in masks:
                assert int(v & m).bit_count() % 2 == 0
        assert gf2_rank(basis) == len(basis)
