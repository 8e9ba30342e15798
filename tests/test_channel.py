"""Channel validation, locality detection, partitions, mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenecklab import channel
from bottlenecklab.channel import (
    KrausChannel,
    _trusted_channel,
    apply_channel,
    channel_locality,
    check_partition_condition,
    evolve_sequence,
    quasi_local_mixture,
)
from bottlenecklab.errors import DimensionMismatch, EmptyInput, NotTracePreserving
from bottlenecklab.numerics import DENSE_CONDITION_TOL, DensityMatrix, trace_norm
from bottlenecklab.sampler import _checked
from bottlenecklab.subspace import hamming_ball_subspace, identity_basis, partition_from_radius

from conftest import pure_state_density
from oracles import PauliString, pauli_matrix, validate_channel

SQ = np.sqrt(0.5)


def identity_channel(n):
    return KrausChannel(n, [np.eye(1 << n, dtype=np.complex128)])


def bitflip_mix(n, site):
    X = pauli_matrix(PauliString.from_letters(n, {site: "X"}))
    return KrausChannel(n, [SQ * np.eye(1 << n), SQ * X])


def depolarizing_1q():
    ops = [np.eye(2, dtype=np.complex128)]
    ops += [pauli_matrix(PauliString.from_letters(1, {0: letter})) for letter in "XYZ"]
    return KrausChannel(1, [0.5 * K for K in ops])


def random_channel(rng, n, m):
    dim = 1 << n
    raw = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(m)
    ]
    S = sum(K.conj().T @ K for K in raw)
    w, U = np.linalg.eigh(S)
    inv_sqrt = (U * (w ** -0.5)[None, :]) @ U.conj().T
    return KrausChannel(n, [K @ inv_sqrt for K in raw])


class TestKrausChannel:
    def test_trace_preservation_enforced(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel(1, [0.9 * np.eye(2)])

    def test_needs_at_least_one_operator(self):
        with pytest.raises(EmptyInput):
            KrausChannel(1, [])

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(2, [np.eye(2)])

    def test_a_stacked_array_builds_the_channel_of_its_list(self):
        ops = [SQ * np.eye(2), SQ * np.array([[0, 1], [1, 0]])]
        stacked = KrausChannel(1, np.array(ops))
        listed = KrausChannel(1, ops)
        assert len(stacked.kraus) == 2
        for a, b in zip(stacked.kraus, listed.kraus):
            assert a.tobytes() == b.tobytes()
        assert len(KrausChannel(1, np.array([np.eye(2)])).kraus) == 1

    def test_an_empty_stacked_array_is_refused(self):
        with pytest.raises(EmptyInput):
            KrausChannel(1, np.zeros((0, 2, 2)))


class TestValidateChannel:
    def test_identity_residual_zero(self):
        rep = validate_channel(identity_channel(2))
        assert rep.residual == 0.0
        assert rep.passes
        assert rep.supports == [()]

    def test_bitflip_mix_passes(self):
        rep = validate_channel(bitflip_mix(2, 0))
        assert rep.passes
        assert rep.supports == [(), (0,)]

    def test_perturbed_identity_fails(self):
        K = np.eye(2, dtype=np.complex128)
        K[0, 0] += 1e-3
        chan = identity_channel(1)
        chan.kraus[0] = K  # sidestep the constructor check on purpose
        rep = validate_channel(chan)
        assert not rep.passes
        assert rep.residual > 1e-4


class TestApplyChannel:
    def test_identity_preserves_state(self, rng):
        rho = DensityMatrix(np.eye(4) / 4, 2)
        out = apply_channel(identity_channel(2), rho)
        assert np.allclose(out.mat, rho.mat)

    def test_full_dephasing_kills_coherence(self):
        Z = np.diag([1.0, -1.0]).astype(np.complex128)
        chan = KrausChannel(1, [SQ * np.eye(2), SQ * Z])
        plus = pure_state_density(np.array([SQ, SQ]), 1)
        out = apply_channel(chan, plus)
        assert np.allclose(out.mat, np.diag([0.5, 0.5]), atol=1e-15)

    def test_trace_preserved(self, rng):
        chan = random_channel(rng, 2, 3)
        rho = DensityMatrix(np.eye(4) / 4, 2)
        out = apply_channel(chan, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        with pytest.raises(DimensionMismatch):
            apply_channel(identity_channel(2), rho)


class TestChannelLocality:
    def test_single_site_flip(self):
        assert channel_locality(bitflip_mix(3, 1)) == 1

    def test_two_site_kraus(self):
        P = pauli_matrix(PauliString.from_letters(3, {0: "X", 1: "X"}))
        chan = KrausChannel(3, [SQ * np.eye(8), SQ * P])
        assert channel_locality(chan) == 2

class TestPartitionCondition:
    def test_identity_passes_any_partition(self):
        ball = hamming_ball_subspace(3, [0], 0)
        part = partition_from_radius(ball, 1)
        rep = check_partition_condition(identity_channel(3), part)
        assert rep.residual == 0.0

    def test_local_channel_passes_radius_one(self):
        ball = hamming_ball_subspace(3, [0], 0)
        part = partition_from_radius(ball, 1)
        rep = check_partition_condition(bitflip_mix(3, 2), part)
        assert rep.residual < DENSE_CONDITION_TOL

    def test_three_site_kraus_fails(self):
        ball = hamming_ball_subspace(3, [0], 0)
        part = partition_from_radius(ball, 1)
        P = pauli_matrix(PauliString.from_letters(3, {0: "X", 1: "X", 2: "X"}))
        chan = KrausChannel(3, [SQ * np.eye(8), SQ * P])
        rep = check_partition_condition(chan, part)
        assert rep.residual >= DENSE_CONDITION_TOL
        assert rep.residual == pytest.approx(SQ, abs=1e-12)
        assert rep.worst_kraus == 1


class TestEvolveSequence:
    def test_identity_sequence_constant(self):
        rho0 = DensityMatrix(np.diag([1.0, 0.0]), 1)
        ref = DensityMatrix(np.eye(2) / 2, 1)
        distances = list(evolve_sequence([identity_channel(1)], rho0, ref, 5))
        assert len(distances) == 6
        assert np.allclose(distances, distances[0])

    def test_zero_distance_when_started_at_reference(self):
        ref = DensityMatrix(np.eye(2) / 2, 1)
        distances = list(evolve_sequence([depolarizing_1q()], ref, ref, 4))
        assert np.allclose(distances, 0.0, atol=1e-12)

    def test_contractive_approach_to_fixed_point(self):
        chan = depolarizing_1q()
        rho0 = DensityMatrix(np.diag([1.0, 0.0]), 1)
        ref = DensityMatrix(np.eye(2) / 2, 1)
        distances = list(evolve_sequence([chan], rho0, ref, 10))
        diffs = np.diff(distances)
        assert (diffs <= 1e-12).all()
        assert distances[-1] < 1e-6

    def test_cycles_shorter_lists(self):
        chans = [bitflip_mix(1, 0), depolarizing_1q()]
        rho0 = DensityMatrix(np.diag([1.0, 0.0]), 1)
        ref = DensityMatrix(np.eye(2) / 2, 1)
        distances = list(evolve_sequence(chans, rho0, ref, 5))
        assert len(distances) == 6

    def test_bad_arguments_rejected_at_call(self):
        ref = DensityMatrix(np.eye(2) / 2, 1)
        with pytest.raises(DimensionMismatch):
            evolve_sequence([], ref, ref, 3)
        with pytest.raises(DimensionMismatch):
            evolve_sequence([depolarizing_1q()], np.eye(4) / 4, ref, 3)


class TestContraction:
    def test_trace_distance_never_grows(self, rng):
        for _ in range(10):
            chan = random_channel(rng, 2, 3)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sigma = a @ a.conj().T
            sigma /= np.trace(sigma).real
            tau = b @ b.conj().T
            tau /= np.trace(tau).real
            before = trace_norm(sigma - tau)
            after = trace_norm(
                apply_channel(chan, sigma).mat - apply_channel(chan, tau).mat
            )
            assert after <= before + 1e-9


class TestQuasiLocalMixture:
    def test_certificate_structure(self):
        local = bitflip_mix(2, 0)
        tail = bitflip_mix(2, 1)
        p = 0.125
        mixed = quasi_local_mixture(local, tail, p)
        assert validate_channel(mixed).passes
        (r, (f_r, surrogate)), = mixed.quasi_local_certificate.items()
        assert r == 1
        assert f_r == 2 * p
        assert channel_locality(surrogate) <= r

    def test_mixture_acts_as_convex_combination(self, rng):
        local = bitflip_mix(2, 0)
        tail = bitflip_mix(2, 1)
        p = 0.3
        mixed = quasi_local_mixture(local, tail, p)
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), 2)
        direct = (1 - p) * apply_channel(local, rho).mat + p * apply_channel(
            tail, rho
        ).mat
        assert np.allclose(apply_channel(mixed, rho).mat, direct, atol=1e-12)


@st.composite
def monomial_forms(draw):
    """Monomial forms over the identity basis of 1 to 3 qubits, from the
    one builder: random (k, 1) masks and complex coefficients, some zero
    or tiny."""
    n = draw(st.integers(1, 3))
    dim = 1 << n
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.0, 1e-200, 1.0], size=(k, dim), p=[0.2, 0.1, 0.7])
    coef = scale * (rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))) / np.sqrt(k)
    moves = rng.integers(0, dim, (k, 1))
    return _trusted_channel(identity_basis(n), moves, coef, np.abs(coef) ** 2).monomial


@settings(max_examples=200, deadline=None, derandomize=True)
@given(form=monomial_forms())
def test_column_sum_trace_residual_matches_the_dense_residual(form):
    total = sum(K.conj().T @ K for K in form.dense())
    want = np.abs(total - np.eye(form.basis.dim)).max()
    assert abs(form.trace_residual() - want) <= 1e-12


def test_nan_coefficients_fail_the_trace_check():
    # a NaN residual fails the comparison in the samplers' one check of a
    # monomial channel and in the dense constructor
    coef = np.array([[np.nan] * 4, [1.0] * 4])
    chan = _trusted_channel(identity_basis(2), np.array([[1], [0]]), coef, coef**2)
    with pytest.raises(NotTracePreserving, match="nan"):
        _checked(chan, np.full(4, 0.25), "site 0")
    assert chan.fixes is None
    with pytest.raises(NotTracePreserving):
        KrausChannel(1, [[[np.nan, 0], [0, 1]]])


def test_a_block_of_mask_forms_is_stacked_as_masks(monkeypatch):
    # channel_locality hands a block of forms to the support pass as their
    # (K, 1) masks and gives the block's largest support
    seen = []
    real = channel._monomial_supports

    def spied(moves, coef, n):
        seen.append(moves.shape)
        return real(moves, coef, n)

    monkeypatch.setattr(channel, "_monomial_supports", spied)
    basis, half = identity_basis(3), np.full((2, 8), SQ)
    masks = [_trusted_channel(basis, np.array([[c], [0]]), half, half**2) for c in (0b100, 0b011)]
    assert channel_locality(masks) == 2 and seen == [(4, 1)]
