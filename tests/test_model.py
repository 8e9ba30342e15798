"""Check Hamiltonians, expansion scans, barriers, Gibbs states."""

import numpy as np
import pytest

from bottlenecklab.errors import (
    BadPartition,
    BetaNegative,
    EmptyBoundary,
    EmptySubspace,
    NonCommutingChecks,
    NotClassical,
    NotCommuting,
)
from bottlenecklab.model import (
    CheckFamily,
    Hamiltonian,
    barrier_subspace,
    build_hamiltonian,
    checks_from_text,
    curie_weiss,
    expansion_scan,
    gibbs_state,
    ising_ring,
    label_basis,
    label_energies,
    perturb,
    random_ldpc,
    random_local_perturbation,
    repetition,
    steane7,
    subspace_min_energy,
    toric,
)
from bottlenecklab.numerics import max_offdiagonal
from bottlenecklab.subspace import LabelBasis, basis_state_subspace, hamming_ball_subspace, identity_basis
from oracles import (
    PauliString,
    _embed_on_support,
    classical_energy,
    css_eigenstate,
    css_labels,
    dense_check_hamiltonian,
    dense_perturbation,
    gather_embed_on_support,
    gf2_rank,
    label_energy_residual,
    pauli_matrix,
)


class TestCheckFamily:
    def test_rejects_out_of_range_support(self):
        with pytest.raises(NonCommutingChecks):
            CheckFamily(3, z_checks=((0, 5),))

    def test_rejects_odd_overlap(self):
        with pytest.raises(NonCommutingChecks):
            CheckFamily(3, z_checks=((0, 1),), x_checks=((0, 2),))

    def test_steane_is_css(self):
        fam = steane7()
        assert not fam.is_classical
        assert len(fam.z_checks) == len(fam.x_checks) == 3

    def test_text_roundtrip(self):
        text = (
            "n: 8\n"
            "Z: 0 2 4 5\nZ: 1 3 4 5\nZ: 0 2 6 7\nZ: 1 3 6 7\n"
            "X: 0 1 4 6\nX: 0 1 5 7\nX: 2 3 4 6\nX: 2 3 5 7\n"
        )
        assert checks_from_text(text) == toric(2)

    def test_text_infers_register_size(self):
        fam = checks_from_text("Z: 0 1\nZ: 1 2\n")
        assert fam.n == 3
        assert fam.is_classical


class TestBuildHamiltonian:
    def test_ising_ring_3_spectrum(self):
        H = build_hamiltonian(ising_ring(3))
        w = np.linalg.eigvalsh(H.mat)
        assert np.allclose(sorted(w), [0, 0, 2, 2, 2, 2, 2, 2], atol=1e-12)

    def test_single_qubit_check(self):
        H = build_hamiltonian(CheckFamily(1, z_checks=((0,),)))
        assert np.allclose(H.mat, np.diag([0.0, 1.0]))

    def test_steane_ground_degeneracy(self):
        # kernel dimension over GF(2): degeneracy = 2^(n - total rank)
        fam = steane7()
        rank = gf2_rank([int(m) for m in fam.z_masks()]) + gf2_rank(
            [int(m) for m in fam.x_masks()]
        )
        H = build_hamiltonian(fam)
        w = np.linalg.eigvalsh(H.mat)
        ground = int((w < 0.5).sum())
        assert ground == 2 ** (7 - rank) == 2

    def test_toric_ground_degeneracy(self):
        fam = toric(2)
        rank = gf2_rank([int(m) for m in fam.z_masks()]) + gf2_rank(
            [int(m) for m in fam.x_masks()]
        )
        H = build_hamiltonian(fam)
        w = np.linalg.eigvalsh(H.mat)
        assert int((w < 0.5).sum()) == 2 ** (8 - rank) == 4

    def test_locality_bookkeeping(self):
        H = build_hamiltonian(ising_ring(4))
        assert H.w0 == 2
        assert H.w1 == 0
        assert H.is_diagonal


class TestClassicalEnergy:
    def test_codewords_have_zero_energy(self):
        fam = repetition(5)
        assert classical_energy(0, fam) == 0
        assert classical_energy(0b11111, fam) == 0

    def test_single_flip_on_ring(self):
        fam = ising_ring(5)
        assert classical_energy(0b10000, fam) == 2
        assert classical_energy([1, 0, 0, 0, 0], fam) == 2

    def test_energies_vector_matches_scalar(self, rng):
        fam = random_ldpc(6, 5, seed=11)
        E = label_energies(fam)
        for x in rng.integers(0, 64, size=20):
            assert E[x] == classical_energy(int(x), fam)

    def test_css_model_rejected(self):
        with pytest.raises(NotClassical):
            classical_energy(0, steane7())


class TestExpansionScan:
    def test_repetition_ring_6(self):
        gamma, witness = expansion_scan(repetition(6), 0.5)
        assert gamma == pytest.approx(2 / 3, abs=1e-15)
        # lexicographically first contiguous weight-3 block
        assert witness.tolist() == [0, 0, 0, 1, 1, 1]

    def test_isolated_checks_give_unit_slope(self):
        fam = CheckFamily(5, z_checks=tuple((i,) for i in range(5)))
        gamma, witness = expansion_scan(fam, 1.0)
        assert gamma == 1.0
        assert witness.sum() == 1

    def test_zero_energy_word_in_range(self):
        gamma, witness = expansion_scan(repetition(4), 1.0)
        assert gamma == 0.0
        assert witness.tolist() == [1, 1, 1, 1]

    def test_scan_definition_reverified(self, rng):
        fam = random_ldpc(8, 7, seed=3)
        delta = 0.5
        gamma, _ = expansion_scan(fam, delta)
        E = label_energies(fam)
        for _ in range(100):
            x = int(rng.integers(1, 256))
            wt = bin(x).count("1")
            if 0 < wt <= delta * 8:
                assert E[x] >= gamma * wt - 1e-12


class TestBarrierSubspace:
    def test_ising_ring_8_pinned(self):
        fam = ising_ring(8)
        H = build_hamiltonian(fam)
        cert = barrier_subspace(fam, (0, 0), 1, 2, H)
        assert cert.E_min_V == 0.0
        assert cert.E_min_boundary == 2.0
        assert cert.kappa == pytest.approx(0.25, abs=1e-12)
        assert cert.V.dim == 9

    def test_full_space_has_no_boundary(self):
        fam = ising_ring(4)
        H = build_hamiltonian(fam)
        with pytest.raises(EmptyBoundary):
            barrier_subspace(fam, (0, 0), 4, 1, H)

    def test_excited_center_triangle_bound(self):
        # syndromes add, so kappa*n >= gamma*(inner+1) - 2*E0(center)
        fam = ising_ring(6)
        H = build_hamiltonian(fam)
        x0 = 0b100000
        e0 = classical_energy(x0, fam)
        cert = barrier_subspace(fam, (x0, 0), 1, 1, H)
        gamma, _ = expansion_scan(fam, (1 + 1) / 6)
        assert cert.kappa * 6 >= gamma * 2 - 2 * e0 - 1e-12

    def test_classical_matches_hamming_ball(self):
        fam = ising_ring(5)
        H = build_hamiltonian(fam)
        cert = barrier_subspace(fam, (0, 0), 1, 1, H)
        ball = hamming_ball_subspace(5, [0], 1)
        overlap = np.abs(cert.V.basis.conj().T @ ball.basis)
        assert cert.V.dim == ball.dim
        assert np.allclose(overlap @ overlap.T, np.eye(ball.dim), atol=1e-12)

    def test_convexity_well_weight(self):
        # tr(e^{-beta H} P_V) >= e^{-beta E_min(V)} for every certificate
        for fam in (ising_ring(6), steane7()):
            H = build_hamiltonian(fam)
            cert = barrier_subspace(fam, (0, 0), 1, 1, H)
            beta = 1.7
            rho, logZ, _ = gibbs_state(H, beta)
            weight = float(
                np.real(np.trace(rho.mat @ cert.V.projector()))
            ) * np.exp(logZ)
            assert weight >= np.exp(-beta * cert.E_min_V) * (1 - 1e-9)


class TestCssMachinery:
    def test_label_counts_cover_space(self):
        for fam in (steane7(), toric(2)):
            x_reps, z_reps, _, _ = css_labels(fam)
            assert x_reps.size * z_reps.size == 2**fam.n

    def test_eigenstates_are_orthonormal_eigenvectors(self):
        fam = steane7()
        H = build_hamiltonian(fam)
        x_reps, z_reps, gx, _ = css_labels(fam)
        cols = []
        energies = []
        for xr in x_reps[:4]:
            for zr in z_reps[:4]:
                v = css_eigenstate(fam, int(xr), int(zr))
                cols.append(v)
                energies.append(
                    classical_energy(int(xr), CheckFamily(7, fam.z_checks))
                    + classical_energy(int(zr), CheckFamily(7, fam.x_checks))
                )
        B = np.column_stack(cols)
        assert np.abs(B.conj().T @ B - np.eye(len(cols))).max() < 1e-12
        for v, e in zip(cols, energies):
            assert np.abs(H.mat @ v - e * v).max() < 1e-10

    def test_toric_single_error_barrier(self):
        fam = toric(2)
        H = build_hamiltonian(fam)
        cert = barrier_subspace(fam, (0, 0), 0, 1, H)
        assert cert.E_min_V == pytest.approx(0.0, abs=1e-12)
        # any single-qubit error excites two checks
        assert cert.E_min_boundary == pytest.approx(2.0, abs=1e-10)
        assert cert.kappa == pytest.approx(0.25, abs=1e-10)

    def test_toric_logical_leak_at_distance_two(self):
        # code distance is 2 at L=2: a weight-2 logical reaches another
        # ground state, so the next shell has no energy barrier at all
        fam = toric(2)
        H = build_hamiltonian(fam)
        cert = barrier_subspace(fam, (0, 0), 1, 1, H)
        assert cert.E_min_boundary == pytest.approx(0.0, abs=1e-10)


class TestGibbsState:
    def test_infinite_temperature(self):
        H = build_hamiltonian(ising_ring(3))
        rho, logZ, F = gibbs_state(H, 0.0)
        assert np.allclose(rho.mat, np.eye(8) / 8)
        assert logZ == pytest.approx(3 * np.log(2), abs=1e-12)
        assert F == -np.inf

    def test_single_qubit_pinned(self):
        H = build_hamiltonian(CheckFamily(1, z_checks=((0,),)))
        rho, logZ, F = gibbs_state(H, np.log(2))
        assert np.allclose(np.diag(rho.mat), [2 / 3, 1 / 3], atol=1e-12)
        assert logZ == pytest.approx(np.log(1.5), abs=1e-12)
        assert F == pytest.approx(-np.log(1.5) / np.log(2), abs=1e-12)

    def test_commutes_with_check_projectors(self):
        fam = steane7()
        H = build_hamiltonian(fam)
        rho, _, _ = gibbs_state(H, 0.9)
        comm = rho.mat @ H.mat - H.mat @ rho.mat
        assert np.abs(comm).max() < 1e-10

    def test_negative_beta_rejected(self):
        H = build_hamiltonian(ising_ring(3))
        with pytest.raises(BetaNegative):
            gibbs_state(H, -0.1)

    def test_large_beta_stays_finite(self):
        H = build_hamiltonian(ising_ring(4))
        rho, logZ, _ = gibbs_state(H, 500.0)
        assert np.isfinite(logZ)
        assert np.isfinite(rho.mat).all()
        # only the two ground states survive
        assert np.real(np.trace(rho.mat @ rho.mat)) == pytest.approx(0.5, abs=1e-9)


class TestSubspaceMinEnergy:
    def test_full_space_gives_ground_energy(self):
        H = build_hamiltonian(ising_ring(3))
        full = hamming_ball_subspace(3, [0], 3)
        assert subspace_min_energy(full, H) == pytest.approx(0.0, abs=1e-12)

    def test_single_eigenvector(self):
        H = build_hamiltonian(CheckFamily(2, z_checks=((0,), (1,))))
        assert subspace_min_energy(basis_state_subspace(2, [3]), H) == 2.0

    def test_hamming_ball_contains_ground(self):
        H = build_hamiltonian(ising_ring(5))
        ball = hamming_ball_subspace(5, [0], 1)
        assert subspace_min_energy(ball, H) == 0.0

    def test_empty_subspace_rejected(self):
        H = build_hamiltonian(ising_ring(3))
        with pytest.raises(EmptySubspace):
            subspace_min_energy(basis_state_subspace(3, []), H)

    def test_other_bases_rejected(self):
        # a ball over the Steane basis is spanned by eigenvectors of the
        # Steane H0 alone: a perturbed H has no labels to read it by
        checks = steane7()
        H0 = build_hamiltonian(checks)
        V = barrier_subspace(checks, (0, 0), 0, 1, H0).V
        H = perturb(H0, random_local_perturbation(7, 0.01, seed=1))
        assert subspace_min_energy(V, H0) == 0.0
        with pytest.raises(BadPartition, match="identity basis"):
            subspace_min_energy(V, H)


class TestRandomPerturbation:
    def test_zero_strength(self):
        V = random_local_perturbation(3, 0.0, seed=5)
        assert np.abs(V.mat).max() == 0.0
        assert V.phases is None

    def test_norm_rescaled_exactly(self):
        V = random_local_perturbation(3, 0.2, seed=5)
        top = np.abs(np.linalg.eigvalsh(V.mat)).max()
        assert top == pytest.approx(0.2 * 3, rel=1e-12)
        assert V.term_supports == ((0,), (1,), (2,))
        assert (V.w0, V.w1) == (1, 1)

    def test_deterministic_per_seed(self):
        a = random_local_perturbation(4, 0.1, seed=9)
        b = random_local_perturbation(4, 0.1, seed=9)
        assert np.array_equal(a.form, b.form) and np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.mat, b.mat)

    def test_single_site_factorizes(self):
        V = random_local_perturbation(2, 0.3, seed=2)
        # a sum of one term per site: no entry flips both qubits, and the
        # qubit-0 term adds the same multiple of the identity to each
        # diagonal block, so the blocks differ on their diagonal only
        for M in (V.form, V.mat):
            assert M[0, 3] == M[1, 2] == 0.0
            diff = M[:2, :2] - M[2:, 2:]
            assert np.abs(diff - diff[0, 0] * np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize(
        "n,support",
        [(1, (0,)), (4, (2,)), (3, (0, 2)), (4, (3, 1)), (6, (0, 1, 2)), (8, (7, 0, 3)), (10, (5,)), (3, ())],
    )
    def test_embedding_matches_the_gather_builder_bit_for_bit(self, n, support):
        # the oracle scatter against its gather, and on one site the
        # dense form of a site form against the gather
        rng = np.random.default_rng(n + 31 * len(support))
        m = 1 << len(support)
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for T in (0.5 * (G + G.conj().T), G.real.copy()):
            got = _embed_on_support(n, support, T, np.zeros((1 << n, 1 << n), T.dtype))
            want = gather_embed_on_support(n, support, T)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if len(support) == 1:
            # a real symmetric term as a site form, densified on first read
            S = 0.5 * (G.real + G.real.T)
            bit = (np.arange(1 << n) >> (n - 1 - support[0])) & 1
            flips = np.zeros(n)
            flips[support[0]] = S[0, 1]
            H = Hamiltonian(S[bit, bit], n=n, w0=1, w1=1, flips=flips)
            assert H.form.tobytes() == gather_embed_on_support(n, support, S).tobytes()

    @pytest.mark.parametrize(
        "e,t", [([0.0, np.nan], [1.0]), ([0.0, 1.0], [1j]), ([0.0, 1.0, 2.0], [1.0])]
    )
    def test_site_form_weights_must_be_real_and_finite(self, e, t):
        with pytest.raises(NonCommutingChecks, match="real and finite"):
            Hamiltonian(np.array(e), n=1, w0=1, w1=1, flips=np.array(t))

    def test_dense_form_with_a_nan_entry_is_refused(self):
        # a NaN makes max |H - H^dag| NaN, which fails the hermiticity check
        with pytest.raises(NonCommutingChecks, match="not Hermitian"):
            Hamiltonian(np.diag([np.nan, 0.0, 0.0, 1.0]), n=2, w0=1, w1=1)

    def test_site_form_reads_match_its_dense_form(self):
        # blocks, the diagonal and the off-diagonal scan come from e and t,
        # and agree with the densified form bit for bit
        H = perturb(build_hamiltonian(ising_ring(6)), random_local_perturbation(6, 0.05, 4))
        assert H._form is None and H.flips.shape == (6,)
        rows = np.array([0, 1, 2, 3, 8, 40, 63, 33])
        got, diag, off = H.block(rows), H.diagonal(), H.offdiagonal
        assert H._form is None
        assert got.tobytes() == H.form[np.ix_(rows, rows)].tobytes()
        assert diag.tobytes() == np.diagonal(H.form).tobytes()
        assert off == max_offdiagonal(H.form)
        assert not H.form.flags.writeable

    def test_perturb_merges_bookkeeping(self):
        H0 = build_hamiltonian(ising_ring(4))
        V = dense_perturbation(4, [(0, 1), (1, 2)], 0.05, 1)
        H = perturb(H0, V)
        assert H.w1 == 2
        assert H.w0 == 4  # qubit 1: two bonds + two perturbation terms
        assert np.allclose(H.mat, H0.mat + V.mat)


class TestLabelBasis:
    @pytest.mark.parametrize("make", [steane7, toric])
    def test_columns_are_the_css_eigenstates(self, make):
        fam = make()
        W = label_basis(fam)
        dense = W.dense()
        for j in range(W.dim):
            v = css_eigenstate(fam, int(W.x[j]), int(W.z[j]))
            assert np.abs(dense[:, j] - v).max() <= 1e-15
        assert np.abs(dense.conj().T @ dense - np.eye(W.dim)).max() < 1e-14
        assert (np.count_nonzero(dense, axis=0) == 8).all()
        x_reps, z_reps, _, _ = css_labels(fam)
        pairs = set(zip(W.x.tolist(), W.z.tolist()))
        assert pairs == {(int(x), int(z)) for x in x_reps for z in z_reps}

    @pytest.mark.parametrize("make", [steane7, toric])
    def test_syndrome_energies_diagonalize_h0(self, make):
        fam = make()
        H = build_hamiltonian(fam)
        W = label_basis(fam)
        E = label_energies(fam)
        assert label_energy_residual(dense_check_hamiltonian(fam), W, E) < 1e-14
        dense = W.dense()
        assert np.abs(dense.conj().T @ H.mat @ dense - np.diag(E)).max() < 1e-13

    def test_classical_families_share_the_identity_basis(self):
        W = label_basis(ising_ring(5))
        assert W.identity
        assert W is label_basis(curie_weiss(5)) is identity_basis(5)
        assert np.array_equal(W.dense(), np.eye(32))
        fam = curie_weiss(5)
        assert label_energies(fam).tolist() == [classical_energy(x, fam) for x in range(32)]
        assert label_basis(steane7()) is label_basis(steane7())

    @pytest.mark.parametrize("flavor", ["X", "Z"])
    def test_single_paulis_permute_labels(self, flavor):
        fam = toric(2)
        W = label_basis(fam)
        dense = W.dense()
        for site in range(fam.n):
            P = pauli_matrix(PauliString.from_letters(fam.n, {site: flavor}))
            bit = 1 << (fam.n - 1 - site)
            col, phase = W.pauli_image(bit, 0) if flavor == "X" else W.pauli_image(0, bit)
            expected = np.zeros((W.dim, W.dim), dtype=np.complex128)
            expected[col, np.arange(W.dim)] = phase
            assert np.abs(dense.conj().T @ P @ dense - expected).max() < 1e-14

    def test_basis_arrays_are_read_only(self):
        W = label_basis(steane7())
        with pytest.raises(ValueError):
            W.blocks[0, 0, 0] = 0.0

    def test_label_energies_are_kept_read_only_per_family(self):
        E = label_energies(toric(2))
        assert label_energies(toric(2)) is E
        with pytest.raises(ValueError):
            E[0] = 1.0

    def test_pauli_images_are_kept_read_only_per_mask_pair(self):
        W = label_basis(steane7())
        col, phase = W.pauli_image(1, 2)
        again = W.pauli_image(np.uint64(1), 2)
        assert again[0] is col and again[1] is phase
        for a in (col, phase):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_a_failed_pauli_image_raises_every_time(self):
        # one qubit, basis rotated off the Z axis: X does not permute it
        c, s = np.cos(0.3), np.sin(0.3)
        W = LabelBasis(
            1,
            order=np.arange(2),
            blocks=np.array([[[c, -s], [s, c]]], dtype=np.complex128),
            x=np.zeros(2, dtype=np.uint64),
            z=np.arange(2, dtype=np.uint64),
            x_class=np.zeros(2, dtype=np.int64),
            z_class=np.arange(2, dtype=np.int64),
        )
        for _ in range(2):
            with pytest.raises(NotCommuting):
                W.pauli_image(1, 0)
