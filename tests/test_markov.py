"""Classical chains: stationary laws, the structural condition, bounds."""

import tracemalloc
import warnings

import numpy as np
import pytest

from bottlenecklab.errors import (
    BadPartition,
    ConditionViolated,
    EmptyA,
    NonUniqueStationary,
    NotStochastic,
)
from bottlenecklab import markov
from bottlenecklab.markov import (
    _STEP_CHUNK,
    GlauberFlow,
    GlauberTable,
    StochasticMatrix,
    check_classical_condition,
    classical_bottleneck_report,
    conditioned_drift,
    forbidden_entry,
)
from bottlenecklab.model import REGISTRY, build_hamiltonian, gibbs_weights, label_energies
from bottlenecklab.sampler import css_metropolis_channel, metropolis_site_channel
from bottlenecklab.subspace import hamming_ball_subspace, partition_from_radius
from oracles import (
    birth_death_chain,
    block_labels,
    column_chain,
    dense_glauber,
    dense_report,
    explicit_rows,
    hamming_shell_labels,
    per_beta_glauber,
    stationary_distribution,
)


def birth_death_metropolis(pi):
    """Tridiagonal Metropolis chain on a path with the given stationary law."""
    pi = np.asarray(pi, dtype=np.float64)
    return column_chain(birth_death_chain(pi.size, pi))


class TestStochasticMatrix:
    def test_accepts_doubly_stochastic(self):
        sm = column_chain(np.full((3, 3), 1 / 3))
        assert sm.dim == 3

    def test_rejects_bad_column_sum(self):
        M = np.eye(2)
        M[0, 0] = 0.9
        with pytest.raises(NotStochastic):
            column_chain(M)

    def test_rejects_negative_entry(self):
        M = np.array([[1.1, 0.0], [-0.1, 1.0]])
        with pytest.raises(NotStochastic):
            column_chain(M)

    def test_rejects_rectangular(self):
        # a chain on 2 states cannot move weight to a third
        with pytest.raises(NotStochastic, match="rows outside"):
            StochasticMatrix.from_columns(np.array([[0, 1], [2, 2]]), np.full((2, 2), 0.5))

    def test_column_form_of_a_dense_chain(self, rng):
        # columns of 1 to 5 entries, held op-major: entry k of column j
        # moves to rows[k, j] = j ^ moves[k, j], rows ascending down a
        # column, the short columns padded with zero weights on their last
        # row; mat adds the padding into that row's entry, so only the
        # nonzeros stay stored
        dim = 7
        M = np.zeros((dim, dim))
        for j in range(dim):
            rows = np.sort(rng.choice(dim, size=1 + j % 5, replace=False))
            M[rows, j] = rng.dirichlet(np.ones(rows.size))
        sm = column_chain(M)
        assert sm.moves.shape == (5, dim)
        assert (np.diff(explicit_rows(sm.moves, dim), axis=0) >= 0).all()
        assert np.array_equal(np.count_nonzero(sm.weights, axis=0), np.count_nonzero(M, axis=0))
        assert np.array_equal(sm.mat.toarray(), M)
        assert sm.mat.nnz == np.count_nonzero(M)
        p = rng.dirichlet(np.ones(dim))
        assert np.abs(sm.step(p) - M @ p).max() <= 1e-15
        support = np.array([1, 4])
        sparse_p = np.where(np.isin(np.arange(dim), support), p, 0.0)
        assert np.array_equal(sm.step(sparse_p, support), sm.step(sparse_p))
        assert not sm.moves.flags.writeable and not sm.weights.flags.writeable

    @pytest.mark.parametrize("case", ["glauber", "site", "masks", "birth-death", "steane7"])
    def test_mask_chain_matches_its_explicit_rows(self, rng, case):
        # a chain as its builder holds it ((k, 1) masks for the Glauber,
        # site and CSS chains and random many-bit masks, (k, dim) moves for
        # the birth-death chain) and the same chain given to from_columns as
        # explicit rows: the same matrix, step bits (whole and through cols;
        # the Glauber, site and random-mask chains gather through XOR views
        # past _STEP_CHUNK, whole and through all but three columns, and
        # take the flat bincount below it through the other cols),
        # forbidden entry and single-flip certificate
        if case == "glauber":
            sm = GlauberTable(label_energies(REGISTRY["ising_ring"](11))).chain(1.0, 0.3)
        elif case == "site":
            H = build_hamiltonian(REGISTRY["ising_ring"](13))
            sm = metropolis_site_channel(H, 1.0, 3).monomial.chain
        elif case == "masks":
            masks, weights = rng.integers(0, 1 << 12, (5, 1)), rng.dirichlet(np.ones(5), 1 << 12).T
            sm = StochasticMatrix._trusted(masks, weights)
        elif case == "birth-death":
            sm = birth_death_metropolis(rng.dirichlet(np.ones(9)))
        else:
            H = build_hamiltonian(REGISTRY["steane7"]())
            sm = css_metropolis_channel(H, 1.0, 2, "X").monomial.chain
        dim = sm.dim
        rows = StochasticMatrix.from_columns(explicit_rows(sm.moves, dim), sm.weights)
        assert rows.moves.shape == sm.weights.shape
        k = sm.weights.shape[0]
        assert sm.moves.shape == (sm.weights.shape if case == "birth-death" else (k, 1))
        past = case in ("glauber", "site", "masks")
        assert dim - 3 > _STEP_CHUNK or not past
        assert (sm.mat != rows.mat).nnz == 0 and sm.mat.nnz == rows.mat.nnz
        p = rng.dirichlet(np.ones(dim))
        some, most = np.flatnonzero(rng.random(dim) < 0.3), np.flatnonzero(rng.permutation(dim) >= 3)
        for cols in (None, some, rng.permutation(dim)[: dim // 2], most):
            q = p if cols is None else np.where(np.isin(np.arange(dim), cols), p, 0.0)
            assert sm.step(q, cols).tobytes() == rows.step(q, cols).tobytes()
        for label in (rng.integers(0, 4, dim), np.minimum(np.arange(dim) * 4 // dim, 3)):
            assert forbidden_entry(sm, label) == forbidden_entry(rows, label)
        assert sm.single_flip_certified() == rows.single_flip_certified() == (case == "glauber")

    def test_repeated_rows_add(self):
        # a Kraus form may send two operators' entries of one column to the
        # same row: the chain adds their weights, and so does mat
        rows = np.array([[1, 0, 2], [1, 1, 2]])
        weights = np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]])
        sm = StochasticMatrix.from_columns(rows, weights)
        want = np.array([[0.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(sm.mat.toarray(), want)
        p = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(sm.step(p), want @ p)

    def test_rejects_an_empty_column(self):
        rows = np.array([[0, 1, 2]])
        with pytest.raises(NotStochastic, match="column sums deviate from 1 by 1.000e"):
            StochasticMatrix.from_columns(rows, np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_rows_outside_the_chain(self):
        with pytest.raises(NotStochastic, match="rows outside"):
            StochasticMatrix.from_columns(np.array([[0], [2]]), np.ones((2, 1)))
        with pytest.raises(NotStochastic, match="shapes"):
            StochasticMatrix.from_columns(np.zeros((2, 1), dtype=int), np.ones((2, 2)))


class TestBlockLabels:
    @pytest.mark.parametrize(
        "label,word",
        [
            ([0, 1, 3], "the chain has 4 states"),
            ([[0, 1], [2, 3]], "the chain has 4 states"),
            ([0, 4, 2, 3], "0..3"),
            ([0, -1, 2, 3], "0..3"),
            (block_labels((), (0, 1), (2,), (3,)), "non-empty"),
            (block_labels((0,), (1, 2), (3,), ()), "non-empty"),
        ],
        ids=["short", "2-d", "label 4", "no block", "empty A", "empty C"],
    )
    def test_refused(self, label, word):
        # every entry point that reads the labels refuses them the same way
        sm = column_chain(np.eye(4))
        for call in (
            lambda: check_classical_condition(sm, label),
            lambda: classical_bottleneck_report(sm, label, np.full(4, 0.25)),
            lambda: GlauberTable(np.zeros(4), label),
        ):
            with pytest.raises(BadPartition, match=word):
                call()

    def test_block_labels(self):
        label = block_labels((3,), (0, 2), (), (1,))
        assert label.tolist() == [1, 3, 1, 0]
        assert check_classical_condition(column_chain(np.eye(4)), label).passes


class TestStationaryDistribution:
    """The eigensolve oracle for the closed-form laws."""

    def test_symmetric_two_state(self):
        M = np.array([[0.7, 0.3], [0.3, 0.7]])
        pi = stationary_distribution(column_chain(M))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_metropolis_matches_gibbs(self, rng):
        E = rng.uniform(0.0, 2.0, size=16)
        beta = 1.3
        sm = GlauberTable(E).chain(beta)
        pi = stationary_distribution(sm)
        gibbs = np.exp(-beta * E)
        gibbs /= gibbs.sum()
        assert np.abs(pi - gibbs).sum() < 1e-10

    def test_arpack_start_is_fixed(self, rng):
        sm = GlauberTable(rng.uniform(0.0, 2.0, size=2048)).chain(1.0)
        first = stationary_distribution(sm)
        assert np.array_equal(first, stationary_distribution(sm))

    def test_reducible_chain_rejected(self):
        M = np.eye(4)
        M[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        M[2:, 2:] = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(column_chain(M))


class TestClassicalCondition:
    def test_birth_death_passes(self):
        sm = birth_death_metropolis([0.45, 0.05, 0.05, 0.45])
        part = block_labels((0,), (1,), (2,), (3,))
        rep = check_classical_condition(sm, part)
        assert rep.passes
        assert rep.max_forbidden_entry == 0.0

    def test_swapped_shells_fail(self):
        sm = birth_death_metropolis([0.45, 0.05, 0.05, 0.45])
        part = block_labels((0,), (2,), (1,), (3,))
        rep = check_classical_condition(sm, part)
        assert not rep.passes
        assert rep.max_forbidden_entry > 0
        assert rep.offending is not None

    @pytest.mark.parametrize("to,frm", [(15, 0), (3, 0), (0, 15), (1, 15)])
    def test_tiny_forbidden_entry_in_glauber_chain_caught(self, rng, to, frm):
        # A = {0}, B1 and B2 the weight-1 and weight-2 states, C the rest;
        # move 1e-13 of the stay mass of `frm` across one forbidden pair
        M = GlauberTable(rng.uniform(0.0, 1.0, size=16)).chain(1.0).mat.toarray()
        part = hamming_shell_labels(4, 0, 0, 1)
        assert check_classical_condition(column_chain(M), part).passes
        M[to, frm] = 1e-13
        M[frm, frm] -= 1e-13
        rep = check_classical_condition(column_chain(M), part)
        assert not rep.passes
        assert rep.max_forbidden_entry == 1e-13
        assert rep.offending == (to, frm)
        with pytest.raises(ConditionViolated):
            classical_bottleneck_report(column_chain(M), part, np.full(16, 1 / 16))

    def test_stored_zero_counts_as_zero(self):
        # column 0 stores an exact zero at row 3, the forbidden move A -> C
        rows = np.array([[0, 1, 2, 3], [3, 1, 2, 3]])
        weights = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        part = block_labels((0,), (1,), (2,), (3,))
        rep = check_classical_condition(StochasticMatrix.from_columns(rows, weights), part)
        assert rep.passes
        assert rep.max_forbidden_entry == 0.0

    def test_exact_zero_required(self):
        M = np.eye(4)
        M[0, 0] = 1 - 1e-13
        M[3, 0] = 1e-13
        M[3, 3] = 1 - 1e-13
        M[0, 3] = 1e-13
        part = block_labels((0,), (1,), (2,), (3,))
        rep = check_classical_condition(column_chain(M), part)
        assert not rep.passes


class TestBottleneckReport:
    def test_pinned_example(self):
        # bound = 2 * 0.1 / 0.45
        pi = np.array([0.45, 0.05, 0.05, 0.45])
        sm = birth_death_metropolis(pi)
        part = block_labels((0,), (1,), (2,), (3,))
        rep = classical_bottleneck_report(sm, part, pi)
        assert rep.bound == pytest.approx(0.4444444444444444, abs=1e-12)
        assert rep.lhs <= rep.bound + 1e-12
        assert rep.lhs == pytest.approx(2 * 0.5 * (0.05 / 0.45), abs=1e-12)

    def test_supplied_pi_is_validated(self):
        sm = birth_death_metropolis([0.45, 0.05, 0.05, 0.45])
        part = block_labels((0,), (1,), (2,), (3,))
        good = np.array([0.45, 0.05, 0.05, 0.45])
        rep = classical_bottleneck_report(sm, part, pi=good)
        assert rep.pi_A == pytest.approx(0.45)
        with pytest.raises(NonUniqueStationary, match="not stationary"):
            classical_bottleneck_report(sm, part, pi=np.full(4, 0.25))

    @pytest.mark.parametrize("case", ["triple", "sum off by 1e-11", "negative entry"])
    def test_supplied_pi_must_be_a_probability_vector(self, case):
        # the first two are stationary but sum to 3 and to 1 + 1e-11; the
        # last sums to 1 but has a negative entry
        E = label_energies(REGISTRY["ising_ring"](6))
        gibbs, _ = gibbs_weights(E, 1.0)
        pi = {
            "triple": 3 * gibbs,
            "sum off by 1e-11": (1 + 1e-11) * gibbs,
            "negative entry": np.concatenate([[gibbs[0] + 2 * gibbs[1], -gibbs[1]], gibbs[2:]]),
        }[case]
        part = hamming_shell_labels(6, 0, 1, 1)
        with pytest.raises(NonUniqueStationary, match="probability vector"):
            classical_bottleneck_report(GlauberTable(E).chain(1.0), part, pi)

    def test_reducible_chain_rejected(self):
        # two closed classes {0, 1} and {2, 3}: uniform is stationary, and
        # so is any mixture of the two class laws
        M = np.eye(4)
        M[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        M[2:, 2:] = [[0.5, 0.5], [0.5, 0.5]]
        part = block_labels((0,), (1,), (2,), (3,))
        with pytest.raises(NonUniqueStationary, match="2 communicating classes"):
            classical_bottleneck_report(column_chain(M), part, np.full(4, 0.25))

    def test_stored_zero_moves_are_not_edges(self):
        # the uphill moves underflow to stored zeros, so the two valleys 0
        # and 3 never reach each other and 1, 2 are never re-entered;
        # counting the stored zeros as edges would see one class
        from scipy.sparse.csgraph import connected_components

        E = np.array([0.0, 1000.0, 1000.0, 0.0])
        sm = GlauberTable(E).chain(5.0)
        assert connected_components(sm.mat, connection="strong")[0] == 1
        pi, _ = gibbs_weights(E, 5.0)
        part = block_labels((0,), (1,), (2,), (3,))
        with pytest.raises(NonUniqueStationary, match="4 communicating classes"):
            classical_bottleneck_report(sm, part, pi)

    def test_condition_violation_raises(self):
        pi = np.array([0.45, 0.05, 0.05, 0.45])
        part = block_labels((0,), (2,), (1,), (3,))
        with pytest.raises(ConditionViolated):
            classical_bottleneck_report(birth_death_metropolis(pi), part, pi)

    def test_vanishing_a_mass_raises(self):
        # Stationary law concentrated away from A within float precision.
        E = np.array([80.0, 40.0, 40.0, 0.0])
        sm = birth_death_metropolis(np.exp(-E) / np.exp(-E).sum())
        part = block_labels((0,), (1,), (2,), (3,))
        pi = np.exp(-E)
        pi /= pi.sum()
        with pytest.raises(EmptyA):
            classical_bottleneck_report(sm, part, pi=pi)

    def test_glauber_with_hamming_shells(self, rng):
        m = 4
        E = rng.uniform(0.0, 1.5, size=2**m)
        E[0] = -1.0
        beta = 2.0
        sm = GlauberTable(E).chain(beta)
        part = hamming_shell_labels(m, 0, 0, 1)
        gibbs = np.exp(-beta * E)
        gibbs /= gibbs.sum()
        rep = classical_bottleneck_report(sm, part, pi=gibbs)
        assert rep.condition_max == 0.0
        assert rep.lhs <= rep.bound + 1e-12

    def test_telescoping_drift(self):
        # t steps move the conditioned state at most t * lhs in L1,
        # so its distance to pi shrinks no faster than linearly.
        pi = np.array([0.45, 0.05, 0.05, 0.45])
        sm = birth_death_metropolis(pi)
        part = block_labels((0,), (1,), (2,), (3,))
        rep = classical_bottleneck_report(sm, part, pi)
        piA = np.array([1.0, 0.0, 0.0, 0.0])
        start = 0.5 * np.abs(piA - pi).sum()
        state = piA
        for t in range(1, 30):
            state = sm.mat @ state
            assert 0.5 * np.abs(state - pi).sum() >= start - t * rep.lhs - 1e-12


class TestGlauberChain:
    def test_detailed_balance_residual(self, rng):
        E = rng.uniform(0.0, 3.0, size=32)
        beta = 0.8
        sm = GlauberTable(E).chain(beta, laziness=0.2)
        pi = np.exp(-beta * E)
        pi /= pi.sum()
        F = sm.mat * pi[None, :]
        assert np.abs(F - F.T).max() < 1e-14

    def test_laziness_bounds(self):
        with pytest.raises(ValueError):
            GlauberTable(np.zeros(4)).chain(1.0, laziness=1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(BadPartition):
            GlauberTable(np.zeros(6))

    def test_infinite_temperature_is_uniform_walk(self):
        sm = GlauberTable(np.array([0.0, 5.0, 1.0, 2.0])).chain(0.0)
        pi = stationary_distribution(sm)
        assert np.allclose(pi, 0.25, atol=1e-12)


    @pytest.mark.parametrize("m", range(2, 13))
    def test_every_flip_accepted_at_infinite_temperature(self, m):
        sm = GlauberTable(np.zeros(2**m)).chain(0.0)
        assert sm.mat.data.min() >= 0.0
        assert np.abs(sm.mat.sum(axis=0) - 1.0).max() <= 1e-12
        pi = stationary_distribution(sm)
        assert np.abs(pi - 2.0**-m).max() <= 1e-12

    @pytest.mark.parametrize("m", [4, 6])
    def test_low_temperature_does_not_overflow(self, m):
        # downhill moves have dE < 0; e^{-beta dE} alone overflows at beta 400
        E = label_energies(REGISTRY["ising_ring"](m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = GlauberTable(E).chain(400.0)
        with np.errstate(over="ignore"):
            ref = dense_glauber(E, 400.0)
        assert np.array_equal(sm.mat.toarray(), ref)

    def test_stored_entries_per_column(self):
        for m in (1, 5, 16):
            sm = GlauberTable(np.arange(2**m) % 3).chain(1.0)
            assert sm.mat.format == "csc"
            assert sm.mat.nnz <= (m + 1) * 2**m

    def test_size_cap(self):
        with pytest.raises(BadPartition):
            GlauberTable(np.zeros(2**22))
        with pytest.raises(BadPartition):
            GlauberTable(np.zeros(1))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_entries_match_dense_oracle(self, rng, m):
        E = rng.uniform(-1.0, 2.0, size=2**m)
        for beta in (0.0, 0.7, 3.0):
            for laziness in (0.0, 0.25):
                sm = GlauberTable(E).chain(beta, laziness)
                gap = np.abs(sm.mat.toarray() - dense_glauber(E, beta, laziness))
                assert gap.max() <= 1e-15

    @pytest.mark.parametrize(
        "m,rtol", [(4, 1e-12), (7, 1e-12), (10, 1e-12), (11, 1e-9), (12, 1e-9)]
    )
    def test_report_matches_dense_oracle(self, m, rtol):
        # the Gibbs law against the solved one (ARPACK above 1024 states),
        # then the sparse report against the dense arithmetic on that law
        E = label_energies(REGISTRY["ising_ring"](m))
        part = hamming_shell_labels(m, 0, 1, 1)
        betas = (0.5, 3.0) if m <= 10 else (3.0,)
        for beta in betas:
            pi, _ = gibbs_weights(E, beta)
            M = dense_glauber(E, beta)
            assert np.abs(pi - stationary_distribution(M)).sum() <= 1e-10
            rep = classical_bottleneck_report(GlauberTable(E).chain(beta), part, pi)
            ref = dense_report(M, part, pi)
            for key, want in ref.items():
                assert getattr(rep, key) == pytest.approx(want, rel=rtol, abs=0.0)


class TestGlauberTable:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_chains_match_the_per_beta_build_bit_for_bit(self, rng, m):
        # the chains of one table, and of a table built anew per chain,
        # carry the bits of the per-beta build, masks and weights, at every
        # beta and laziness; every chain of the table shares its masks
        E = rng.uniform(-1.0, 2.0, size=2**m).round(3)
        for energies in (E, list(E)):
            table = GlauberTable(energies)
            for beta in (0.0, 0.5, 3.0, 30.0, 800.0):
                for laziness in (0.0, 0.3):
                    masks, weights = per_beta_glauber(E, beta, laziness)
                    sm = table.chain(beta, laziness)
                    assert sm.moves is table.moves and sm.moves.shape == (m + 1, 1)
                    assert np.array_equal(sm.moves, masks)
                    assert np.array_equal(sm.weights, weights)
                    assert np.array_equal(GlauberTable(energies).chain(beta, laziness).weights, weights)

    def test_forbidden_positions_belong_to_their_partition(self):
        # one energy vector, two partitions of its 16 states: one puts a
        # neighbour of A in C, the other is the Hamming split; each table
        # checks the chain against its own blocks, whatever was built before
        E = label_energies(REGISTRY["ising_ring"](4))
        pi, _ = gibbs_weights(E, 1.0)
        clean = hamming_shell_labels(4, 0, 0, 1)
        broken = clean.copy()
        broken[1] = 3  # 0 -> 1 is a single flip from A straight into C
        masks, weights = per_beta_glauber(E, 1.0)
        sm = StochasticMatrix.from_columns(explicit_rows(masks, 16), weights)
        assert check_classical_condition(sm, broken).offending == (0, 1)
        for order in ((clean, broken), (broken, clean)):
            for part in order:
                table = GlauberTable(E, part)
                if part is broken:
                    with pytest.raises(ConditionViolated, match=r"2.500e-01 at \(0, 1\)"):
                        table.report(1.0, 0.0, pi)
                else:
                    assert table.report(1.0, 0.0, pi) == classical_bottleneck_report(sm, clean, pi)

    def test_kept_labels_are_a_read_only_copy(self):
        # a caller that changes its array afterwards leaves the table's
        # labels, and so its forbidden positions, as they were
        E = label_energies(REGISTRY["ising_ring"](4))
        pi, _ = gibbs_weights(E, 1.0)
        label = hamming_shell_labels(4, 0, 0, 1)
        table = GlauberTable(E, label)
        before = table.report(1.0, 0.0, pi)
        label[1] = 3
        assert table.label[1] == 1
        with pytest.raises(ValueError):
            table.label[1] = 3
        assert table.report(1.0, 0.0, pi) == before

    def test_a_chain_holds_masks_not_a_row_table(self):
        # ising_ring n=16: the table keeps (17, 1) masks and the (16, 2^16)
        # uphill jumps, and a chain adds its (17, 2^16) weights, so the
        # traced peak of a table and one chain stays below those plus half
        # of the int64 (17, 2^16) row table that explicit rows would hold
        # (a table of another size comes first, so none is held from before)
        n = 16
        E = label_energies(REGISTRY["ising_ring"](n))
        label = hamming_shell_labels(n, 0, 1, 1)
        GlauberTable(np.zeros(4)).chain(1.0)
        tracemalloc.start()
        try:
            table = GlauberTable(E, label)
            sm = table.chain(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_table = (n + 1) * (1 << n) * 8
        assert peak < table.uphill.nbytes + sm.weights.nbytes + row_table // 2
        assert sm.moves.shape == (n + 1, 1)

    def test_partition_must_cover_the_table(self):
        with pytest.raises(BadPartition, match="the chain has 8 states"):
            GlauberTable(np.zeros(8), hamming_shell_labels(4, 0, 0, 1))
        with pytest.raises(BadPartition, match="without block labels"):
            GlauberTable(np.zeros(8)).report(1.0, 0.0, np.full(8, 1 / 8))


class TestGlauberFlow:
    # the route of verify-classical: the bound from A's out-edges alone

    def test_a_flow_holds_no_chain_over_the_register(self, monkeypatch):
        # ising_ring n=16, inner 1: a flow and one report trace less than
        # five float vectors of the register (pi(C) is summed from a copy),
        # against the 33 of a table's uphill jumps and its chain's weights,
        # and no table is built
        n = 16
        E = label_energies(REGISTRY["ising_ring"](n))
        label = hamming_shell_labels(n, 0, 1, 1)
        pi, _ = gibbs_weights(E, 1.0)
        want = GlauberTable(E, label).report(1.0, 0.0, pi)
        monkeypatch.setattr(markov, "GlauberTable", None)
        tracemalloc.start()
        try:
            rep = GlauberFlow(E, label, 2).report(1.0, 0.0, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * E.nbytes
        assert rep == want

    def test_forbidden_flips_raise_as_the_table_does(self):
        # state 1 put in C next to A = {0}: the largest forbidden entry is
        # C's downhill flip into A, named (row, column) as the table names it
        E = label_energies(REGISTRY["ising_ring"](4))
        pi, _ = gibbs_weights(E, 1.0)
        broken = hamming_shell_labels(4, 0, 0, 1)
        broken[1] = 3
        for route in (GlauberTable(E, broken), GlauberFlow(E, broken, 2)):
            with pytest.raises(ConditionViolated, match=r"2.500e-01 at \(0, 1\)"):
                route.report(1.0, 0.0, pi)

    def test_a_law_of_another_beta_fails_detailed_balance(self):
        E = label_energies(REGISTRY["ising_ring"](8))
        label = hamming_shell_labels(8, 0, 1, 1)
        other, _ = gibbs_weights(E, 2.0)
        flow = GlauberFlow(E, label, 2)
        with pytest.raises(NonUniqueStationary, match="detailed balance fails on the flip"):
            flow.report(1.0, 0.0, other)
        with pytest.raises(NonUniqueStationary, match="probability vector"):
            flow.report(1.0, 0.0, 3 * gibbs_weights(E, 1.0)[0])

    def test_an_acceptance_that_may_underflow_runs_the_table(self):
        # at beta 400 the largest jump's acceptance underflows: the point
        # runs today's chain, whose class search finds it fallen apart; a
        # jump bound too loose for beta 30 runs the table too, with its bits
        E = label_energies(REGISTRY["ising_ring"](10))
        label = hamming_shell_labels(10, 0, 1, 1)
        pi, _ = gibbs_weights(E, 400.0)
        with pytest.raises(NonUniqueStationary, match="communicating classes"):
            GlauberFlow(E, label, 2).report(400.0, 0.0, pi)
        pi, _ = gibbs_weights(E, 30.0)
        loose = GlauberFlow(E, label, 40).report(30.0, 0.0, pi)
        assert loose == GlauberFlow(E, label, 2).report(30.0, 0.0, pi)
        assert loose == GlauberTable(E, label).report(30.0, 0.0, pi)

    def test_energies_and_labels_are_checked(self):
        with pytest.raises(BadPartition):
            GlauberFlow(np.zeros(6), np.zeros(6), 1)
        with pytest.raises(BadPartition, match="the chain has 8 states"):
            GlauberFlow(np.zeros(8), hamming_shell_labels(4, 0, 0, 1), 1)
        with pytest.raises(ValueError, match="laziness"):
            GlauberFlow(np.zeros(16), hamming_shell_labels(4, 0, 0, 1), 0).report(1.0, 1.0, np.full(16, 1 / 16))


# the least m whose Glauber chain's entry rows of 2^m are longer than
# 2 * _STEP_CHUNK
GATHERED_BITS = next(m for m in range(1, 64) if 1 << m > 2 * _STEP_CHUNK)


class TestResidual:
    @pytest.mark.parametrize("m", [GATHERED_BITS, GATHERED_BITS + 2, GATHERED_BITS + 4])
    def test_chunked_sum_matches_the_full_step(self, rng, m):
        # past _STEP_CHUNK the step gathers entry row by entry row in the
        # flat order, so the residual is the step's to the last bit (well
        # within the k * dim units of rounding that another order allows)
        E = label_energies(REGISTRY["ising_ring"](m))
        sm = GlauberTable(E).chain(1.0, 0.3)
        k, dim = sm.weights.shape
        assert dim > 2 * _STEP_CHUNK
        pi, _ = gibbs_weights(E, 1.0)
        for p in (rng.dirichlet(np.ones(dim)), pi):
            assert sm.residual(p) == float(np.abs(sm.step(p) - p).sum())
        assert sm.residual(pi) <= 1e-12

    def test_chunked_step_matches_the_flat_bincount(self, rng):
        # a form past _STEP_CHUNK, read whole or through cols, is summed
        # in the order of one flat bincount over the gathered form (the
        # Glauber masks by one XOR-view gather per entry row), so the bits
        # are that bincount's; the random form repeats rows within and
        # across entry rows, where another order would differ
        E = label_energies(REGISTRY["ising_ring"](14))
        k, dim = 9, 1 << 13
        forms = [
            GlauberTable(E).chain(1.0, 0.3),
            StochasticMatrix.from_columns(
                rng.integers(0, dim, (k, dim)), rng.dirichlet(np.ones(k), size=dim).T
            ),
        ]
        for sm in forms:
            k, dim = sm.weights.shape
            rows = explicit_rows(sm.moves, dim)
            p = rng.dirichlet(np.ones(dim))
            for cols in (None, np.flatnonzero(rng.random(dim) < 0.5), rng.permutation(dim)[:5000]):
                at = slice(None) if cols is None else cols
                assert rows[:, at].shape[1] > _STEP_CHUNK
                want = np.bincount(
                    rows[:, at].ravel(), weights=(sm.weights[:, at] * p[at]).ravel(), minlength=dim
                )
                q = p if cols is None else np.where(np.isin(np.arange(dim), cols), p, 0.0)
                assert sm.step(q, cols).tobytes() == want.tobytes()

    @pytest.mark.parametrize("inner, size", [(6, 14893), (7, 26333), (9, 50643)])
    def test_drift_of_a_large_A_gathers_no_form(self, inner, size):
        # ising_ring n=16, width 1: the drift's first step reads the
        # columns of A, k = 17 entries each, without gathering them (at
        # inner 7 and 9, past a third of the chain, it steps the whole
        # chain), so its traced peak stays under six vectors of the chain
        # and lhs is the bincount over A's columns to the last bit
        n = 16
        E = label_energies(REGISTRY["ising_ring"](n))
        label = hamming_shell_labels(n, 0, inner, 1)
        sm = GlauberTable(E, label).chain(1.0)
        pi, _ = gibbs_weights(E, 1.0)
        cols = np.flatnonzero(label == 0)
        assert (cols.size, sm.weights.shape[0]) == (size, 17)
        tracemalloc.start()
        try:
            pA, _, _, lhs = conditioned_drift([sm], label, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * sm.dim * 8
        piA = np.where(label == 0, pi, 0.0) / pA
        rows = explicit_rows(sm.moves, sm.dim)[:, cols]
        stepped = np.bincount(rows.ravel(), weights=(sm.weights[:, cols] * piA[cols]).ravel(), minlength=sm.dim)
        assert lhs == float(np.abs(stepped - piA).sum())

    def test_law_moved_at_one_state_is_not_stationary(self):
        # 1e-9 more at the ground state, renormalized, at n=16: the
        # gathered residual still sees it
        E = label_energies(REGISTRY["ising_ring"](16))
        pi, _ = gibbs_weights(E, 0.5)
        moved = pi.copy()
        moved[0] += 1e-9
        moved /= moved.sum()
        part = hamming_shell_labels(16, 0, 1, 1)
        table = GlauberTable(E, part)
        rep = table.report(0.5, 0.0, pi)
        assert rep.lhs <= rep.bound
        with pytest.raises(NonUniqueStationary, match="not stationary"):
            table.report(0.5, 0.0, moved)

    def test_frozen_ring_falls_through_to_the_graph_search(self):
        # at beta 400 every uphill move of the n=10 ring underflows to 0,
        # so the single-flip certificate fails, the search runs and finds
        # the chain fallen apart
        E = label_energies(REGISTRY["ising_ring"](10))
        pi, _ = gibbs_weights(E, 400.0)
        part = hamming_shell_labels(10, 0, 1, 1)
        table = GlauberTable(E, part)
        assert not table.chain(400.0).single_flip_certified()
        with pytest.raises(NonUniqueStationary, match="communicating classes"):
            table.report(400.0, 0.0, pi)
        with pytest.raises(NonUniqueStationary, match="communicating classes"):
            classical_bottleneck_report(GlauberTable(E).chain(400.0), part, pi)


class TestHammingPartition:
    # the split of verify-classical: the label shells of a Hamming ball
    def test_shell_sizes(self):
        part = partition_from_radius(hamming_ball_subspace(4, [0], 0), 1)
        assert np.bincount(part.labels[1]).tolist() == [1, 4, 6, 5]

    def test_offset_center(self):
        part = partition_from_radius(hamming_ball_subspace(3, [0b111], 0), 1)
        assert np.flatnonzero(part.labels[1] == 0).tolist() == [7]
