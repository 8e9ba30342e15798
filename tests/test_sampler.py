"""Gibbs sampler channels: fixed points, locality, jump structure."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottlenecklab.bottleneck import verify_bottleneck_theorem
from bottlenecklab.channel import (
    KrausChannel,
    _trusted_channel,
    _kraus_support,
    apply_channel,
    channel_locality,
)
from bottlenecklab.errors import (
    EmptySchedule,
    NotCommuting,
    NotDiagonal,
    NotFixedPoint,
    NotTracePreserving,
)
from bottlenecklab.markov import _STEP_CHUNK, StochasticMatrix
from bottlenecklab import model, sampler
from bottlenecklab.model import (
    CheckFamily,
    Hamiltonian,
    barrier_subspace,
    build_hamiltonian,
    curie_weiss,
    gibbs_state,
    ising_ring,
    label_basis,
    perturb,
    random_ldpc,
    random_local_perturbation,
    repetition,
    steane7,
    toric,
)
from bottlenecklab.numerics import DensityMatrix, trace_norm
from bottlenecklab.sampler import (
    css_metropolis_channel,
    metropolis_site_channel,
    sweep_schedule,
)
from bottlenecklab.subspace import LabelBasis, hamming_ball_subspace, partition_from_radius
from oracles import (
    dense_css_jumps,
    dense_css_kraus,
    dense_site_kraus,
    explicit_rows,
    per_call_css_form,
    per_call_site_form,
    per_form_support,
    validate_channel,
)


def css_toy_4():
    """Four-qubit chain with one global X check; smallest CSS testbed."""
    return CheckFamily(
        4, z_checks=((0, 1), (1, 2), (2, 3)), x_checks=((0, 1, 2, 3),)
    )


class TestMetropolisSiteChannel:
    def test_infinite_temperature_full_attempt_is_pure_flip(self):
        H = build_hamiltonian(ising_ring(3))
        chan = metropolis_site_channel(H, 0.0, 0, attempt_prob=1.0)
        # K_stay vanishes; K_flip is exactly X on site 0
        X0 = np.zeros((8, 8))
        X0[np.arange(8) ^ 4, np.arange(8)] = 1.0
        assert np.allclose(chan.kraus[0], X0, atol=1e-15)
        assert np.abs(chan.kraus[1]).max() == 0.0
        mixed, _, _ = gibbs_state(H, 0.0)
        out = apply_channel(chan, mixed)
        assert trace_norm(out.mat - mixed.mat) < 1e-12

    def test_locality_on_ising_ring(self):
        H = build_hamiltonian(ising_ring(4))
        chan = metropolis_site_channel(H, 1.0, 0)
        assert channel_locality(chan) == 3

    def test_gibbs_fixed_point(self):
        H = build_hamiltonian(ising_ring(4))
        beta = 1.3
        chan = metropolis_site_channel(H, beta, 2)
        rho, _, _ = gibbs_state(H, beta)
        out = apply_channel(chan, rho)
        assert trace_norm(out.mat - rho.mat) < 1e-10

    def test_detailed_balance_on_all_pairs(self):
        H = build_hamiltonian(ising_ring(4))
        beta = 0.7
        rho, _, _ = gibbs_state(H, beta)
        pi = np.real(np.diag(rho.mat))
        for site in range(4):
            chan = metropolis_site_channel(H, beta, site)
            T = np.zeros((16, 16))
            for y in range(16):
                basis = np.zeros((16, 16), dtype=np.complex128)
                basis[y, y] = 1.0
                out = sum(K @ basis @ K.conj().T for K in chan.kraus)
                T[:, y] = np.real(np.diag(out))
            flow = T * pi[None, :]
            assert np.abs(flow - flow.T).max() < 1e-12

    def test_rejects_non_diagonal(self):
        H = build_hamiltonian(steane7())
        with pytest.raises(NotDiagonal):
            metropolis_site_channel(H, 1.0, 0)

    def test_trace_preserving(self):
        H = build_hamiltonian(ising_ring(3))
        chan = metropolis_site_channel(H, 2.0, 1)
        assert validate_channel(chan).passes


class TestCssMetropolisChannel:
    def test_toric_x_flavor_jump_values(self):
        fam = toric(2)
        H = build_hamiltonian(fam)
        chan = css_metropolis_channel(H, 1.0, 0, "X")
        # two adjacent plaquettes: jumps -2, 0, +2, plus the stay operator
        assert len(chan.kraus) == 4
        for K in chan.kraus[:-1]:
            assert np.abs(K).max() > 0
        # the acceptance amplitudes encode the jumps
        q = 0.5
        amps = sorted(
            float(np.abs(K).max()) for K in chan.kraus[:-1]
        )
        expected = sorted(
            np.sqrt(q * min(1.0, np.exp(-1.0 * w))) for w in (-2, 0, 2)
        )
        assert np.allclose(amps, expected, atol=1e-12)

    def test_steane_gibbs_fixed_point(self):
        H = build_hamiltonian(steane7())
        beta = 1.0
        rho, _, _ = gibbs_state(H, beta)
        for flavor in ("X", "Z"):
            chan = css_metropolis_channel(H, beta, 3, flavor)
            out = apply_channel(chan, rho)
            assert trace_norm(out.mat - rho.mat) < 1e-10

    def test_locality_bound(self):
        fam = toric(2)
        H = build_hamiltonian(fam)
        max_support = max(len(s) for s in fam.z_checks + fam.x_checks)
        bound = 1 + H.w0 * (max_support - 1)
        for flavor in ("X", "Z"):
            chan = css_metropolis_channel(H, 0.8, 0, flavor)
            assert channel_locality(chan) <= bound

    def test_infinite_temperature_composition_mixes_fully(self):
        fam = css_toy_4()
        H = build_hamiltonian(fam)
        chans = [
            css_metropolis_channel(H, 0.0, s, f)
            for s in range(4)
            for f in ("X", "Z")
        ]
        S = np.eye(256, dtype=np.complex128)
        for chan in chans:
            step = np.zeros((256, 256), dtype=np.complex128)
            for K in chan.kraus:
                step += np.kron(K, K.conj())
            S = step @ S
        w, V = np.linalg.eig(S)
        close = np.flatnonzero(np.abs(w - 1.0) < 1e-9)
        assert close.size == 1
        rho = V[:, close[0]].reshape(16, 16)
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        assert np.allclose(rho, np.eye(16) / 16, atol=1e-9)

    def test_requires_check_family(self):
        V = random_local_perturbation(3, 0.1, seed=4)
        with pytest.raises(NotCommuting):
            css_metropolis_channel(V, 1.0, 0, "X")

    def test_bad_flavor_rejected(self):
        H = build_hamiltonian(steane7())
        with pytest.raises(ValueError):
            css_metropolis_channel(H, 1.0, 0, "Y")

    def test_trace_preserving(self):
        H = build_hamiltonian(css_toy_4())
        for flavor in ("X", "Z"):
            chan = css_metropolis_channel(H, 1.5, 1, flavor)
            assert validate_channel(chan).passes


class TestSweepSchedule:
    def test_single_site_repeated(self):
        H = build_hamiltonian(ising_ring(3))
        sched = sweep_schedule(H, 1.0, [1], repetitions=3)
        assert len(sched) == 3
        assert sched[0] is sched[1] is sched[2]

    def test_full_ising_sweep(self):
        H = build_hamiltonian(ising_ring(4))
        beta = 1.0
        sched = sweep_schedule(H, beta, range(4))
        assert len(sched) == 4
        rho, _, _ = gibbs_state(H, beta)
        for chan in sched:
            out = apply_channel(chan, rho)
            assert trace_norm(out.mat - rho.mat) < 1e-10

    def test_css_schedule_covers_flavors(self):
        H = build_hamiltonian(css_toy_4())
        sched = sweep_schedule(H, 0.5, range(4), flavors=("X", "Z"))
        assert len(sched) == 8

    def test_empty_schedule_rejected(self):
        H = build_hamiltonian(ising_ring(3))
        with pytest.raises(EmptySchedule):
            sweep_schedule(H, 1.0, [], repetitions=1)
        with pytest.raises(EmptySchedule):
            sweep_schedule(H, 1.0, [0], repetitions=0)

    def test_sweep_contracts_toward_gibbs(self, rng):
        H = build_hamiltonian(ising_ring(4))
        beta = 0.9
        sched = sweep_schedule(H, beta, range(4))
        rho, _, _ = gibbs_state(H, beta)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        state = a @ a.conj().T
        state /= np.trace(state).real
        dist = trace_norm(state - rho.mat)
        for chan in sched * 3:
            out = np.zeros_like(state)
            for K in chan.kraus:
                out += K @ state @ K.conj().T
            state = out
            new_dist = trace_norm(state - rho.mat)
            assert new_dist <= dist + 1e-9
            dist = new_dist


# --- monomial forms against the dense constructions -------------------------


ORACLE_BETAS = (0.5, 1.0, 2.0)
CLASSICAL_ORACLES = {
    "ising_ring(8)": ising_ring(8),
    "repetition(6)": repetition(6),
    "curie_weiss(7)": curie_weiss(7),
    "random_ldpc(8,6,3)": random_ldpc(8, 6, 3),
}


@pytest.mark.parametrize("label", sorted(CLASSICAL_ORACLES))
def test_site_channel_densifies_to_the_dense_pair(label):
    H = build_hamiltonian(CLASSICAL_ORACLES[label])
    for beta in ORACLE_BETAS:
        for site in range(H.n):
            chan = metropolis_site_channel(H, beta, site)
            assert chan.monomial.basis.identity
            ref = dense_site_kraus(H, beta, site)
            assert len(chan.kraus) == len(ref)
            for K, R in zip(chan.kraus, ref):
                assert np.abs(K - R).max() <= 1e-14


@pytest.mark.parametrize("label", ["steane7", "toric(2)", "css_toy_4"])
def test_css_channel_densifies_to_the_projector_products(label):
    fam = {"steane7": steane7(), "toric(2)": toric(2), "css_toy_4": css_toy_4()}[label]
    H0 = build_hamiltonian(fam)
    for site in range(fam.n):
        for flavor in ("X", "Z"):
            jumps = dense_css_jumps(fam, site, flavor)
            for beta in ORACLE_BETAS:
                chan = css_metropolis_channel(H0, beta, site, flavor)
                assert chan.monomial.basis.same_as(label_basis(fam))
                ref = dense_css_kraus(jumps, beta)
                assert len(chan.kraus) == len(ref) and chan.monomial.moves.shape == (len(ref), 1)
                for K, R in zip(chan.kraus, ref):
                    assert np.abs(K - R).max() <= 1e-14


@pytest.mark.parametrize("make", [steane7, toric], ids=["steane7", "toric(2)"])
def test_css_mask_forms_step_labels_as_the_dense_kraus_list(rng, make):
    # every CSS move is a (k, 1) column of masks, one label shift for each
    # jump row and 0 to stay; at two betas, the label chain steps
    # W diag(p) W^dag as the dense Kraus list does, and the column-sum
    # trace residual is the dense sum K^dag K residual
    fam = make()
    H0 = build_hamiltonian(fam)
    W = label_basis(fam)
    p = rng.dirichlet(np.ones(W.dim))
    rho = W.outer(p)
    for site in range(fam.n):
        for flavor in ("X", "Z"):
            jumps = dense_css_jumps(fam, site, flavor)
            for beta in (1.0, 2.0):
                form = css_metropolis_channel(H0, beta, site, flavor).monomial
                k = len(form.coef)
                assert form.moves.shape == (k, 1) and k == len(jumps) + 1
                assert (form.moves[:-1] == form.moves[0]).all() and form.moves[-1, 0] == 0
                kraus = dense_css_kraus(jumps, beta)
                stepped = sum(K @ rho @ K.conj().T for K in kraus)
                assert np.abs(stepped - W.outer(form.chain.step(p))).max() <= 1e-12
                total = sum(K.conj().T @ K for K in kraus)
                assert abs(form.trace_residual() - np.abs(total - np.eye(W.dim)).max()) <= 1e-12


def test_a_flip_that_moves_labels_by_no_one_mask_raises(monkeypatch):
    # a Pauli moves the CSS labels by one XOR mask, and the move table
    # asserts it: an image with two columns swapped is refused
    fam = steane7()
    real = LabelBasis.pauli_image

    def doctored(self, xmask, zmask):
        col, phase = real(self, xmask, zmask)
        col = col.copy()
        col[[0, 2]] = col[[2, 0]]
        return col, phase

    W = label_basis(fam)
    moves = sampler._move_table(W, fam, 0, "X")[0]
    monkeypatch.setattr(LabelBasis, "pauli_image", doctored)
    with pytest.raises(NotCommuting, match="no one XOR mask"):
        sampler._move_table(W, fam, 0, "X")
    assert moves.shape[1] == 1


def test_css_channel_checks_the_column_sums_of_its_unchecked_form(monkeypatch):
    # the form is built from the kept move table by the unchecked builder,
    # so the samplers' one check reads its column sums: a kept table
    # whose phases are doubled gives columns of weight 1 + 3 accept and is
    # refused (monkeypatch puts the true table back afterwards)
    fam = steane7()
    W = label_basis(fam)
    moves, phase, omega, cls = sampler._move_table(W, fam, 0, "X")
    monkeypatch.setitem(W._kept, (sampler._move_table, fam, 0, "X"), (moves, 2 * phase, omega, cls))
    with pytest.raises(NotTracePreserving, match="deviates from identity"):
        css_metropolis_channel(build_hamiltonian(fam), 1.0, 0, "X")


@pytest.mark.parametrize("n", [4, 6])
def test_site_channel_at_low_temperature_does_not_overflow(n):
    # downhill flips have dE < 0; e^{-beta dE} alone overflows at beta 400
    H = build_hamiltonian(ising_ring(n))
    for site in range(n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chan = metropolis_site_channel(H, 400.0, site)
        with np.errstate(over="ignore"):
            ref = dense_site_kraus(H, 400.0, site)
        for K, R in zip(chan.kraus, ref):
            assert np.array_equal(K, R)


def test_css_channel_at_low_temperature_does_not_overflow():
    fam = steane7()
    H0 = build_hamiltonian(fam)
    for site in range(fam.n):
        for flavor in ("X", "Z"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                chan = css_metropolis_channel(H0, 400.0, site, flavor)
            with np.errstate(over="ignore"):
                ref = dense_css_kraus(dense_css_jumps(fam, site, flavor), 400.0)
            for K, R in zip(chan.kraus, ref):
                assert np.abs(K - R).max() <= 1e-14


@pytest.mark.parametrize("make", [steane7, toric], ids=["steane7", "toric(2)"])
def test_css_pipeline_forms_no_dense_hamiltonian_and_solves_nothing(monkeypatch, make):
    # one pass of the css-codes pipeline: H0 is its labels, so no step
    # forms it densely and no step diagonalizes anything
    counts = dict.fromkeys(["form", "mat", "eigh", "eigvalsh"], 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("form", "mat"):
        monkeypatch.setattr(Hamiltonian, name, property(spy(name, getattr(Hamiltonian, name).fget)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    fam = make()
    H = build_hamiltonian(fam)
    cert = barrier_subspace(fam, (0, 0), 0, 1, H)
    part = partition_from_radius(cert.V, 1)
    for beta in (1.0, 2.0):
        rho, _, _ = gibbs_state(H, beta)
        for site in range(fam.n):
            for flavor in ("X", "Z"):
                chan = css_metropolis_channel(H, beta, site, flavor)
                assert verify_bottleneck_theorem(chan, rho, part).path == "label"
    assert counts == dict.fromkeys(["form", "mat", "eigh", "eigvalsh"], 0)


def test_css_channel_refuses_wrong_label_energy():
    # labels over another basis, with other energies: those of a ring on
    # the same register, under the Steane checks
    H = build_hamiltonian(ising_ring(7))
    H.checks = steane7()
    with pytest.raises(NotDiagonal):
        css_metropolis_channel(H, 1.0, 0, "X")


def test_css_channel_refuses_hamiltonian_off_its_checks():
    fam = steane7()
    H0 = build_hamiltonian(fam)
    V = random_local_perturbation(7, 0.01, seed=2)
    H = Hamiltonian(H0.mat + V.mat, 7, H0.w0, 1, checks=fam)
    with pytest.raises(NotDiagonal):
        css_metropolis_channel(H, 1.0, 0, "X")


def test_monomial_trace_check_catches_lost_weight():
    # the samplers' one check refuses a form whose columns lose weight
    basis = label_basis(steane7())
    coef = np.full((1, basis.dim), 0.999)
    chan = _trusted_channel(basis, np.zeros((1, 1), dtype=np.int64), coef, coef**2)
    with pytest.raises(NotTracePreserving):
        sampler._checked(chan, np.full(basis.dim, 1.0 / basis.dim), "site 0")


def test_samplers_refuse_the_nan_acceptances_of_an_infinite_beta():
    # -inf * 0 is NaN, so a zero jump at beta = inf has a NaN acceptance,
    # and the samplers' own trace checks refuse its NaN column sums
    H0 = build_hamiltonian(steane7())
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotTracePreserving, match="nan"):
            css_metropolis_channel(H0, np.inf, 0, "X")
        with pytest.raises(NotTracePreserving, match="nan"):
            metropolis_site_channel(build_hamiltonian(ising_ring(4)), np.inf, 0)


# a site chain holds two entry rows of 2^n: one flat bincount steps it up
# to rows of _STEP_CHUNK, the XOR gather past it
FLAT_SITE_BITS = _STEP_CHUNK.bit_length() - 1


@pytest.mark.parametrize("n", [FLAT_SITE_BITS, FLAT_SITE_BITS + 1])
def test_the_one_check_refuses_a_vector_the_site_chains_do_not_fix(monkeypatch, n):
    # on either step kernel, a site schedule checked against the Gibbs
    # vector of another beta raises NotFixedPoint naming its first site,
    # and the true Gibbs vector passes and is carried by every channel
    assert (1 << n > _STEP_CHUNK) == (n > FLAT_SITE_BITS)
    H = build_hamiltonian(ising_ring(n))
    true = H.gibbs(1.0)
    for site in (0, n - 1):
        monkeypatch.setitem(H._gibbs, 1.0, H.gibbs(2.0))
        with pytest.raises(NotFixedPoint, match=f"on site {site}$"):
            sweep_schedule(H, 1.0, [site, 1])
    monkeypatch.setitem(H._gibbs, 1.0, true)
    assert all(chan.fixes is true[0] for chan in sweep_schedule(H, 1.0, range(n)))


@pytest.mark.parametrize("make", [steane7, lambda: toric(2)], ids=["steane7", "toric"])
def test_css_move_tables_match_the_per_call_construction(make):
    # the per-beta step over a kept table gives the rows (as moves
    # rows ^ j), the coefficients (bit for bit) and the Kraus order of a
    # construction from scratch
    fam = make()
    H = build_hamiltonian(fam)
    for beta in (0, 0.5, 1, 2, 400):
        for q in (0.5, 1):
            for site in range(fam.n):
                for flavor in ("X", "Z"):
                    form = css_metropolis_channel(H, beta, site, flavor, q).monomial
                    rows, coef = per_call_css_form(H, beta, site, flavor, q)
                    assert np.array_equal(explicit_rows(form.moves, form.basis.dim), rows)
                    assert form.coef.tobytes() == coef.tobytes()


def test_move_tables_are_kept_per_family_and_read_only():
    # ising_ring(6) and curie_weiss(6) share the identity basis of n = 6,
    # and a relabeled Steane code is another family on 7 qubits
    shared = [ising_ring(6), curie_weiss(6)]
    perm = [6, 5, 4, 3, 2, 1, 0]
    relabeled = CheckFamily(
        7,
        z_checks=tuple(tuple(perm[q] for q in s) for s in steane7().z_checks[1:] + steane7().z_checks[:1]),
        x_checks=tuple(tuple(perm[q] for q in s) for s in steane7().x_checks),
    )
    for fams in (shared, [steane7(), relabeled]):
        assert fams[0] != fams[1] and fams[0].n == fams[1].n
        tables = []
        for fam in fams:
            H = build_hamiltonian(fam)
            css_metropolis_channel(H, 1.0, 0, "X")
            W = label_basis(fam)
            kept = [v for key, v in W._kept.items() if key[1:] == (fam, 0, "X")]
            assert len(kept) == 1
            tables.append(kept[0])
            for values in W._kept.values():
                assert not any(a.flags.writeable for a in values)
        # the Pauli image may be shared; the table is each family's own
        assert tables[0] is not tables[1]
        for fam, table in zip(fams, tables):
            H = build_hamiltonian(fam)
            rows, coef = per_call_css_form(H, 1.0, 0, "X")
            assert np.array_equal(explicit_rows(table[0], W.dim), rows)


def test_gibbs_vector_is_computed_once_per_hamiltonian_and_beta(monkeypatch):
    calls = []
    real = model.gibbs_weights

    def counted(E, beta):
        calls.append(beta)
        return real(E, beta)

    monkeypatch.setattr(model, "gibbs_weights", counted)
    fam = toric(2)
    H = build_hamiltonian(fam)
    for beta in (1.0, 2.0):
        rho, _, _ = gibbs_state(H, beta)
        for site in range(fam.n):
            for flavor in ("X", "Z"):
                css_metropolis_channel(H, beta, site, flavor)
    ring = build_hamiltonian(ising_ring(5))
    gibbs_state(ring, 1.0)
    for site in range(5):
        metropolis_site_channel(ring, 1.0, site)
    assert calls == [1.0, 2.0, 1.0]
    p, logZ = H.gibbs(1.0)
    assert not p.flags.writeable
    want_p, want_logZ = real(model.label_energies(fam), 1.0)
    assert p.tobytes() == want_p.tobytes() and logZ == want_logZ


def test_gibbs_vector_of_a_perturbed_hamiltonian_raises():
    H = perturb(build_hamiltonian(ising_ring(5)), random_local_perturbation(5, 0.05, 3))
    with pytest.raises(NotDiagonal):
        H.gibbs(1.0)


@st.composite
def site_schedules(draw):
    """(family, sites, beta, attempt_prob): an ising_ring or curie_weiss
    family on 3 to 8 bits and a site list that may repeat sites."""
    make = draw(st.sampled_from([ising_ring, curie_weiss]))
    n = draw(st.integers(3, 8))
    sites = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    beta = draw(st.sampled_from([0.0, 0.5, 2.0, 400.0]))
    return make(n), sites, beta, draw(st.sampled_from([0.5, 1.0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=site_schedules())
# beta 0: every flip is accepted with probability q, so the flip's support
# shrinks to its own site and the stay operator is a multiple of 1
@example(case=(ising_ring(5), [0, 3, 3, 4], 0.0, 0.5))
@example(case=(curie_weiss(4), [1, 1], 0.0, 1.0))
def test_site_tables_match_the_per_call_construction(case):
    # a schedule built from one move table per site list gives the masks,
    # coefficients, weights, Kraus order and chain sums of a per-call
    # build, bit for bit; its one-pass locality is the largest per-form
    # support and the largest support of the dense operators
    fam, sites, beta, q = case
    H = build_hamiltonian(fam)
    sched = sweep_schedule(H, beta, sites, attempt_prob=q)
    p = H.gibbs(beta)[0]
    assert len(sched) == len(sites)
    for site, chan in zip(sites, sched):
        got, want = chan.monomial, per_call_site_form(H, beta, site, q)
        assert got.moves.shape == (2, 1)
        assert got.moves.tobytes() == want.moves.tobytes()
        # the per-call form is complex with exact-zero imaginary parts
        assert not want.coef.imag.any()
        assert got.coef.tobytes() == want.coef.real.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.chain.step(p).tobytes() == want.chain.step(p).tobytes()
        assert chan.fixes is p
    per_form = max(
        len(per_form_support(rows, coef, fam.n))
        for chan in sched
        for rows, coef in zip(explicit_rows(chan.monomial.moves, 1 << fam.n), chan.monomial.coef)
    )
    dense = max(len(_kraus_support(K, fam.n)) for chan in sched for K in chan.kraus)
    assert channel_locality(sched) == per_form == dense
    if beta == 0:
        assert channel_locality(sched) == 1


def test_a_sweep_holds_masks_not_a_row_stack():
    # ising_ring n=16, all 16 sites: the schedule keeps the (16, 2^16)
    # uphill jumps and its (16, 2, 2^16) coefficients and weights, so the
    # traced peak stays below those plus half of the int64 (16, 2, 2^16)
    # row stack that explicit rows would hold; each form keeps its (2, 1)
    # masks
    n = 16
    H = build_hamiltonian(ising_ring(n))
    floats = n * (1 << n) * 8 * (1 + 2 + 2)
    row_stack = n * 2 * (1 << n) * 8
    tracemalloc.start()
    try:
        sched = sweep_schedule(H, 1.0, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < floats + row_stack // 2
    assert all(chan.monomial.moves.shape == (2, 1) for chan in sched)


def test_a_certified_channel_is_stepped_for_any_other_vector(monkeypatch):
    # a channel built at beta 1 skips its fixed-point step only for the
    # very read-only Gibbs vector its sampler checked
    H = build_hamiltonian(ising_ring(6))
    chan = metropolis_site_channel(H, 1.0, 2)
    assert "fixes" not in inspect.signature(KrausChannel).parameters
    V = hamming_ball_subspace(6, [0], 1)
    own = gibbs_state(H, 1.0)[0]
    assert chan.fixes is own.labels[1]
    stepped = []
    real = StochasticMatrix.residual

    def spied(self, p):
        stepped.append(p)
        return real(self, p)

    monkeypatch.setattr(StochasticMatrix, "residual", spied)
    verify_bottleneck_theorem(chan, own, (V, 3))
    assert stepped == []
    # an equal-valued copy of its own Gibbs vector is stepped, and fixed
    copy = DensityMatrix.from_labels(own.labels[0], own.labels[1].copy())
    verify_bottleneck_theorem(chan, copy, (V, 3))
    assert len(stepped) == 1 and stepped[0] is copy.labels[1]
    # the beta-2 Gibbs state is stepped, and it is not fixed
    with pytest.raises(NotFixedPoint):
        verify_bottleneck_theorem(chan, gibbs_state(H, 2.0)[0], (V, 3))
    assert len(stepped) == 2
    # its own vector, once writable, is stepped again
    own.labels[1].flags.writeable = True
    try:
        verify_bottleneck_theorem(chan, own, (V, 3))
    finally:
        own.labels[1].flags.writeable = False
    assert len(stepped) == 3 and stepped[2] is own.labels[1]


def test_a_certified_css_channel_is_stepped_only_for_another_vector(monkeypatch):
    H = build_hamiltonian(steane7())
    chan = css_metropolis_channel(H, 1.0, 0, "X")
    cert = barrier_subspace(steane7(), (0, 0), 0, 1, H)
    part = partition_from_radius(cert.V, 1)
    stepped = []
    real = StochasticMatrix.residual
    monkeypatch.setattr(
        StochasticMatrix, "residual", lambda self, p: stepped.append(p) or real(self, p)
    )
    own = gibbs_state(H, 1.0)[0]
    verify_bottleneck_theorem(chan, own, part)
    assert stepped == []
    with pytest.raises(NotFixedPoint):
        verify_bottleneck_theorem(chan, gibbs_state(H, 2.0)[0], part)
    assert len(stepped) == 1
