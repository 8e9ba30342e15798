"""Fast paths against their reference forms in oracles.py, on drawn models.

Classical families draw n from 4 (or a larger min_n) to 8 (or a smaller
max_n) and n to 3n supports of 1 to 3 qubits, and keep each one that
leaves every qubit in at most `degree` checks, so the energy range stays
wide next to w0. CSS families take their Z checks the same
way (at most n - 1 of them) and draw one or two X checks as random
combinations of pauli.gf2_null_space_masks of the Z masks, so every X
check overlaps every Z check evenly and the two kinds commute by
construction. Perturbed classical families add one seeded term per site
to a drawn classical family or to repetition or curie_weiss at n = 10.
Label balls take the labels of a drawn family within reduced distance 0
or 1 of a random center, at n <= 7, where the Pauli enumeration of
their radius-2 split still runs in about 2 s.
Classical chains take a classical registry model (ising_ring,
repetition, curie_weiss or random_ldpc) at n from 3 to 10, so the
stationary-law oracle stays on its dense eigensolve.
"""

import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bottlenecklab import numerics, stability, subspace
from bottlenecklab.bottleneck import (
    _collar_weights,
    _label_blocks,
    bottleneck_ratio,
    free_energy_report,
    verify_bottleneck_theorem,
)
from bottlenecklab.channel import (
    _distances,
    _kraus_support,
    _monomial_supports,
    channel_locality,
    evolve_sequence,
)
from bottlenecklab.errors import EmptyA, EmptyBoundary, NonUniqueStationary, NotDiagonal
from bottlenecklab.markov import (
    ClassicalBottleneckReport,
    GlauberFlow,
    StochasticMatrix,
    _accept,
    _certify_stationary,
    _unreached,
    classical_bottleneck_report,
    conditioned_drift,
)
from bottlenecklab.model import (
    REGISTRY,
    SIZE_INDEXED,
    CheckFamily,
    Hamiltonian,
    ThermalState,
    barrier_subspace,
    build_hamiltonian,
    curie_weiss,
    gibbs_state,
    gibbs_weights,
    ising_ring,
    label_basis,
    label_energies,
    perturb,
    random_ldpc,
    random_local_perturbation,
    repetition,
    spectrum,
    steane7,
    subspace_min_energy,
    thermal_state,
    toric,
)
from bottlenecklab.numerics import (
    SUPPORT_TOL,
    DensityMatrix,
    _symmetrized,
    hermitian_eigensystem,
    operator_norm,
)
from bottlenecklab.pauli import gf2_null_space_masks, mask_from_indices
from bottlenecklab.stability import (
    plan_shell_width,
    shell_decomposition,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from bottlenecklab.sampler import css_metropolis_channel, metropolis_site_channel, sweep_schedule
from bottlenecklab.subspace import (
    Subspace,
    _shells,
    ball,
    basis_state_subspace,
    boundary,
    hamming_ball_subspace,
    identity_basis,
    partition_from_radius,
)
from conftest import flux_triangle, gauge_block_diagonal, random_pi
from oracles import (
    GlauberTable,
    _gauged,
    barrier_by_label_pairs,
    birth_death_chain,
    block_labels,
    chain_matrix,
    column_chain,
    communicating_classes,
    dense_check_hamiltonian,
    dense_collar_weights,
    dense_free_energy_bounds,
    dense_gibbs,
    dense_glauber,
    dense_log_partition,
    dense_min_energy,
    dense_norm,
    dense_perturbation,
    dense_perturbed,
    dense_ratio,
    dense_report,
    eigen_columns,
    explicit_rows,
    eigen_ratio,
    enumerated_blocks,
    exact_glauber_drift,
    exact_sweep_drift,
    gauged_eigensystem,
    glauber_flow,
    hamming_shell_labels,
    indices_from_mask,
    per_form_support,
    ring_cut_ratio,
    row_norm_blocks,
    shell_projectors,
    span_distance,
    stationary_distribution,
    thermal_gibbs_state,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def bounded_supports(draw, n):
    degree = draw(st.integers(1, 3))
    support = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    load = np.zeros(n, dtype=np.int64)
    kept = []
    for supp in draw(st.lists(support, min_size=n, max_size=3 * n)):
        if (load[supp] < degree).all():
            load[supp] += 1
            kept.append(tuple(supp))
    return tuple(kept)


@st.composite
def classical_families(draw, max_n=8, min_n=4):
    n = draw(st.integers(min_n, max_n))
    return CheckFamily(n, z_checks=draw(bounded_supports(n)))


@st.composite
def css_families(draw, max_n=8):
    n = draw(st.integers(4, max_n))
    z_checks = draw(bounded_supports(n))[: n - 1]
    null = gf2_null_space_masks(n, [mask_from_indices(n, s) for s in z_checks])
    x_checks = []
    for pick in draw(st.lists(st.integers(1, (1 << len(null)) - 1), min_size=1, max_size=2)):
        x = 0
        for i, m in enumerate(null):
            if pick >> i & 1:
                x ^= m
        x_checks.append(indices_from_mask(n, x))
    return CheckFamily(n, z_checks=z_checks, x_checks=tuple(x_checks))


families = st.one_of(classical_families(), css_families())


@SETTINGS
@given(
    checks=families,
    x0=st.integers(0, 255),
    z0=st.integers(0, 255),
    inner=st.integers(0, 2),
    boundary=st.integers(1, 2),
)
def test_barrier_matches_the_label_pair_builder(checks, x0, z0, inner, boundary):
    n = checks.n
    center = (x0 % (1 << n), z0 % (1 << n))
    H = build_hamiltonian(checks)
    try:
        want = barrier_by_label_pairs(checks, center, inner, boundary)
    except EmptyBoundary:
        with pytest.raises(EmptyBoundary):
            barrier_subspace(checks, center, inner, boundary, H)
        return
    got = barrier_subspace(checks, center, inner, boundary, H)
    for a, b in ((got.V, want.V), (got.boundary, want.boundary)):
        assert np.array_equal(a.basis, b)
        assert a.labels[0] is label_basis(checks)
    assert got.E_min_V == want.E_min_V
    assert got.E_min_boundary == want.E_min_boundary
    assert got.kappa == want.kappa


# every registry family at n <= 10
CHECK_FAMILIES = (
    ising_ring(10),
    repetition(8),
    curie_weiss(8),
    random_ldpc(10, 8, 5),
    steane7(),
    toric(2),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    checks=st.one_of(st.sampled_from(CHECK_FAMILIES), css_families()),
    x0=st.integers(0, 1023),
    z0=st.integers(0, 1023),
    inner=st.integers(0, 1),
)
@example(checks=CHECK_FAMILIES[0], x0=0, z0=0, inner=1)
@example(checks=CHECK_FAMILIES[1], x0=5, z0=0, inner=0)
@example(checks=CHECK_FAMILIES[2], x0=0, z0=0, inner=1)
@example(checks=CHECK_FAMILIES[3], x0=9, z0=0, inner=1)
@example(checks=CHECK_FAMILIES[4], x0=0, z0=0, inner=1)
@example(checks=CHECK_FAMILIES[5], x0=3, z0=17, inner=0)
def test_check_hamiltonian_matches_the_dense_term_sum(checks, x0, z0, inner):
    # H0 held as its labels against the dense sum of its check projectors:
    # the form, the spectrum, and the least energy of a ball and its shell
    n = checks.n
    H = build_hamiltonian(checks)
    dense = dense_check_hamiltonian(checks)
    assert np.abs(H.form - dense).max() <= 1e-12
    w, _ = spectrum(H)
    assert np.abs(np.sort(w) - np.linalg.eigvalsh(dense)).max() <= 1e-12
    ref = Hamiltonian(dense, n=n, w0=H.w0, w1=0)
    cert = barrier_subspace(checks, (x0 % (1 << n), z0 % (1 << n)), inner, 1, H)
    for V, got in ((cert.V, cert.E_min_V), (cert.boundary, cert.E_min_boundary)):
        assert abs(got - dense_min_energy(V.basis, ref)) <= 1e-12
        assert got == subspace_min_energy(V, H)


def shell_window(H0, g, f):
    """(eps1, eps2, delta_E): one shell that plan_shell_width accepts, with
    the top window starting below the largest energy of H0, or None when
    the energy range of H0 is too narrow for one.

    The shell is w0 * (1 + e) wide with e < 1, so the planner picks one,
    and e is small enough for the width bound in g. The fraction f places
    eps1 between 0.02 and the highest value that keeps eps2 * n below the
    largest energy.
    """
    w0, n = H0.w0, H0.n
    ladder = 2 * w0 * (1 + min(0.4, g * n / w0)) + 4 * g * n
    top = float(label_energies(H0.checks).max()) - 0.5
    if top - ladder <= 0.02 * n:
        return None
    eps1 = 0.02 + f * ((top - ladder) / n - 0.02)
    eps2 = eps1 + ladder / n
    return eps1, eps2, plan_shell_width(H0, eps1, eps2, g)


def admissible_window(H0, g, f):
    """shell_window, with the drawn example rejected when there is none."""
    window = shell_window(H0, g, f)
    assume(window is not None)
    return window


@SETTINGS
@given(
    checks=families,
    g=st.floats(0.002, 0.03),
    f=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_shells_match_the_dense_projectors(checks, g, f, seed):
    H0 = build_hamiltonian(checks)
    n = H0.n
    eps1, eps2, delta_E = admissible_window(H0, g, f)
    shells = shell_decomposition(H0, eps1, eps2, g, delta_E)
    assert shells.q_star == 1
    assert len(shells.indices[-1]) > 0
    projectors = shell_projectors(H0, shells.E_boundaries, delta_E)
    for idx, Q in zip(shells.indices, projectors, strict=True):
        cols = np.eye(1 << n)[:, idx] if shells.U is None else shells.U[:, idx]
        assert np.abs(cols @ cols.conj().T - Q).max() < 1e-12

    def dense_residual(V):
        return max(
            operator_norm(projectors[i] @ V.mat @ projectors[j])
            for i in range(len(projectors))
            for j in range(i + 2, len(projectors))
        )

    # a two-site term may couple shells two apart; single-site terms may not
    wide = dense_perturbation(n, ((0, n - 1),), g, seed)
    got = verify_block_tridiagonal(wide, shells).residual
    assert abs(got - dense_residual(wide)) <= 1e-12 * max(1.0, got)

    V = random_local_perturbation(n, g, seed)
    block = verify_block_tridiagonal(V, shells)
    assert block.passes
    assert abs(block.residual - dense_residual(V)) <= 1e-12
    H = perturb(H0, V)
    _, U = gauged_eigensystem(H.mat)
    for rec in tail_amplitudes(H, H0, shells):
        want = np.linalg.norm(projectors[-1] @ U[:, rec.eigen_index])
        assert abs(rec.amplitude - want) <= 1e-12


@st.composite
def perturbed_barriers(draw):
    """(H0 + V, barrier certificate of H0) with one term of V per site.
    g > 0: at g = 0 H is diagonal and both forms read the same weights."""
    checks = draw(
        st.one_of(classical_families(), st.sampled_from([repetition(10), curie_weiss(10)]))
    )
    n = checks.n
    H0 = build_hamiltonian(checks)
    center = (draw(st.integers(0, (1 << n) - 1)), 0)
    cert = barrier_subspace(
        checks, center, draw(st.integers(0, 2)), draw(st.integers(1, 2)), H0
    )
    g = draw(st.floats(0.001, 0.05))
    V = random_local_perturbation(n, g, draw(st.integers(0, 2**16)))
    return perturb(H0, V), cert


# each n = 10 draw runs two dense 1024 x 1024 eigensolves
@settings(SETTINGS, max_examples=15)
@given(
    case=perturbed_barriers(),
    beta=st.one_of(st.sampled_from([3.0, 10.0, 40.0]), st.floats(0.0, 40.0)),
)
def test_eigen_form_ratio_matches_the_dense_gibbs_state(case, beta):
    H, cert = case
    state = thermal_state(H, beta)
    try:
        want = dense_ratio(H, beta, cert.V, cert.boundary)
    except EmptyA:
        with pytest.raises(EmptyA):
            bottleneck_ratio(state, cert.V, cert.boundary)
        return
    got = bottleneck_ratio(state, cert.V, cert.boundary)
    for a, b in zip(got, want, strict=True):
        assert abs(a - b) <= 1e-10 * abs(b)


def _rel(got, want, rel, slack=0.0):
    return abs(got - want) <= rel * abs(want) + slack


# one dense complex route per draw at n <= 8: the perturbed Hamiltonian
# built as before the real gauge, its complex-route eigenpairs, a dense rho.
# The real form and the oracle's gauged matrix differ in their last bits,
# and the ground pair of a ring or of curie_weiss is split only by the
# perturbation (a gap of 1e-5 to 1e-4 here), which turns that pair by
# about eps/gap. The rotation moves the numerator, a sum of Gibbs weights
# of size at most 1, by about eps: at a numerator of 1e-6 that is up to
# 2.5e-10 relative, whichever route is the exact one. So the numerator
# and Delta get eps-sized absolute slack on top of 1e-10 relative.
WEIGHT_SLACK = 1e-15


@settings(SETTINGS, max_examples=60)
@given(
    name=st.sampled_from(SIZE_INDEXED),
    n=st.integers(4, 8),
    g=st.floats(0.001, 0.05),
    seed=st.integers(0, 2**16),
    beta=st.one_of(st.sampled_from([0.0, 3.0, 10.0, 40.0]), st.floats(0.0, 40.0)),
    inner=st.integers(0, 1),
    f=st.floats(0.0, 1.0),
)
# a ground gap of 7e-5 and a numerator of 9e-7: 1.4e-10 relative apart
@example(name="curie_weiss", n=7, g=0.003, seed=0, beta=3.0, inner=1, f=0.5)
@example(name="repetition", n=8, g=0.01, seed=3, beta=3.0, inner=1, f=0.0)
def test_real_gauge_matches_the_dense_complex_route(name, n, g, seed, beta, inner, f):
    checks = REGISTRY[name](n)
    H0 = build_hamiltonian(checks)
    sites = tuple((q,) for q in range(n))
    V = random_local_perturbation(n, g, seed)
    H = perturb(H0, V)
    dense = dense_perturbed(H0, sites, g, seed)
    assert H.phases is not None and H._mat is None and not H.form.flags.writeable
    assert np.abs(H.mat - dense).max() <= 1e-14 * np.abs(dense).max()

    # the gauge fixed at construction is the one the oracle search finds
    d, real = _gauged(_symmetrized(dense))
    assert np.abs(H.phases - d).max() <= 1e-13
    assert np.abs(H.form - real).max() <= 1e-14 * np.abs(real).max()

    w, U = gauged_eigensystem(dense)
    assert np.abs(H.eigensystem().w - w).max() <= 1e-10 * np.abs(w).max()

    ref = Hamiltonian(dense, n=n, w0=0, w1=0)
    cert = barrier_subspace(checks, (0, 0), inner, 2, H0)
    floor = subspace_min_energy(cert.boundary, H)
    assert _rel(floor, dense_min_energy(cert.boundary.basis, ref), 1e-10)
    state = thermal_state(H, beta)
    try:
        want = dense_ratio(ref, beta, cert.V, cert.boundary)
    except EmptyA:
        with pytest.raises(EmptyA):
            bottleneck_ratio(state, cert.V, cert.boundary)
    else:
        delta, numerator, denominator = bottleneck_ratio(state, cert.V, cert.boundary)
        assert _rel(denominator, want[2], 1e-10)
        assert _rel(numerator, want[1], 1e-10, WEIGHT_SLACK)
        assert _rel(delta, want[0], 1e-10, WEIGHT_SLACK / want[2])

    rho = thermal_gibbs_state(H, beta)[0].mat
    assert np.abs(rho - dense_gibbs(dense, beta).mat).max() <= 1e-10

    window = shell_window(H0, g, f)
    if window is None:
        return
    shells = shell_decomposition(H0, *window[:2], g, window[2])
    top = shell_projectors(H0, shells.E_boundaries, shells.delta_E)[-1]
    records = tail_amplitudes(H, H0, shells)
    assert [r.eigen_index for r in records] == list(np.flatnonzero(w < window[0] * n))
    for rec in records:
        want = np.linalg.norm(top @ U[:, rec.eigen_index])
        assert _rel(rec.amplitude, want, 1e-10, WEIGHT_SLACK)


@SETTINGS
@given(n=st.integers(1, 8), g=st.floats(0.001, 0.1), seed=st.integers(0, 2**16))
def test_disjoint_support_norm_matches_the_full_spectrum(n, g, seed):
    # one term per site: the norm read from the term spectra is exact
    V = random_local_perturbation(n, g, seed)
    assert abs(dense_norm(V) - g * n) <= 1e-12 * g * n


@pytest.mark.parametrize("phi", [1e-9, 0.3])
def test_gauge_search_refuses_nonzero_flux(phi):
    H = flux_triangle(phi)
    assert _gauged(_symmetrized(H))[0] is None
    w, V = gauged_eigensystem(H)
    assert np.array_equal(w, hermitian_eigensystem(H)[0])


def test_gauge_search_finds_every_zero_flux_component(rng):
    H = gauge_block_diagonal(rng)
    d, real = _gauged(H)
    assert d is not None and np.isrealobj(real)
    assert np.abs(np.abs(d) - 1.0).max() <= 1e-15
    assert np.abs(d[:, None] * real * d.conj()[None, :] - H).max() <= 1e-15
    w, V = gauged_eigensystem(H)
    assert np.abs(w - np.linalg.eigvalsh(H)).max() <= 1e-12
    assert np.abs((V * w[None, :]) @ V.conj().T - H).max() <= 1e-12


@pytest.mark.parametrize("supports", [((0, 1),), ((0,), (1, 2)), ((1, 2), (2, 3))])
def test_gauge_search_refuses_two_site_terms(supports):
    H = perturb(build_hamiltonian(repetition(5)), dense_perturbation(5, supports, 0.05, 7))
    assert _gauged(_symmetrized(H.mat))[0] is None


@SETTINGS
@given(
    checks=families,
    picks=st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True),
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=24, max_size=24),
    g=st.one_of(st.just(0.0), st.floats(0.001, 0.05)),
    seed=st.integers(0, 2**16),
)
def test_gathered_floor_block_matches_the_dense_block(checks, picks, angles, g, seed):
    # the gather over a mask of the identity basis against the dense block
    # of the same basis states with unit phases, which change no eigenvalue
    n = checks.n
    rows = sorted({p % (1 << n) for p in picks})
    X = np.zeros((1 << n, len(rows)), dtype=np.complex128)
    X[rows, np.arange(len(rows))] = np.exp(1j * np.array(angles[: len(rows)]))
    V = Subspace(identity_basis(n), np.isin(np.arange(1 << n), rows))
    # a two-site term next to the single sites, so H is not a sum of
    # single-site terms on a diagonal H0
    terms = tuple((q,) for q in range(n)) + ((0, n - 1),)
    H = perturb(build_hamiltonian(checks), dense_perturbation(n, terms, g, seed))
    want = dense_min_energy(X, H)
    assert abs(subspace_min_energy(V, H) - want) <= 1e-12 * max(1.0, abs(want))


def label_ball(checks, center, inner):
    """(W, V): V spans the labels of W = label_basis(checks) within
    reduced distance inner of the center."""
    W = label_basis(checks)
    return W, Subspace(W, span_distance(checks, center) <= inner)


@st.composite
def label_balls(draw):
    """label_ball of a drawn family with n <= 7, a random center and
    inner radius 0 or 1."""
    checks = draw(st.one_of(classical_families(max_n=7), css_families(max_n=7)))
    n = checks.n
    center = (draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1)))
    return label_ball(checks, center, draw(st.integers(0, 1)))


# an n = 7 draw at r = 2 enumerates 211 strings on up to 128 columns; the
# explicit Steane cases make sure one runs
@settings(SETTINGS, max_examples=12)
@given(ball=label_balls(), r=st.integers(1, 2))
@example(ball=label_ball(steane7(), (0, 0), 1), r=2)
@example(ball=label_ball(steane7(), (0, 0), 0), r=1)
def test_label_shells_match_the_enumeration(ball, r):
    W, V = ball
    part = partition_from_radius(V, r)
    for name, P in enumerated_blocks(V.basis, r).items():
        block = getattr(part, name)
        assert block.labels[0] is W
        assert np.abs(block.projector() - P).max() <= 1e-9, name


@SETTINGS
@given(ball=label_balls(), r=st.integers(1, 2))
def test_mask_membership_matches_the_row_norms(ball, r):
    W, V = ball
    part = partition_from_radius(V, r)
    want = row_norm_blocks(W, [b.basis for b in (part.A, part.B1, part.B2, part.C)])
    assert want is not None
    assert np.array_equal(_label_blocks(W, part), want)
    # the label path takes only the partition's own basis
    assert _label_blocks(identity_basis(W.n + 1), part) is None


# criterion 11's points: five models, a radius-0 barrier ball at the origin,
# a collar of radius 2, four betas
FREE_ENERGY_MODELS = {
    "ising_ring(6)": ("ising_ring", 6),
    "repetition(8)": ("repetition", 8),
    "curie_weiss(6)": ("curie_weiss", 6),
    "steane7": ("steane7",),
    "toric(2)": ("toric",),
}


def free_energy_points(label):
    name, *args = FREE_ENERGY_MODELS[label]
    checks = REGISTRY[name](*args)
    H = build_hamiltonian(checks)
    V = barrier_subspace(checks, (0, 0), 0, 1, H).V
    for beta in (0.5, 1.0, 2.0, 3.0):
        yield H, V, beta, gibbs_state(H, beta)[0]


@pytest.mark.parametrize("label", FREE_ENERGY_MODELS)
def test_collar_weights_match_the_dense_projectors(label):
    for H, V, beta, rho in free_energy_points(label):
        shell = boundary(V, 2)
        assert V.labels is not None and shell.labels[0] is V.labels[0]
        want = dense_collar_weights(rho.mat, V, shell)
        # rho carries labels over V's basis: its weights, and a commutator of 0
        assert rho.labels[0] is V.labels[0]
        labeled = _collar_weights(rho, V, shell)
        assert labeled[1] == 0.0
        for got in (labeled, _collar_weights(rho.mat, V, shell)):
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            assert abs(got[1] - want[1]) <= 1e-12


@pytest.mark.parametrize("label", FREE_ENERGY_MODELS)
def test_free_energy_bounds_match_the_scipy_dense_form(label):
    for H, V, beta, rho in free_energy_points(label):
        rep = free_energy_report(H, beta, V, 1)
        a, b, c, a_applicable, b_applicable = dense_free_energy_bounds(H, beta, V, 1, rho)
        assert rep.bounds_a == pytest.approx(a, rel=1e-12, abs=0)
        assert rep.bounds_b == pytest.approx(b, rel=1e-12, abs=0)
        assert rep.bounds_c == pytest.approx(c, rel=1e-12, abs=0)
        assert (rep.a_applicable, rep.b_applicable) == (a_applicable, b_applicable)


@st.composite
def classical_registry_models(draw):
    n = draw(st.integers(3, 10))
    name = draw(st.sampled_from(("ising_ring", "repetition", "curie_weiss", "random_ldpc")))
    if name == "random_ldpc":
        return random_ldpc(n, draw(st.integers(1, 2 * n)), draw(st.integers(0, 2**16)))
    return REGISTRY[name](n)


# each n = 10 draw runs one dense 1024 x 1024 eigensolve; curie_weiss(8)
# has a gap of 2e-6 at beta 1 and one the eigensolve cannot resolve at beta 3
@settings(SETTINGS, max_examples=20)
@given(
    checks=classical_registry_models(),
    beta=st.floats(0.0, 3.0),
    laziness=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
)
@example(checks=curie_weiss(8), beta=1.0, laziness=0.0)
@example(checks=curie_weiss(8), beta=3.0, laziness=0.0)
def test_gibbs_law_matches_the_solved_stationary_law(checks, beta, laziness):
    E = label_energies(checks)
    chain = GlauberTable(E).chain(beta, laziness)
    pi, _ = gibbs_weights(E, beta)
    classical_bottleneck_report(chain, hamming_shell_labels(checks.n, 0, 0, 1), pi)
    try:
        want = stationary_distribution(chain)
    except NonUniqueStationary as exc:
        # a barrier of height h leaves an eigenvalue about e^{-beta h} from 1;
        # the Gibbs law passed the exact certificate above all the same
        assert "eigenvalues within 1e-9 of 1" in str(exc)
        return
    gap = np.abs(pi - want).sum()
    if gap > 1e-10:
        # the solved law is an eigenvector whose eigenvalue lies only sep
        # from the next (the spectrum of a reversible chain is real); a
        # backward-stable eigensolve leaves it off by about eps / sep
        w = np.sort(np.linalg.eigvals(chain_matrix(chain).toarray()).real)
        assert gap <= pi.size * np.finfo(np.float64).eps / (1.0 - w[-2])


# --- irreducibility: the reachability check against scipy's class search ----


def _all_flips_positive(M):
    """Whether every column j of a dense chain on 2^m states moves with
    positive weight to each of its flips j ^ (1 << b)."""
    idx = np.arange(M.shape[0])
    m = M.shape[0].bit_length() - 1
    return all((M[idx ^ (1 << b), idx] > 0).all() for b in range(m))


@pytest.mark.parametrize("family", ["ising_ring", "repetition", "curie_weiss", "random_ldpc"])
def test_single_flip_certificate_agrees_with_the_search(family):
    # the reachability check of _certify_stationary finds a chain
    # irreducible exactly when scipy's search finds one class; a chain
    # with every flip positive holds the m-cube and is irreducible, and
    # at beta 400, where uphill moves underflow to 0, the rounded chain
    # falls apart
    split = 0
    for n in range(3, 11):
        checks = random_ldpc(n, n, n) if family == "random_ldpc" else REGISTRY[family](n)
        E = label_energies(checks)
        for beta in (0.0, 1.0, 3.0, 30.0, 400.0):
            for laziness in (0.0, 0.25):
                chain = GlauberTable(E).chain(beta, laziness)
                with np.errstate(over="ignore"):
                    positive = _all_flips_positive(dense_glauber(E, beta, laziness))
                irreducible = communicating_classes(chain) == 1
                assert (_unreached(chain) is None) == irreducible, (n, beta, laziness)
                assert irreducible or not positive, (n, beta, laziness)
                split += not irreducible
    assert split > 0


@SETTINGS
@given(
    m=st.integers(1, 8),
    beta=st.floats(0.0, 3.0),
    laziness=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**16),
)
def test_certificate_declines_a_chain_with_one_flip_removed(m, beta, laziness, seed):
    # one flip's weight moved onto its column's stay entry: the
    # reachability check agrees with scipy's search. Past one bit the cube
    # stays strongly connected through the other flips; at one bit the
    # removed flip j -> j ^ 1 was the only way out of j, and the message
    # names the state that j does not reach
    rng = np.random.default_rng(seed)
    E = rng.uniform(-1.0, 2.0, size=2**m)
    full = GlauberTable(E).chain(beta, laziness)
    assert _unreached(full) is None and communicating_classes(full) == 1
    j, b = int(rng.integers(2**m)), int(rng.integers(m))
    weights = full.weights.copy()
    flip = np.flatnonzero(full.moves[:, 0] == 1 << b)[0]
    stay = np.flatnonzero(full.moves[:, 0] == 0)[0]
    weights[stay, j] += weights[flip, j]
    weights[flip, j] = 0.0
    chain = StochasticMatrix.from_columns(explicit_rows(full.moves, 2**m), weights)
    classes = communicating_classes(chain)
    assert (_unreached(chain) is None) == (classes == 1)
    assert (classes == 1) == (m > 1)
    if classes > 1:
        pi, _ = gibbs_weights(E, beta)
        with pytest.raises(NonUniqueStationary, match=f"state {j ^ 1} is not reached from state {j}$"):
            _certify_stationary(chain, pi)


def test_birth_death_chains_in_column_form_match_the_dense_report():
    # criterion 3's chains and laws: converted once to the op-major form
    # by column_chain, found irreducible by the reachability check as by
    # scipy's search, read like the dense chain
    for m in (8, 16):
        for seed in range(9):
            rng = np.random.default_rng(7000 + 10 * m + seed)
            pi = random_pi(rng, m)
            M = birth_death_chain(m, pi)
            chain = column_chain(M)
            assert np.array_equal(chain_matrix(chain).toarray(), M)
            assert _unreached(chain) is None and communicating_classes(chain) == 1
            part = block_labels((0, 1), (2,), (3,), range(4, m))
            rep = classical_bottleneck_report(chain, part, pi)
            ref = dense_report(M, part, pi)
            for key, want in ref.items():
                assert getattr(rep, key) == pytest.approx(want, rel=1e-12, abs=1e-15), (m, seed, key)
            assert rep.condition_max == 0.0


# --- the classical flow route against the stepped chain -------------------


def _most_checks_on_one_bit(checks):
    return max(sum(q in check for check in checks.z_checks) for q in range(checks.n))


def _classical_family(family, n):
    return random_ldpc(n, n, n) if family == "random_ldpc" else REGISTRY[family](n)


@pytest.mark.parametrize("family", ["ising_ring", "curie_weiss", "random_ldpc", "repetition"])
def test_flow_route_matches_the_stepped_chain(family):
    # at every n <= 12, on a split about 0 and one about the middle state,
    # at betas 0 to 30 and laziness 0 and 0.3: the stepped chain fixes the
    # Gibbs law, the flow route's pi columns and bound have the stepped
    # drift's bytes, its lhs has the bits of the flow read one state at a
    # time and of the table's report, and it lies within the stepped
    # form's rounding bound wherever that bound is below the drift
    u = numerics.UNIT_ROUNDOFF
    compared = 0
    for n in range(3, 13):
        checks = _classical_family(family, n)
        E = label_energies(checks)
        for center, inner in ((0, 0), (n // 2, n // 3)):
            if inner + 2 >= n:
                continue
            label = hamming_shell_labels(n, center, inner, 1)
            flow, table = GlauberFlow(E, label), GlauberTable(E, label)
            for beta in (0.0, 0.5, 1.0, 3.0, 10.0, 30.0):
                pi, _ = gibbs_weights(E, beta)
                for laziness in (0.0, 0.3):
                    rep = flow.report(beta, laziness, pi)
                    chain = table.chain(beta, laziness)
                    resid = chain.residual(pi)
                    assert resid <= numerics.STATIONARY_TOL
                    pA, pB, pC, stepped = conditioned_drift([chain], label, pi)
                    assert (rep.pi_A, rep.pi_B, rep.pi_C, rep.bound) == (pA, pB, pC, 2.0 * pB / pA)
                    assert rep.condition_max == 0.0
                    assert rep.lhs == glauber_flow(E, beta, laziness, label, pi)
                    assert rep.lhs == table.report(beta, laziness, pi).lhs
                    # the stepped lhs: m + 1 terms per target, one difference
                    # and the sums, each within a few units of the scale 1 of
                    # pi_A; and the flow it stands for within 2 resid / pi(A)
                    rounding = 2.0 * resid / pA + 4 * (n + 3) * u
                    if rounding < rep.lhs:
                        compared += 1
                        assert abs(stepped - rep.lhs) <= rounding, (n, center, beta, laziness)
    assert compared > 0


@pytest.mark.parametrize(
    "checks, inner",
    [(ising_ring(10), 1), (random_ldpc(10, 8, 5), 2)],
    ids=["ising_ring", "random_ldpc"],
)
def test_flow_route_matches_the_exact_rational_drift_at_low_temperature(checks, inner):
    # at e^{-beta} = 1/1000 the flow lies within 1e-12 relative of the
    # exact drift, and within the bound, where the stepped drift has lost
    # the flow to rounding
    q = 1000
    beta = math.log(q)
    E = label_energies(checks)
    label = hamming_shell_labels(checks.n, 0, inner, 1)
    pi, _ = gibbs_weights(E, beta)
    rep = GlauberFlow(E, label).report(beta, 0.0, pi)
    exact = exact_glauber_drift(checks, 0, inner, q)
    assert exact <= Fraction(rep.bound)
    assert abs(rep.lhs - float(exact)) <= 1e-12 * float(exact)


@pytest.mark.parametrize("family", ["ising_ring", "repetition", "curie_weiss", "random_ldpc"])
def test_flow_passes_every_point_the_chain_passes_with_its_report(family):
    # n 4 to 12, A the radius-1 ball about 0 and about n // 2 with shells
    # of width 1, 25 betas from 20 to 400: where the chain oracle's report
    # passes, its stepped residual and reachability check included, the
    # flow passes with the same report; anywhere else A is empty or the
    # rounded chain has fallen apart, and the flow passes or finds A
    # empty. No point
    # violates the bound (BoundViolated would propagate). The points at
    # which the largest uphill acceptance underflows are counted apart:
    # only there may the rounded chain lose an edge
    counts = collections.Counter()
    for n in range(4, 13):
        checks = _classical_family(family, n)
        E = label_energies(checks)
        most = _most_checks_on_one_bit(checks)
        for center in (0, n // 2):
            label = hamming_shell_labels(n, center, 1, 1)
            flow, table = GlauberFlow(E, label), GlauberTable(E, label)
            for beta in np.geomspace(20, 400, 25).tolist():
                underflows = _accept(np.array([float(most)]), beta, 1.0 / n)[0] == 0.0
                pi, _ = gibbs_weights(E, beta)
                try:
                    want = table.report(beta, 0.0, pi)
                except (NonUniqueStationary, EmptyA) as exc:
                    want = type(exc).__name__
                try:
                    got = flow.report(beta, 0.0, pi)
                except EmptyA:
                    got = "EmptyA"
                if isinstance(want, ClassicalBottleneckReport):
                    assert got == want, (n, center, beta)
                else:  # the rounded chain falls apart only past the underflow
                    assert want == "EmptyA" or underflows, (n, center, beta)
                counts[underflows, isinstance(want, str), isinstance(got, str)] += 1
    # past the underflow the chain still passes somewhere only on
    # random_ldpc; on every family the flow passes where the chain fell apart
    assert (counts[True, False, False] > 0) == (family == "random_ldpc")
    assert counts[True, True, False] > 0


# --- the label path's sweep drift against the exact rational drift ---------


@pytest.mark.parametrize(
    "q",
    [
        1000,
        pytest.param(
            10**8,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 20: the stepped sweep drift loses its inside "
                "half below one ulp; at q = 10^8 it reads 0.819 of the exact drift",
            ),
        ),
    ],
)
def test_ring_sweep_drift_matches_the_exact_rational_drift(q):
    # verify-quantum's point on the n=8 ring: one sweep of every site, the
    # radius-1 label ball about 0, partition radius 3, e^{-beta} = 1/q.
    # At q = 1000 the stepped drift lies 4.4e-11 relative from exact: the
    # cancellation inside A already costs a few units of its scale 1
    n = 8
    checks = ising_ring(n)
    H = build_hamiltonian(checks)
    beta = math.log(q)
    rho = gibbs_state(H, beta)[0]
    part = partition_from_radius(hamming_ball_subspace(n, [0], 1), 3)
    rep = verify_bottleneck_theorem(sweep_schedule(H, beta, range(n)), rho, part)
    assert rep.path == "label"
    exact = float(exact_sweep_drift(checks, 0, 1, q))
    assert abs(rep.lhs - exact) <= 1e-10 * exact


# --- one distance search: balls and shells against the closed forms --------


def _search_matches_the_span_minimum(checks, centers, radius):
    """The breadth-first distances from the columns of some center labels
    equal the least span_distance of those centers, and the ball of
    radius holds the labels within it."""
    W = label_basis(checks)
    seeds = [W.index(x, z) for x, z in centers]
    want = np.min([span_distance(checks, c) for c in centers], axis=0)
    seed = np.zeros(W.dim, dtype=bool)
    seed[seeds] = True
    assert np.array_equal(_shells(W, seed, checks.n), want)
    got = ball(W, seeds, radius)
    assert got.labels[0] is W
    assert np.array_equal(got.labels[1], want <= radius)
    if checks.is_classical:
        hamming = hamming_ball_subspace(checks.n, [x for x, _ in centers], radius)
        assert np.array_equal(hamming.labels[1], want <= radius)


def _registry_families():
    for n in range(3, 11):
        for name in SIZE_INDEXED:
            yield pytest.param(REGISTRY[name](n), id=f"{name}({n})")
        yield pytest.param(random_ldpc(n, n, n), id=f"random_ldpc({n},{n},{n})")
    yield pytest.param(steane7(), id="steane7")
    yield pytest.param(toric(2), id="toric(2)")


@pytest.mark.parametrize("checks", _registry_families())
def test_distance_search_matches_the_span_minimum_on_the_registry(checks):
    rng = np.random.default_rng(checks.n)
    for count in (1, 1, 2, 3):
        centers = [tuple(int(c) for c in rng.integers(0, 1 << checks.n, 2)) for _ in range(count)]
        _search_matches_the_span_minimum(checks, centers, int(rng.integers(0, checks.n + 2)))


@SETTINGS
@given(checks=css_families(), data=st.data())
def test_distance_search_matches_the_span_minimum_on_css_families(checks, data):
    label = st.tuples(st.integers(0, (1 << checks.n) - 1), st.integers(0, (1 << checks.n) - 1))
    centers = data.draw(st.lists(label, min_size=1, max_size=3))
    _search_matches_the_span_minimum(checks, centers, data.draw(st.integers(0, checks.n)))


@pytest.mark.parametrize("chunk", [1, 3])
def test_distance_search_is_the_same_in_frontier_chunks(monkeypatch, chunk):
    # the search takes its frontier a chunk of labels at a time; with
    # chunks of one and three labels every round runs many of them
    monkeypatch.setattr(subspace, "_SHELL_CHUNK", chunk)
    for checks in (ising_ring(7), steane7(), toric(2)):
        _search_matches_the_span_minimum(checks, [(0, 0), (5, 3)], 2)


@pytest.mark.parametrize("checks", [ising_ring(6), steane7(), toric(2)], ids=["ring6", "steane7", "toric2"])
def test_search_moves_are_distinct_and_move_every_label(checks):
    # each kept move lands every label on a label of its own, none keeps
    # one, and every weight-1 move lands where some kept move does
    W = label_basis(checks)
    a, b = subspace._moves(W)
    cols = np.arange(W.dim)
    images = [W.index(W.x ^ ai, W.z ^ bi) for ai, bi in zip(a, b)]
    assert all(np.all(img != cols) for img in images)
    assert len({img.tobytes() for img in images}) == len(images)
    for q in range(checks.n):
        for mx, mz in ((1, 0), (0, 1), (1, 1)):
            img = W.index(W.x ^ np.uint64(mx << q), W.z ^ np.uint64(mz << q))
            assert np.array_equal(img, cols) or any(np.array_equal(img, i) for i in images)
    if checks.is_classical:
        assert np.array_equal(a, np.uint64(1) << np.arange(checks.n, dtype=np.uint64))
        assert not b.any()


@pytest.mark.parametrize("n", range(3, 11))
def test_classical_split_matches_the_hamming_shells(n):
    # verify-classical's split, the label shells of a Hamming ball from
    # one search from its center, at every (inner, width) whose C is
    # non-empty; every center up to n = 8, 16 seeded ones past it
    centers = range(1 << n) if n <= 8 else np.random.default_rng(n).integers(0, 1 << n, 16)
    for width in range(1, n):
        for inner in range(n - 2 * width):
            for center in centers:
                part = partition_from_radius(basis_state_subspace(n, [center]), width, inner)
                want = hamming_shell_labels(n, int(center), inner, width)
                assert np.array_equal(part.labels[1], want), (center, inner, width)


# --- the label path's Delta against markov's pi(B)/pi(A) ---------------------


@pytest.mark.parametrize("n", [8, 10, 12])
def test_label_delta_matches_the_classical_ratio(n):
    # one cut three ways: a radius-rho ball with r shells on the label path
    # of verify_bottleneck_theorem, (inner rho, width r) in markov, and a
    # numpy oracle that shares no code with either. Delta depends only on
    # the Gibbs law and the blocks, not on the chain, so all three agree
    checks = ising_ring(n)
    H = build_hamiltonian(checks)
    E = label_energies(checks)
    for beta in (0.5, 1.0, 2.0):
        rho = gibbs_state(H, beta)[0]
        sched = sweep_schedule(H, beta, range(n))
        pi, _ = gibbs_weights(E, beta)
        chain = GlauberTable(E).chain(beta)
        for center, inner, width in [(0, 0, 1), (0, 1, 2), (5, 1, 1), (5, 2, 2)]:
            part = partition_from_radius(hamming_ball_subspace(n, [center], inner), width)
            label = verify_bottleneck_theorem(sched, rho, part)
            assert label.path == "label"
            cut = hamming_shell_labels(n, center, inner, width)
            classical = classical_bottleneck_report(chain, cut, pi)
            want = ring_cut_ratio(n, beta, center, inner, width)
            for got in (label.delta, classical.pi_B / classical.pi_A):
                assert got == pytest.approx(want, rel=1e-12, abs=0), (beta, center, inner, width)


# --- the certified Chebyshev route of perturbed sweep points ----------------


@settings(SETTINGS, max_examples=15)
@given(
    checks=classical_families(min_n=7),
    g=st.floats(0.001, 0.1),
    seed=st.integers(0, 2**16),
    beta=st.one_of(st.sampled_from([0.0, 3.0, 10.0]), st.floats(0.0, 10.0)),
    picks=st.lists(st.integers(0, 255), min_size=1, max_size=12, unique=True),
)
def test_site_form_columns_stay_within_their_bound(checks, g, seed, beta, picks):
    # the eigensolve's own columns are off by about dim u, which the
    # comparison allows on top of the kernel's bound; a draw whose series
    # would cost more than the dense solve has no columns to compare
    n = checks.n
    H = perturb(build_hamiltonian(checks), random_local_perturbation(n, g, seed))
    cols = np.array(sorted({p % (1 << n) for p in picks}))
    series = numerics._site_form_series(H.diagonal(), H.flips, beta, cols.size)
    assume(series is not None)
    S2, coef, err, lo = series
    Y = numerics._clenshaw(S2, coef, cols, np.arange(cols.size), np.ones(cols.size), cols.size)
    want = eigen_columns(H, beta, cols, lo)
    assert err < 1e-12
    assert np.linalg.norm(Y - want, axis=0).max() <= err + (1 << n) * np.finfo(float).eps



@settings(SETTINGS, max_examples=15)
@given(
    checks=classical_families(min_n=5),
    g=st.floats(0.001, 0.1),
    seed=st.integers(0, 2**16),
    beta=st.one_of(st.sampled_from([0.5, 3.0, 10.0, 30.0]), st.floats(0.0, 30.0)),
    signs=st.lists(st.booleans(), min_size=12, max_size=12),
    picks=st.lists(st.integers(0, 4095), min_size=1, max_size=40, unique=True),
)
def test_numerator_reach_bounds_the_boundary_weight(checks, g, seed, beta, signs, picks):
    # the probe's bound holds for any signs of the flip weights, and is
    # what lets a sweep point skip the label columns
    n = checks.n
    H = perturb(build_hamiltonian(checks), random_local_perturbation(n, g, seed))
    t = np.where(signs[:n], -1.0, 1.0) * H.flips
    H = Hamiltonian(H.diagonal(), n=n, w0=H.w0, w1=H.w1, flips=t)
    rows_b = np.array(sorted({p % (1 << n) for p in picks}))
    S2, coef, err, lo = numerics._site_form_series(H.diagonal(), t, beta, 1)
    reach = numerics._numerator_reach(S2, coef, err, t, rows_b)
    num = np.linalg.svd(eigen_columns(H, beta, rows_b, lo), compute_uv=False).sum()
    assert num <= reach * (1 + 1e-12) + (1 << n) * np.finfo(float).eps


SWEEP_ROUTE_CASES = {"repetition": 10, "curie_weiss": 8}


# the betas whose points certify, per (model, g): the boundary weights at
# beta 10 and 30, and on curie_weiss (boundary energies 12 and 15) already
# at beta 3, are too small next to the rounding bound
CERTIFIED_BETAS = {
    ("repetition", 1e-4): {0.5, 3.0},
    ("repetition", 0.01): {0.5, 3.0},
    ("repetition", 0.1): {0.5},
    ("curie_weiss", 1e-4): {0.5},
    ("curie_weiss", 0.01): {0.5},
    ("curie_weiss", 0.1): {0.5},
}


@pytest.mark.parametrize("name", SWEEP_ROUTE_CASES)
@pytest.mark.parametrize("g", [1e-4, 0.01, 0.1])
def test_certified_delta_matches_the_eigensolve(name, g):
    # wherever the Chebyshev route certifies, it agrees with the eigensolve
    # within 1e-9 relative; elsewhere the sweep point takes the eigensolve
    n = SWEEP_ROUTE_CASES[name]
    H0, cert = stability.sweep_model(name, n, ((0, 0), 1, 2))
    H = perturb(H0, random_local_perturbation(n, g, 3))
    eig = H.eigensystem()
    certified = set()
    for beta in (0.5, 3.0, 10.0, 30.0):
        got = stability._site_form_delta(H, beta, cert)
        if got is None:
            continue
        certified.add(beta)
        p, logZ = gibbs_weights(eig.w, beta)
        want = bottleneck_ratio(ThermalState(p, eig.U, logZ), cert.V, cert.boundary)[0]
        assert abs(got - want) <= 1e-9 * want
    assert certified == CERTIFIED_BETAS[name, g]


@pytest.mark.parametrize(
    "n,beta,g,widths",
    [(10, 10.0, 0.01, [1]), (10, 3.0, 0.1, [1, 176]), (8, 30.0, 0.01, [])],
)
def test_uncertified_point_takes_the_eigensolve_route(monkeypatch, n, beta, g, widths):
    # at n = 10, beta 10 the probe's bound on the boundary weight is far
    # below what the rounding bound lets certify, and the label columns
    # do not run; at beta 3, g 0.1 they run and their bound fails; at
    # n = 8, beta 30 the K products would cost more than the dense solve
    # and nothing runs. Each time the point runs thermal_state +
    # bottleneck_ratio and reads the oracle's value
    H0, cert = stability.sweep_model("repetition", n, ((0, 0), 1, 2))
    H = perturb(H0, random_local_perturbation(n, g, 5))
    calls, ran = [], []
    real_ratio = stability.site_form_ratio
    real_clenshaw = numerics._clenshaw

    def spied(*args):
        calls.append(real_ratio(*args))
        return calls[-1]

    def clenshaw(S2, coef, rows, cols, values, width):
        ran.append(width)
        return real_clenshaw(S2, coef, rows, cols, values, width)

    monkeypatch.setattr(stability, "site_form_ratio", spied)
    monkeypatch.setattr(numerics, "_clenshaw", clenshaw)
    row = stability.sweep_point("repetition", n, beta, g, 5, H0, cert)
    assert calls == [None]
    assert ran == widths
    assert row.delta == eigen_ratio(H, beta, cert)


# --- Gibbs states built from their labels ---------------------------------

LABEL_GIBBS_CODES = {"steane7": steane7, "toric(2)": toric}


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the
    record."""
    calls = []
    real = getattr(owner, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)
    return calls


@pytest.mark.parametrize("label", LABEL_GIBBS_CODES)
def test_label_gibbs_state_matches_the_dense_gibbs_state(monkeypatch, label):
    checks = LABEL_GIBBS_CODES[label]()
    H = build_hamiltonian(checks)
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    states = {beta: gibbs_state(H, beta) for beta in (0.0, 1.0, 2.0, 5.0)}
    assert eighs == []
    monkeypatch.undo()
    for beta, (rho, logZ, _) in states.items():
        W, p = rho.labels
        assert W is label_basis(checks)
        assert np.array_equal(p, gibbs_weights(label_energies(checks), beta)[0])
        assert np.abs(rho.mat - dense_gibbs(H.mat, beta).mat).max() <= 1e-12
        assert abs(logZ - dense_log_partition(H.mat, beta)) <= 1e-12


def test_perturbed_css_gibbs_state_raises_not_diagonal():
    # gibbs_state has no eigensolve route: a perturbed H has no labels and
    # is not diagonal, and its dense Gibbs state is the oracle's
    H = perturb(build_hamiltonian(steane7()), random_local_perturbation(7, 0.05, 2))
    assert H.checks is None
    with pytest.raises(NotDiagonal):
        gibbs_state(H, 1.0)
    rho, logZ, _ = thermal_gibbs_state(H, 1.0)
    assert rho.labels is None
    assert np.abs(rho.mat - dense_gibbs(H.mat, 1.0).mat).max() <= 1e-12
    assert abs(logZ - dense_log_partition(H.mat, 1.0)) <= 1e-12


def test_classical_gibbs_state_keeps_its_diagonal_without_reading_the_form(monkeypatch):
    checks = ising_ring(6)
    H = build_hamiltonian(checks)
    reads = []
    form = Hamiltonian.form
    spied = property(lambda self: reads.append(1) or form.fget(self))
    monkeypatch.setattr(Hamiltonian, "form", spied)
    rho, logZ, _ = gibbs_state(H, 1.3)
    assert reads == []
    p, want_logZ = gibbs_weights(H.diagonal(), 1.3)
    assert np.array_equal(rho.mat, np.diag(p.astype(np.complex128)))
    assert logZ == want_logZ
    W, q = rho.labels
    assert W is identity_basis(6) and np.array_equal(q, p)


def label_theorem_points(label):
    """Every (beta, site, flavor) channel of the css-codes pipeline on one
    code: the radius-1 split of the radius-0 barrier ball at the origin,
    betas 1 and 2."""
    checks = LABEL_GIBBS_CODES[label]()
    H = build_hamiltonian(checks)
    part = partition_from_radius(barrier_subspace(checks, (0, 0), 0, 1, H).V, 1)
    for beta in (1.0, 2.0):
        rho = gibbs_state(H, beta)[0]
        for site in range(checks.n):
            for flavor in ("X", "Z"):
                yield css_metropolis_channel(H, beta, site, flavor), rho, part


@pytest.mark.parametrize("label", LABEL_GIBBS_CODES)
def test_label_weights_match_the_dense_state(label):
    # the label-carrying rho runs the label path; the same matrix without
    # its labels runs the dense path, which computes the same quantities
    for chan, rho, part in label_theorem_points(label):
        got = verify_bottleneck_theorem(chan, rho, part)
        want = verify_bottleneck_theorem(chan, DensityMatrix(rho.mat, rho.n), part)
        assert (got.path, want.path) == ("label", "dense")
        for name in ("delta", "numerator", "denominator", "lhs"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-15)


# --- label chains: monomial locality, label evolution, partition masks


@pytest.mark.parametrize("make", [ising_ring, repetition, curie_weiss])
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_monomial_locality_matches_the_dense_support(make, beta):
    fam = make(6)
    H = build_hamiltonian(fam)
    for site in range(fam.n):
        chan = metropolis_site_channel(H, beta, site)
        form = chan.monomial
        supports = [_kraus_support(K, fam.n) for K in form.dense()]
        stacked = _monomial_supports(form.moves, form.coef, fam.n)
        rows = explicit_rows(form.moves, form.basis.dim)
        for rows, coef, got, want in zip(rows, form.coef, stacked, supports):
            assert per_form_support(rows, coef, fam.n) == want
            assert tuple(np.flatnonzero(got)) == want
        assert channel_locality(chan) == max(len(s) for s in supports)


# coefficients at zero and on either side of the support rule's 1e-9
_NEAR_TOL = [0.0, 5e-10, 2e-9]


@st.composite
def monomial_operators(draw):
    """(n, mask, coef) of one monomial operator on n <= 5 qubits: a drawn
    mask c, and coefficients that depend on a drawn subset of the bits of
    j, so that some qubits lie outside the support; then a few
    coefficients moved by 0, 5e-10 or 2e-9."""
    n = draw(st.integers(1, 5))
    return (n, *_monomial_operator(draw, n))


@st.composite
def monomial_stacks(draw):
    """(n, masks, coef) of one to five monomial_operators on one n,
    stacked as (k, 1) masks and (k, 2^n) coefficients."""
    n = draw(st.integers(1, 5))
    ops = [_monomial_operator(draw, n) for _ in range(draw(st.integers(1, 5)))]
    return n, np.array([[mask] for mask, _ in ops]), np.stack([coef for _, coef in ops])


def _monomial_operator(draw, n):
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    mask = draw(st.integers(0, dim - 1))
    values = st.sampled_from([0.0, 1.0, -0.5, 0.5j, 0.6 + 0.8j])
    table = np.array(draw(st.lists(values, min_size=dim, max_size=dim)), dtype=np.complex128)
    coef = table[idx & draw(st.integers(0, dim - 1))]
    moves = st.tuples(
        st.integers(0, dim - 1), st.sampled_from(_NEAR_TOL), st.sampled_from([1.0, -1.0, 1j])
    )
    for j, tiny, phase in draw(st.lists(moves, max_size=4)):
        coef[j] += tiny * phase
    return mask, coef


def _dense_monomial(mask, coef, n):
    idx = np.arange(1 << n)
    K = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    K[idx ^ mask, idx] = coef
    return K


@settings(max_examples=200, deadline=None, derandomize=True)
@given(op=monomial_operators())
def test_monomial_support_matches_the_dense_rule(op):
    n, mask, coef = op
    want = _kraus_support(_dense_monomial(mask, coef, n), n)
    assert per_form_support(np.arange(1 << n) ^ mask, coef, n) == want
    assert tuple(np.flatnonzero(_monomial_supports(np.array([[mask]]), coef[None], n)[0])) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=monomial_stacks())
def test_stacked_supports_match_the_dense_rule(stack):
    # forms of every kind side by side: masks with and without each bit,
    # real and complex entries, entries on either side of the tolerance
    n, masks, coef = stack
    got = _monomial_supports(masks, coef, n)
    for k in range(len(masks)):
        assert tuple(np.flatnonzero(got[k])) == _kraus_support(_dense_monomial(masks[k, 0], coef[k], n), n)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_a_moved_bit_with_entries_below_the_tolerance_is_outside_the_support(q):
    # the mask flips qubit q and the entries alternate +-0.9 SUPPORT_TOL
    # across it: every entry that changes bit q is below the tolerance, so
    # q is not in the support, though the two halves differ by 1.8 of it
    n, b = 3, 1 << (3 - 1 - q)
    sign = np.where(np.arange(8) & b, -1.0, 1.0)
    coef = 0.9 * SUPPORT_TOL * sign
    assert _kraus_support(_dense_monomial(b, coef, n), n) == ()
    assert not _monomial_supports(np.array([[b]]), coef[None], n).any()
    assert not _monomial_supports(np.array([[b]]), coef[None] + 0j, n).any()


def _first_crossing(dists, eps):
    return next((t for t, d in enumerate(dists) if d / 2 <= eps), None)


@pytest.mark.parametrize(
    "fam,beta,flavors",
    [(ising_ring(6), 2.0, None), (curie_weiss(6), 0.7, None), (steane7(), 0.7, ["X", "Z"])],
    ids=["ising_ring(6)", "curie_weiss(6)", "steane7"],
)
def test_label_distances_match_the_dense_evolution(fam, beta, flavors):
    # mixing-compare's start state, rho conditioned on a radius-0 or -1
    # label ball, evolved for 200 steps on labels and densely
    H = build_hamiltonian(fam)
    rho, _, _ = gibbs_state(H, beta)
    W, p = rho.labels
    in_A = span_distance(fam, (0, 0)) <= (1 if flavors is None else 0)
    start = DensityMatrix.from_labels(W, np.where(in_A, p, 0.0) / p[in_A].sum())
    sched = sweep_schedule(H, beta, range(fam.n), flavors=flavors)
    steps = evolve_sequence(sched, start, rho, T=200)
    assert steps.__name__ == "_label_distances"
    label = list(steps)
    dense = list(_distances(sched, start.mat, rho.mat, 200))
    assert len(label) == len(dense) == 201
    assert np.abs(np.array(label) - np.array(dense)).max() <= 1e-12
    crossing = _first_crossing(dense, 0.25)
    assert crossing is not None
    assert _first_crossing(label, 0.25) == crossing
