"""Bottleneck ratio, drift theorem, mixing lower bounds, free-energy bounds."""

import json
import re

import numpy as np
import pytest

from bottlenecklab import bottleneck, cli
from bottlenecklab.bottleneck import (
    THEOREM_SLACK,
    BottleneckReport,
    bottleneck_ratio,
    conditioned_state,
    diagonal_bound,
    free_energy_report,
    mixing_time_lower_bound,
    product_drift,
    quasi_local_bound,
    verify_bottleneck_theorem,
)
from bottlenecklab.channel import (
    KrausChannel,
    MonomialKraus,
    _trusted_channel,
    channel_locality,
    evolve_sequence,
    quasi_local_mixture,
)
from bottlenecklab.errors import (
    BadPartition,
    BetaNegative,
    BoundViolated,
    ConditionViolated,
    EmptyA,
    EmptyBoundary,
    LocalityInsufficient,
    NotFixedPoint,
)
from bottlenecklab.markov import (
    _block_sets,
    _forbidden_positions,
    classical_bottleneck_report,
    forbidden_entry,
)
from bottlenecklab.model import (
    REGISTRY,
    CheckFamily,
    barrier_subspace,
    build_hamiltonian,
    gibbs_state,
    gibbs_weights,
    label_basis,
    label_energies,
    perturb,
    random_local_perturbation,
    thermal_state,
)
from bottlenecklab.numerics import (
    EMPTY_WEIGHT_TOL,
    DensityMatrix,
    label_weights,
    maximally_mixed,
    trace_norm,
)
from bottlenecklab.sampler import css_metropolis_channel, metropolis_site_channel, sweep_schedule
from bottlenecklab.subspace import (
    HilbertPartition,
    LabelBasis,
    Subspace,
    basis_state_subspace,
    boundary,
    hamming_ball_subspace,
    identity_basis,
    partition_from_radius,
)

from conftest import random_density, random_projector, random_state
from oracles import GlauberTable, dense_copy, dense_ratio, thermal_gibbs_state

RINGS = {n: build_hamiltonian(REGISTRY["ising_ring"](n)) for n in (4, 6, 7)}
# the [[4, 2, 2]] code: its label columns are superpositions of basis states
CODE_422 = label_basis(CheckFamily(4, z_checks=((0, 1, 2, 3),), x_checks=((0, 1, 2, 3),)))


def popcount_indices(n):
    return np.array([bin(i).count("1") for i in range(1 << n)])


def gibbs_probs(H, beta):
    E = np.real(np.diag(H.mat))
    w = np.exp(-beta * E)
    return w / w.sum()


# --- ratio -----------------------------------------------------------------


def test_zero_numerator_gives_zero_delta():
    rho = maximally_mixed(2)
    P_A = basis_state_subspace(2, [0]).projector()
    P_B = np.zeros((4, 4), dtype=np.complex128)
    delta, num, den = bottleneck_ratio(rho, P_A, P_B)
    assert delta == 0.0
    assert num == 0.0
    assert den == pytest.approx(0.25, abs=1e-12)


def test_commuting_numerator_is_shell_probability(rng):
    p = rng.random(8)
    p /= p.sum()
    rho = DensityMatrix(np.diag(p).astype(np.complex128), 3)
    B = [1, 4, 6]
    P_B = np.zeros((8, 8), dtype=np.complex128)
    P_B[B, B] = 1.0
    P_A = np.eye(8, dtype=np.complex128) - P_B
    delta, num, den = bottleneck_ratio(rho, P_A, P_B)
    assert num == pytest.approx(p[B].sum(), abs=1e-12)
    assert den == pytest.approx(1.0 - p[B].sum(), abs=1e-12)


def test_ratio_matches_direct_gibbs_sums():
    H = RINGS[6]
    beta = 2.0
    rho, _, _ = gibbs_state(H, beta)
    V = hamming_ball_subspace(6, [0], 1)
    shell = boundary(V, 2)
    delta, num, den = bottleneck_ratio(rho, V.projector(), shell.projector())
    p = gibbs_probs(H, beta)
    wt = popcount_indices(6)
    num_direct = p[(wt == 2) | (wt == 3)].sum()
    den_direct = p[wt <= 1].sum()
    assert num == pytest.approx(num_direct, abs=1e-9)
    assert den == pytest.approx(den_direct, abs=1e-9)
    assert delta == pytest.approx(num_direct / den_direct, abs=1e-9)


def _ratio_inputs(rng):
    dim = 16
    cases = []
    rho = DensityMatrix(random_density(rng, dim), 4)
    owner = rng.integers(0, 3, dim)
    cases.append((rho, Subspace(CODE_422, owner == 0), Subspace(CODE_422, owner == 1)))
    cases.append((rho, basis_state_subspace(4, [0, 5]), basis_state_subspace(4, [1, 2, 9])))
    cases.append((rho, Subspace(CODE_422, owner < 2), Subspace(CODE_422, np.zeros(dim, dtype=bool))))
    for n in (4, 6):
        checks = REGISTRY["repetition"](n)
        H0 = build_hamiltonian(checks)
        H = perturb(H0, random_local_perturbation(n, 0.05, seed=n))
        cert = barrier_subspace(checks, (0, 0), 1, 2, H0)
        cases.append((thermal_gibbs_state(H, 2.0)[0], cert.V, cert.boundary))
    checks = REGISTRY["steane7"]()
    H0 = build_hamiltonian(checks)
    cert = barrier_subspace(checks, (0, 0), 0, 1, H0)
    cases.append((gibbs_state(H0, 1.0)[0], cert.V, cert.boundary))
    return cases


def test_ratio_on_subspaces_matches_projector_arrays(rng):
    for rho, A, B in _ratio_inputs(rng):
        got = bottleneck_ratio(rho, A, B)
        want = bottleneck_ratio(rho, A.projector(), B.projector())
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        # the projector-array form against the plain definition
        P_A, P_B = A.projector(), B.projector()
        num = np.linalg.svd(P_B @ rho.mat, compute_uv=False).sum()
        den = np.real(np.trace(P_A @ rho.mat))
        assert want[1] == pytest.approx(num, rel=1e-12, abs=1e-12)
        assert want[2] == pytest.approx(den, rel=1e-12, abs=1e-12)


def test_thermal_state_with_eigenvectors_takes_identity_blocks_only(rng):
    # the rows of U on a block over the identity basis are X^dag D U up to
    # the unit phases of those rows; a projector array or a block over
    # another basis has no such rows. With U None, projector arrays work
    n = 4
    checks = REGISTRY["repetition"](n)
    H0 = build_hamiltonian(checks)
    H = perturb(H0, random_local_perturbation(n, 0.05, seed=n))
    cert = barrier_subspace(checks, (0, 0), 1, 2, H0)
    state = thermal_state(H, 2.0)
    assert state.U is not None
    got = bottleneck_ratio(state, cert.V, cert.boundary)
    want = dense_ratio(H, 2.0, cert.V.projector(), cert.boundary.projector())
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-10, abs=1e-14)
    for P_A in (cert.V.projector(), Subspace(CODE_422, rng.random(1 << n) < 0.5)):
        with pytest.raises(BadPartition):
            bottleneck_ratio(state, P_A, cert.boundary)
    diagonal = thermal_state(H0, 2.0)
    assert diagonal.U is None
    got = bottleneck_ratio(diagonal, cert.V.projector(), cert.boundary.projector())
    want = bottleneck_ratio(gibbs_state(H0, 2.0)[0], cert.V, cert.boundary)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_empty_A_raises():
    rho = DensityMatrix(np.diag([0, 0, 0, 1.0]).astype(np.complex128), 2)
    P_A = basis_state_subspace(2, [0]).projector()
    with pytest.raises(EmptyA):
        bottleneck_ratio(rho, P_A, np.eye(4) - P_A)


def test_empty_A_threshold_is_shared_by_the_classical_and_label_paths():
    # the ring's Neel state 0101 as A at beta 7: pi(A) is about 3e-13,
    # between 1e-14 and EMPTY_WEIGHT_TOL, and both paths refuse the cut
    beta = 7.0
    H = RINGS[4]
    E = label_energies(REGISTRY["ising_ring"](4))
    pi, _ = gibbs_weights(E, beta)
    quantum = partition_from_radius(hamming_ball_subspace(4, [0b0101], 0), 1)
    label = quantum.labels[1]
    assert 1e-14 < pi[label == 0].sum() <= EMPTY_WEIGHT_TOL
    with pytest.raises(EmptyA, match="pi\\(A\\)"):
        classical_bottleneck_report(GlauberTable(E).chain(beta), label, pi)
    rho, _, _ = gibbs_state(H, beta)
    sched = sweep_schedule(H, beta, range(4))
    assert label_weights(rho, quantum.labels[0])[quantum.A.labels[1]].sum() == pi[5]
    with pytest.raises(EmptyA, match="pi\\(A\\)"):
        verify_bottleneck_theorem(sched, rho, quantum)


# --- theorem ---------------------------------------------------------------


def dephasing_channel(n, site):
    dim = 1 << n
    z = np.ones(dim)
    for i in range(dim):
        if (i >> (n - 1 - site)) & 1:
            z[i] = -1.0
    half = np.sqrt(0.5)
    return KrausChannel(
        n, [half * np.eye(dim, dtype=np.complex128), half * np.diag(z).astype(np.complex128)]
    )


def test_dephasing_has_zero_drift_in_local_mode():
    chan = dephasing_channel(3, 1)
    assert channel_locality(chan) == 1
    rho = maximally_mixed(3)
    V = basis_state_subspace(3, [0])
    rep = verify_bottleneck_theorem(chan, rho, (V, 1))
    assert rep.mode == "local(r=1)"
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.delta == pytest.approx(6.0, abs=1e-10)
    assert rep.condition_residual < 1e-12


def test_local_mode_rejects_radius_below_locality():
    chan = dephasing_channel(3, 1)
    V = basis_state_subspace(3, [0])
    with pytest.raises(LocalityInsufficient):
        verify_bottleneck_theorem(chan, maximally_mixed(3), (V, 0))


def test_non_fixed_point_rejected():
    dim = 4
    X_high = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        X_high[i ^ 2, i] = 1.0
    half = np.sqrt(0.5)
    chan = KrausChannel(2, [half * np.eye(dim, dtype=np.complex128), half * X_high])
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(np.complex128), 2)
    V = basis_state_subspace(2, [0])
    with pytest.raises(NotFixedPoint):
        verify_bottleneck_theorem(chan, rho, (V, 1))


def test_condition_violation_detected_in_general_mode():
    dim = 4
    X_high = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        X_high[i ^ 2, i] = 1.0
    half = np.sqrt(0.5)
    chan = KrausChannel(2, [half * np.eye(dim, dtype=np.complex128), half * X_high])
    part = HilbertPartition(identity_basis(2), [0, 1, 2, 3])
    with pytest.raises(ConditionViolated):
        verify_bottleneck_theorem(chan, maximally_mixed(2), part)


def test_metropolis_ring_delta_shrinks_with_beta():
    H = RINGS[7]
    V = basis_state_subspace(7, [0])
    deltas = []
    for beta in (0.5, 1.0, 2.0):
        rho, _, _ = gibbs_state(H, beta)
        chan = metropolis_site_channel(H, beta, site=0)
        rep = verify_bottleneck_theorem(chan, rho, (V, 3))
        assert rep.mode == "local(r=3)"
        assert rep.lhs <= rep.bound + 1e-8
        assert rep.condition_residual < 1e-12
        deltas.append(rep.delta)
    assert deltas[0] > deltas[1] > deltas[2]


def test_schedule_bound_scales_with_step_count():
    H = RINGS[4]
    beta = 3.0
    rho, _, _ = gibbs_state(H, beta)
    sched = sweep_schedule(H, beta, sites=range(4))
    part = partition_from_radius(hamming_ball_subspace(4, [0], 1), 1)
    rep = verify_bottleneck_theorem(sched, rho, part)
    assert rep.steps == 4
    assert rep.bound == pytest.approx(40.0 * rep.delta, abs=1e-12)
    assert rep.lhs <= rep.bound + 1e-8
    single = verify_bottleneck_theorem(sched[0], rho, part)
    assert single.delta == pytest.approx(rep.delta, abs=1e-12)
    assert single.bound == pytest.approx(rep.bound / 4, abs=1e-12)


def test_toric_eigenbasis_pipeline():
    checks = REGISTRY["toric"]()
    H = build_hamiltonian(checks)
    cert = barrier_subspace(checks, (0, 0), 0, 1, H)
    part = partition_from_radius(cert.V, 1)
    assert (part.A.dim, part.B1.dim, part.B2.dim, part.C.dim) == (1, 20, 104, 131)
    beta = 1.5
    rho, _, _ = gibbs_state(H, beta)
    from bottlenecklab.sampler import css_metropolis_channel

    chan = css_metropolis_channel(H, beta, site=0, flavor="X")
    rep = verify_bottleneck_theorem(chan, rho, part)
    assert rep.mode == "general"
    assert rep.condition_residual < 1e-12
    assert rep.lhs <= rep.bound + 1e-8
    assert rep.delta > 0


# --- diagonal bound --------------------------------------------------------


def test_diagonal_bound_tight_for_pure_states(rng):
    psi = random_state(rng, 8)
    rho = DensityMatrix(np.outer(psi, psi.conj()), 3)
    P = random_projector(rng, 8, 3)
    lhs, rhs = diagonal_bound(rho, P)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_diagonal_bound_random_states(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        dim = 1 << n
        rho = DensityMatrix(random_density(rng, dim), n)
        k = int(rng.integers(1, dim + 1))
        P = random_projector(rng, dim, k)
        lhs, rhs = diagonal_bound(rho, P)
        assert lhs <= rhs + 1e-10


# --- mixing time -----------------------------------------------------------


def craft_report(delta, numerator, denominator, prob_C):
    return BottleneckReport(
        delta=delta,
        numerator=numerator,
        denominator=denominator,
        lhs=0.0,
        bound=10 * delta,
        condition_residual=0.0,
        tmix_lower=0.0,
        mode="general",
        prob_B=numerator,
        prob_C=prob_C,
    )


def test_mixing_lower_bound_formulas():
    rep = craft_report(delta=0.1, numerator=0.02, denominator=0.2, prob_C=0.5)
    strong, weak = mixing_time_lower_bound(rep, 0.25)
    assert strong == pytest.approx((1 - 0.2) / 0.5 - 0.25, abs=1e-12)
    assert weak == pytest.approx(0.2 * 0.5 / 0.1 - 0.25, abs=1e-12)
    halved = craft_report(delta=0.05, numerator=0.02, denominator=0.2, prob_C=0.5)
    strong2, _ = mixing_time_lower_bound(halved, 0.25)
    assert strong2 + 0.25 == pytest.approx(2 * (strong + 0.25), abs=1e-12)


def test_zero_delta_reports_infinite_mixing_time():
    rep = craft_report(delta=0.0, numerator=0.0, denominator=1.0, prob_C=0.0)
    strong, weak = mixing_time_lower_bound(rep, 0.25)
    assert strong == np.inf
    assert weak == np.inf


def test_trapped_start_stays_far_for_the_guaranteed_window():
    H = RINGS[4]
    beta = 3.0
    rho, _, _ = gibbs_state(H, beta)
    sched = sweep_schedule(H, beta, sites=range(4))
    part = partition_from_radius(hamming_ball_subspace(4, [0], 1), 1)
    rep = verify_bottleneck_theorem(sched, rho, part)
    P_A = part.A.projector()
    strong, weak = mixing_time_lower_bound(rep, 0.25)
    assert strong == rep.tmix_lower
    assert strong > 4
    assert weak > 4
    rho_A = P_A @ rho.mat @ P_A
    rho_A /= np.real(np.trace(rho_A))
    T = int(strong) + 2
    distances = list(evolve_sequence(sched, DensityMatrix(rho_A, 4), rho, T=T))
    for t in range(1, int(strong) + 1):
        assert distances[t] / 2 > 0.25


# --- product drift ---------------------------------------------------------


def test_product_drift_telescopes():
    H = RINGS[4]
    beta = 1.0
    sched = sweep_schedule(H, beta, sites=range(4))
    sigma = DensityMatrix(np.diag([1.0] + [0.0] * 15).astype(np.complex128), 4)
    delta_t, step_sum = product_drift(sched, sigma)
    assert delta_t <= step_sum + 1e-9
    singles = []
    for chan in sched:
        out = np.zeros((16, 16), dtype=np.complex128)
        for K in chan.kraus:
            out += K @ sigma.mat @ K.conj().T
        singles.append(trace_norm(out - sigma.mat))
    assert step_sum == pytest.approx(sum(singles), abs=1e-12)
    # the ring is site-symmetric, so every step drifts |0000> equally
    # and the sum collapses to t times the single drift
    assert step_sum == pytest.approx(4 * singles[0], abs=1e-12)


def test_product_drift_repeated_channel_is_t_times_single():
    H = RINGS[4]
    chan = metropolis_site_channel(H, 1.0, 0)
    sigma = DensityMatrix(np.diag([1.0] + [0.0] * 15).astype(np.complex128), 4)
    single, _ = product_drift([chan], sigma)
    delta_t, step_sum = product_drift([chan] * 5, sigma)
    assert step_sum == pytest.approx(5 * single, abs=1e-12)
    assert delta_t <= 5 * single + 1e-9


# --- free energy -----------------------------------------------------------


def test_free_energy_infinite_temperature_limit():
    H = RINGS[4]
    V = hamming_ball_subspace(4, [0], 1)
    rep = free_energy_report(H, 1e-3, V, 1, delta_measured=0.0)
    shell = boundary(V, 2)
    assert rep.bounds_b == pytest.approx(shell.dim / V.dim, rel=0.02)


def test_free_energy_commuting_bound_is_probability_ratio():
    H = RINGS[6]
    beta = 1.2
    rho, _, _ = gibbs_state(H, beta)
    V = hamming_ball_subspace(6, [0], 1)
    shell = boundary(V, 2)
    delta, num, den = bottleneck_ratio(rho, V.projector(), shell.projector())
    rep = free_energy_report(H, beta, V, 1, delta_measured=delta)
    assert rep.b_applicable
    p_shell = float(np.real(np.trace(shell.projector() @ rho.mat)))
    p_V = float(np.real(np.trace(V.projector() @ rho.mat)))
    assert rep.bounds_b == pytest.approx(p_shell / p_V, abs=1e-10)
    assert rep.bounds_b == pytest.approx(delta, abs=1e-10)


def test_free_energy_bounds_dominate_measured_delta():
    H = RINGS[6]
    beta = 2.0
    rho, logZ, _ = gibbs_state(H, beta)
    V = hamming_ball_subspace(6, [0], 1)
    shell = boundary(V, 2)
    delta, _, _ = bottleneck_ratio(rho, V.projector(), shell.projector())
    rep = free_energy_report(H, beta, V, 1, delta_measured=delta)
    assert logZ > 0
    assert rep.a_applicable
    assert rep.bounds_a >= delta - 1e-8
    assert rep.bounds_b >= delta - 1e-8
    assert rep.bounds_c >= delta - 1e-8
    assert rep.F_V <= rep.F_boundary


def test_free_energy_quantum_code():
    checks = REGISTRY["steane7"]()
    H = build_hamiltonian(checks)
    cert = barrier_subspace(checks, (0, 0), 0, 1, H)
    beta = 1.0
    rho, logZ, _ = gibbs_state(H, beta)
    shell = boundary(cert.V, 2)
    delta, _, _ = bottleneck_ratio(rho, cert.V.projector(), shell.projector())
    rep = free_energy_report(H, beta, cert.V, 1, delta_measured=delta)
    assert rep.b_applicable
    assert rep.bounds_b == pytest.approx(delta, abs=1e-10)
    assert rep.F_total == pytest.approx(-logZ / beta, abs=1e-12)
    assert rep.F_V == pytest.approx(0.0, abs=1e-10)
    assert rep.E_min_V == pytest.approx(0.0, abs=1e-10)


def test_free_energy_input_validation():
    H = RINGS[4]
    V = hamming_ball_subspace(4, [0], 1)
    with pytest.raises(BetaNegative):
        free_energy_report(H, 0.0, V, 1)
    with pytest.raises(BetaNegative):
        free_energy_report(H, -1.0, V, 1)
    full = hamming_ball_subspace(4, [0], 4)
    with pytest.raises(EmptyBoundary):
        free_energy_report(H, 1.0, full, 1)


# --- quasi-local -----------------------------------------------------------


def test_quasi_local_mixture_bound():
    H = RINGS[7]
    beta = 2.0
    rho, _, _ = gibbs_state(H, beta)
    local = metropolis_site_channel(H, beta, site=0)
    tail = KrausChannel(7, [np.eye(128, dtype=np.complex128)])
    M = quasi_local_mixture(local, tail, 0.3)
    V = basis_state_subspace(7, [0])
    rep = quasi_local_bound(M, rho, V)
    assert rep.best_radius == 3
    delta_s, f_s, total = rep.terms[3]
    assert f_s == pytest.approx(0.6, abs=1e-12)
    assert total == pytest.approx(10 * delta_s + 0.6, abs=1e-12)
    assert rep.lhs <= rep.combined_bound + 1e-8
    assert rep.lhs <= 0.7 * rep.combined_bound


def test_quasi_local_requires_certificate():
    chan = dephasing_channel(3, 0)
    with pytest.raises(LocalityInsufficient):
        quasi_local_bound(chan, maximally_mixed(3), basis_state_subspace(3, [0]))


# --- reporting: verify-quantum rows in cli's columns -----------------------


def crafted_quantum_row(tmp_path, monkeypatch, cfg):
    """report.csv fields and the report.json row of a one-beta
    verify-quantum run whose theorem check returns a crafted report."""
    rep = craft_report(delta=0.125, numerator=0.25, denominator=2.0, prob_C=0.5)
    monkeypatch.setattr(cli, "verify_bottleneck_theorem", lambda *a, **k: rep)
    base = {"betas": [2.0], "subspace": {"centers": [0], "radius": 1}, "partition_radius": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **cfg}))
    out = tmp_path / "out"
    assert cli.main(["verify-quantum", "--config", str(path), "--out", str(out)]) == 0
    header, line = (out / "report.csv").read_text().splitlines()
    assert header == ",".join(cli.QUANTUM_COLUMNS)
    return line.split(","), json.loads((out / "report.json").read_text())[0]


def test_csv_row_has_stable_columns(tmp_path, monkeypatch):
    fields, _ = crafted_quantum_row(tmp_path, monkeypatch, {"model": "ising_ring", "n": 6})
    columns = cli.QUANTUM_COLUMNS
    assert len(fields) == len(columns)
    assert fields[0] == repr(0.125)
    assert fields[columns.index("model")] == "ising_ring"
    assert float(fields[columns.index("beta")]) == 2.0


def test_json_report_keys(tmp_path, monkeypatch):
    _, out = crafted_quantum_row(tmp_path, monkeypatch, {"model": "toric", "flavors": ["X"]})
    assert out["delta"] == 0.125
    assert out["mode"] == "general"
    assert out["model"] == "toric"
    assert out["n"] == 8
    assert set(out) >= {"delta", "numerator", "denominator", "lhs", "bound"}
    # a report.json row carries exactly the report.csv columns
    assert set(out) == set(cli.QUANTUM_COLUMNS)
    assert out["g"] == 0.0


# --- label path against the dense oracle -----------------------------------

REPORT_FIELDS = (
    "delta",
    "numerator",
    "denominator",
    "lhs",
    "bound",
    "prob_B",
    "prob_C",
    "condition_residual",
)
ORACLE_BETAS = (0.5, 1.0, 2.0)


def assert_label_path_matches_dense(channels, oracle, rho, spec):
    rep = verify_bottleneck_theorem(channels, rho, spec)
    ref = verify_bottleneck_theorem(oracle, rho, spec)
    assert (rep.path, ref.path) == ("label", "dense")
    assert (rep.mode, rep.steps) == (ref.mode, ref.steps)
    for name in REPORT_FIELDS:
        got, want = getattr(rep, name), getattr(ref, name)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, got, want)
    return rep


def check_schedule_against_oracle(sched, rho, spec):
    """Every entry on its own, then the whole schedule, on both paths."""
    oracle = [dense_copy(chan) for chan in sched]
    for chan, dense in zip(sched, oracle):
        assert_label_path_matches_dense(chan, dense, rho, spec)
    assert_label_path_matches_dense(sched, oracle, rho, spec)


def css_ball_partition(checks, H):
    cert = barrier_subspace(checks, (0, 0), 0, 1, H)
    return partition_from_radius(cert.V, 1)


@pytest.mark.parametrize("label", ["steane7", "toric"])
def test_css_label_path_matches_dense_oracle(label):
    checks = REGISTRY[label]()
    H = build_hamiltonian(checks)
    part = css_ball_partition(checks, H)
    for beta in ORACLE_BETAS:
        rho, _, _ = gibbs_state(H, beta)
        sched = sweep_schedule(H, beta, range(checks.n), flavors=("X", "Z"))
        check_schedule_against_oracle(sched, rho, part)


CLASSICAL_ORACLES = {
    "ising_ring(8)": REGISTRY["ising_ring"](8),
    "repetition(6)": REGISTRY["repetition"](6),
    "curie_weiss(6)": REGISTRY["curie_weiss"](6),
    "random_ldpc(7,5,3)": REGISTRY["random_ldpc"](7, 5, 3),
}


@pytest.mark.parametrize("label", sorted(CLASSICAL_ORACLES))
def test_classical_label_path_matches_dense_oracle(label):
    checks = CLASSICAL_ORACLES[label]
    H = build_hamiltonian(checks)
    part = partition_from_radius(hamming_ball_subspace(checks.n, [0], 1), 1)
    for beta in ORACLE_BETAS:
        rho, _, _ = gibbs_state(H, beta)
        check_schedule_against_oracle(sweep_schedule(H, beta, range(checks.n)), rho, part)


@pytest.mark.parametrize("label", ["steane7", "toric"])
def test_positions_kept_on_a_partition_match_a_fresh_search(rng, label):
    # the label path keeps the forbidden positions of each distinct moves
    # array, and the drift's block sets, on the partition: both betas of a
    # (site, flavor) share one entry, and every entry is the fresh search's;
    # on random block labels the positions are not empty, and each chain's
    # condition is the fresh check's
    checks = REGISTRY[label]()
    H = build_hamiltonian(checks)
    W = label_basis(checks)
    ball = css_ball_partition(checks, H)
    scrambled = HilbertPartition(W, rng.integers(0, 4, W.dim))
    chains = {}
    for beta in (1.0, 2.0):
        rho, _, _ = gibbs_state(H, beta)
        for site in range(checks.n):
            for flavor in ("X", "Z"):
                chan = css_metropolis_channel(H, beta, site, flavor)
                verify_bottleneck_theorem(chan, rho, ball)
                sm = chains[beta, site, flavor] = chan.monomial.chain
                top, offending = forbidden_entry(sm, scrambled.labels[1])
                with pytest.raises(ConditionViolated, match=re.escape(f"{top:.3e} at {offending}")):
                    bottleneck._label_measures([sm], label_weights(rho, W), scrambled)
                assert sm.moves is chains[1.0, site, flavor].moves
    for part in (ball, scrambled):
        kept = {key[2]: v for key, v in part._kept.items() if key[0] is bottleneck._kept_positions}
        assert set(kept) == {sm.moves.tobytes() for sm in chains.values()}
        assert len(kept) <= 2 * checks.n
        for sm in chains.values():
            for got, want in zip(kept[sm.moves.tobytes()], _forbidden_positions(sm.moves, part.labels[1])):
                assert np.array_equal(got, want) and not got.flags.writeable
        assert any(cols.size for cols, _ in kept.values()) == (part is scrambled)
    for got, want in zip(ball.kept(bottleneck._kept_sets), _block_sets(ball.labels[1])):
        assert np.array_equal(got, want)


def test_local_mode_runs_on_the_label_path():
    H = build_hamiltonian(REGISTRY["ising_ring"](8))
    V = hamming_ball_subspace(8, [0], 1)
    rho, _, _ = gibbs_state(H, 1.0)
    sched = sweep_schedule(H, 1.0, range(8))
    rep = assert_label_path_matches_dense(sched, [dense_copy(c) for c in sched], rho, (V, 3))
    assert rep.mode == "local(r=3)"


@pytest.mark.parametrize("path", ["label", "dense"])
def test_drift_past_the_bound_raises_with_its_numbers(monkeypatch, path):
    # measures whose drift exceeds 10 Delta per step: the theorem's own
    # assertion must fire, and its data must carry lhs, bound and delta
    H = RINGS[6]
    V = hamming_ball_subspace(6, [0], 1)
    rho, _, _ = gibbs_state(H, 1.0)
    sched = sweep_schedule(H, 1.0, range(2))
    channels = sched if path == "label" else [dense_copy(c) for c in sched]
    want = verify_bottleneck_theorem(channels, rho, (V, 3))
    assert want.path == path
    name = f"_{path}_measures"
    measures = getattr(bottleneck, name)

    def inflated(*args):
        worst, delta, numerator, denominator, lhs, prob_B, prob_C = measures(*args)
        lhs = 10.0 * delta * len(sched) + 1e-6
        return worst, delta, numerator, denominator, lhs, prob_B, prob_C

    monkeypatch.setattr(bottleneck, name, inflated)
    with pytest.raises(BoundViolated, match="exceeds 10\\*Delta bound") as info:
        verify_bottleneck_theorem(channels, rho, (V, 3))
    data = info.value.data
    assert set(data) == {"lhs", "bound", "delta"}
    assert data["delta"] == want.delta > 0
    assert data["bound"] == 10.0 * data["delta"] * 2
    assert data["lhs"] > data["bound"] + THEOREM_SLACK


def label_members(basis, block):
    """Labels spanning a block, read off a dense W."""
    if block.dim == 0:
        return np.zeros(0, dtype=int)
    norms = np.linalg.norm(basis.dense().conj().T @ block.basis, axis=1)
    return np.flatnonzero(norms > 0.5)


def forbidden_mask_channel(basis, part, weight):
    """Identity plus one XOR mask that sends an A label into C.

    The mask permutes the labels, so it fixes the maximally mixed state,
    the fixed-point check passes, and the Kraus condition is what must
    catch the A -> C step.
    """
    a, c = (label_members(basis, blk)[0] for blk in (part.A, part.C))
    coef = np.sqrt(np.array([[1.0 - weight], [weight]])) * np.ones(basis.dim)
    return _trusted_channel(basis, np.array([[0], [a ^ c]]), coef, coef**2)


def _refuse_dense(self):
    raise AssertionError("the label path built dense Kraus operators")


@pytest.mark.parametrize("weight", [0.5, 1e-13, 1e-20])
@pytest.mark.parametrize("label", ["toric", "ising_ring"])
def test_forbidden_a_to_c_entry_caught_on_label_path(monkeypatch, label, weight):
    # the label path demands an exact zero; the dense path accepts a block
    # norm below 1e-9, and weight 1e-20 has norm 1e-10
    if label == "toric":
        checks = REGISTRY["toric"]()
        part = css_ball_partition(checks, build_hamiltonian(checks))
    else:
        checks = REGISTRY["ising_ring"](6)
        part = partition_from_radius(hamming_ball_subspace(6, [0], 1), 1)
    W = label_basis(checks)
    chan = forbidden_mask_channel(W, part, weight)
    oracle = dense_copy(chan)
    rho = DensityMatrix.from_labels(W, np.full(W.dim, 1.0 / W.dim))
    monkeypatch.setattr(MonomialKraus, "dense", _refuse_dense)
    with pytest.raises(ConditionViolated, match="forbidden weight"):
        verify_bottleneck_theorem(chan, rho, part)
    if weight > 1e-18:
        with pytest.raises(ConditionViolated):
            verify_bottleneck_theorem(oracle, maximally_mixed(checks.n), part)
    else:
        rep = verify_bottleneck_theorem(oracle, maximally_mixed(checks.n), part)
        assert 0.0 < rep.condition_residual < 1e-9


def test_perturbed_gibbs_state_takes_the_dense_path():
    checks = REGISTRY["toric"]()
    H0 = build_hamiltonian(checks)
    part = css_ball_partition(checks, H0)
    W = label_basis(checks)
    V = random_local_perturbation(8, 0.05, seed=1)
    rho, _, _ = thermal_gibbs_state(perturb(H0, V), 1.0)
    dense = W.dense()
    M = dense.conj().T @ rho.mat @ dense
    assert np.abs(M - np.diag(np.diag(M))).max() > 1e-4
    one = np.ones((1, 256))
    identity = _trusted_channel(W, np.zeros((1, 1), dtype=np.int64), one, one)
    rep = verify_bottleneck_theorem(identity, rho, part)
    ref = verify_bottleneck_theorem(KrausChannel(8, [np.eye(256)]), rho, part)
    assert rep.path == ref.path == "dense"
    for name in REPORT_FIELDS:
        assert abs(getattr(rep, name) - getattr(ref, name)) <= 1e-12, name


def test_label_channels_against_basis_state_blocks_take_the_dense_path():
    # a Hamming ball of basis states is not a set of CSS labels, so the
    # label path does not apply (the CLI balls its labels instead)
    checks = REGISTRY["steane7"]()
    H = build_hamiltonian(checks)
    rho, _, _ = gibbs_state(H, 1.0)
    part = partition_from_radius(hamming_ball_subspace(7, [0], 1), 1)
    chan = css_metropolis_channel(H, 1.0, 2, "X")
    rep = verify_bottleneck_theorem(chan, rho, part)
    ref = verify_bottleneck_theorem(dense_copy(chan), rho, part)
    assert rep.path == ref.path == "dense"
    for name in REPORT_FIELDS:
        assert getattr(rep, name) == getattr(ref, name), name


# --- label forms of the lemma helpers ---------------------------------------


def _label_case(model, n, beta):
    """(rho, schedule, partition) of a label Gibbs state: a ring about the
    radius-1 Hamming ball at partition radius 1, or steane7 about its
    code-space label at radius 1 with an X and Z sweep."""
    checks = REGISTRY[model](n) if model == "ising_ring" else REGISTRY[model]()
    H = build_hamiltonian(checks)
    rho, _, _ = gibbs_state(H, beta)
    if model == "ising_ring":
        V, flavors = hamming_ball_subspace(n, [0], 1), None
    else:
        V, flavors = barrier_subspace(checks, (0, 0), 0, 1, H).V, ["X", "Z"]
    return rho, sweep_schedule(H, beta, range(checks.n), flavors=flavors), partition_from_radius(V, 1)


@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("model,n", [("ising_ring", 4), ("ising_ring", 6), ("steane7", 7)])
def test_label_forms_of_the_lemma_helpers_match_the_dense_forms(model, n, beta):
    # each helper on a label Gibbs state against the same helper on its
    # matrix with no labels, with projector arrays where it takes them
    rho, sched, part = _label_case(model, n, beta)
    dense = DensityMatrix(rho.mat, n)
    assert rho.labels is not None and dense.labels is None
    sigma, sigma_dense = conditioned_state(rho, part.A), conditioned_state(dense, part.A)
    assert sigma.labels is not None and sigma_dense.labels is None
    assert np.abs(sigma.mat - sigma_dense.mat).max() <= 1e-12
    for got, want in (
        (product_drift(sched, sigma), product_drift(sched, sigma_dense)),
        (product_drift(sched[:1], sigma), product_drift(sched[:1], sigma_dense)),
        (diagonal_bound(rho, part.A), diagonal_bound(dense, part.A.projector())),
        (diagonal_bound(rho, part.B), diagonal_bound(dense, part.B.projector())),
        (bottleneck_ratio(rho, part.A, part.B), bottleneck_ratio(dense, part.A.projector(), part.B.projector())),
    ):
        assert np.abs(np.subtract(got, want)).max() <= 1e-12
    # B is the union of B1 and B2
    assert np.abs(part.B.projector() - part.B1.projector() - part.B2.projector()).max() <= 1e-12


def test_lemma_helpers_form_no_matrix_of_a_label_state(monkeypatch):
    # on the n = 10 ring, every helper reads the labels alone
    H = build_hamiltonian(REGISTRY["ising_ring"](10))
    rho, _, _ = gibbs_state(H, 1.0)
    part = partition_from_radius(hamming_ball_subspace(10, [0], 1), 3)
    sched = sweep_schedule(H, 1.0, range(10))

    def refused(*args):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(LabelBasis, "outer", refused)
    monkeypatch.setattr(Subspace, "projector", refused)
    sigma = conditioned_state(rho, part.A)
    assert sigma.labels is not None
    delta_t, step_sum = product_drift(sched, sigma)
    assert 0.0 < delta_t <= step_sum
    for block in (part.A, part.B, part.C):
        lhs, rhs = diagonal_bound(rho, block)
        assert lhs <= rhs
    delta, numerator, denominator = bottleneck_ratio(rho, part.A, part.B)
    assert delta == numerator / denominator > 0
