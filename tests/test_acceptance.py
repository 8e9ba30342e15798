"""End-to-end acceptance run for the package.

Twelve checks, one test each, covering the drift theorem in general and
local form, its classical analogue, the supporting norm lemmas, sampler
fixed points, the mixing-time lower bound, perturbative tail bounds,
the stability sweep, schedule drift, CLI determinism, the free-energy
bounds on Delta and the quasi-local channel theorem. Every test prints
a single "criterion k: PASS" line with its headline numbers (run pytest
with -s to see them); a failed assertion is the FAIL line.
"""

import json
import math
import time

import numpy as np
import pytest

from bottlenecklab import cli
from bottlenecklab.bottleneck import (
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
    apply_channel,
    channel_locality,
    evolve_sequence,
    quasi_local_mixture,
)
from bottlenecklab.markov import classical_bottleneck_report
from bottlenecklab.model import (
    REGISTRY,
    barrier_subspace,
    build_hamiltonian,
    gibbs_state,
    gibbs_weights,
    label_energies,
    perturb,
    random_ldpc,
    random_local_perturbation,
)
from bottlenecklab.numerics import DensityMatrix, maximally_mixed, trace_norm
from bottlenecklab.sampler import (
    css_metropolis_channel,
    metropolis_site_channel,
    sweep_schedule,
)
from bottlenecklab.stability import (
    shell_decomposition,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from bottlenecklab.subspace import (
    basis_state_subspace,
    boundary,
    hamming_ball_subspace,
    partition_from_radius,
)
from conftest import random_density, random_pi, random_projector, random_unitary
from oracles import (
    GlauberTable,
    birth_death_chain,
    block_labels,
    column_chain,
    enumerated_blocks,
    neighborhood,
    span_projector,
)

BETAS = (0.5, 1.0, 2.0, 3.0)


def _pass(k, detail):
    print(f"criterion {k}: PASS - {detail}")


def flip_metropolis_channel(n, masks, pi):
    """Metropolis channel over the given flip masks, fixed point diag(pi)."""
    dim = 1 << n
    q = 1.0 / (2 * len(masks))
    idx = np.arange(dim)
    stay = np.ones(dim)
    kraus = []
    for mask in masks:
        target = idx ^ mask
        accept = np.minimum(1.0, pi[target] / pi[idx])
        K = np.zeros((dim, dim))
        K[target, idx] = np.sqrt(q * accept)
        kraus.append(K)
        stay -= q * accept
    kraus.append(np.diag(np.sqrt(stay)))
    return KrausChannel(n=n, kraus=kraus)


def flip_masks(n, width):
    if width == 1:
        return [1 << i for i in range(n)]
    return [(1 << i) | (1 << ((i + 1) % n)) for i in range(n)]


# --- criterion 1: general theorem suite ------------------------------------


def test_criterion_01_general_theorem_suite():
    start = time.monotonic()
    engineered = 0
    sampler_built = 0
    worst_resid = 0.0
    worst_gap = -math.inf
    for n in (3, 4, 5):
        for width in (1, 2):
            for seed in range(4):
                rng = np.random.default_rng(1000 * n + 100 * width + seed)
                pi = random_pi(rng, 1 << n)
                chan = flip_metropolis_channel(n, flip_masks(n, width), pi)
                rho = DensityMatrix(np.diag(pi), n)
                part = partition_from_radius(hamming_ball_subspace(n, [0], 1), width)
                rep = verify_bottleneck_theorem(chan, rho, part)
                assert rep.condition_residual < 1e-9
                assert rep.lhs <= 10.0 * rep.delta + 1e-8
                diagonal_bound(rho, part.A.projector())
                diagonal_bound(rho, part.B.projector())
                worst_resid = max(worst_resid, rep.condition_residual)
                worst_gap = max(worst_gap, rep.lhs - 10.0 * rep.delta)
                engineered += 1
    families = [
        ("ising_ring(4)", REGISTRY["ising_ring"](4)),
        ("ising_ring(5)", REGISTRY["ising_ring"](5)),
        ("curie_weiss(4)", REGISTRY["curie_weiss"](4)),
        ("curie_weiss(5)", REGISTRY["curie_weiss"](5)),
        ("random_ldpc(5,3,11)", random_ldpc(5, 3, 11)),
        ("random_ldpc(5,3,12)", random_ldpc(5, 3, 12)),
    ]
    for label, checks in families:
        H = build_hamiltonian(checks)
        rho, _, _ = gibbs_state(H, 1.0)
        part = partition_from_radius(hamming_ball_subspace(checks.n, [0], 1), 1)
        for site in range(checks.n):
            chan = metropolis_site_channel(H, 1.0, site)
            rep = verify_bottleneck_theorem(chan, rho, part)
            assert rep.condition_residual < 1e-9, label
            assert rep.lhs <= 10.0 * rep.delta + 1e-8, label
            diagonal_bound(rho, part.A.projector())
            worst_resid = max(worst_resid, rep.condition_residual)
            worst_gap = max(worst_gap, rep.lhs - 10.0 * rep.delta)
            sampler_built += 1
    elapsed = time.monotonic() - start
    total = engineered + sampler_built
    assert total >= 50
    assert elapsed < 120.0
    _pass(
        1,
        f"{total} instances ({engineered} engineered 1-/2-local, "
        f"{sampler_built} sampler-built at n<=5), worst condition residual "
        f"{worst_resid:.1e}, worst lhs-10*delta gap {worst_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


# --- criterion 2: local theorem suite ---------------------------------------


def test_criterion_02_local_theorem_suite():
    start = time.monotonic()
    ring_runs = 0
    css_runs = 0
    dense_checks = 0
    worst_resid = 0.0

    # the label shells coincide with the Pauli-neighborhood split for a
    # basis-state ball; checked against the enumeration once where it fits
    # in memory, then used at sizes where the enumeration does not
    V7 = hamming_ball_subspace(7, [0], 1)
    shell_part7 = partition_from_radius(V7, 3)
    assert all(b.labels[0] is V7.labels[0] for b in (shell_part7.B1, shell_part7.B2))
    for name, P in enumerated_blocks(V7.basis, 3).items():
        dev = np.linalg.norm(P - getattr(shell_part7, name).projector())
        assert dev < 1e-8, name

    # one factory serves both ring names
    assert REGISTRY["repetition"](6).z_checks == REGISTRY["ising_ring"](6).z_checks

    for n in range(4, 11):
        H = build_hamiltonian(REGISTRY["ising_ring"](n))
        V = hamming_ball_subspace(n, [0], 1)
        part = partition_from_radius(V, 3)
        for bi, beta in enumerate(BETAS):
            rho, _, _ = gibbs_state(H, beta)
            if n == 10:
                for site in (0, 1, 5):
                    chan = metropolis_site_channel(H, beta, site)
                    assert channel_locality(chan) == 3
                    rep = verify_bottleneck_theorem(chan, rho, part)
                    assert rep.condition_residual < 1e-9
                    assert rep.lhs <= 10.0 * rep.delta + 1e-8
                    worst_resid = max(worst_resid, rep.condition_residual)
                    ring_runs += 1
            else:
                sched = sweep_schedule(H, beta, range(n))
                for chan in sched:
                    assert channel_locality(chan) == 3
                use_local = n <= 6 or (n == 7 and bi == 0)
                spec = (V, 3) if use_local else part
                rep = verify_bottleneck_theorem(sched, rho, spec)
                if use_local:
                    assert rep.mode == "local(r=3)"
                assert rep.condition_residual < 1e-9
                assert rep.lhs <= 10.0 * rep.delta * rep.steps + 1e-8
                worst_resid = max(worst_resid, rep.condition_residual)
                sigma = conditioned_state(rho, part.A)
                drift = product_drift(sched, sigma)
                if n == 6:
                    # the label forms against the dense forms, on rho's
                    # matrix without its labels
                    dense = DensityMatrix(rho.mat, n)
                    sigma_dense = conditioned_state(dense, part.A)
                    assert sigma.labels is not None and sigma_dense.labels is None
                    assert np.abs(sigma.mat - sigma_dense.mat).max() <= 1e-12
                    got = product_drift(sched, sigma_dense)
                    assert np.abs(np.subtract(got, drift)).max() <= 1e-12
                    for block in (part.A, part.B):
                        got = diagonal_bound(dense, block.projector())
                        assert np.abs(np.subtract(got, diagonal_bound(rho, block))).max() <= 1e-12
                        dense_checks += 1
                ring_runs += 1
            diagonal_bound(rho, part.A)
            diagonal_bound(rho, part.B)

    css_localities = {}
    for label in ("steane7", "toric"):
        checks = REGISTRY[label]()
        H = build_hamiltonian(checks)
        cert = barrier_subspace(checks, (0, 0), 0, 1, H)
        # one code-distance step per move; the Pauli support of a single
        # check is wider than the partition radius, so the Kraus
        # condition is verified numerically rather than by support
        part = partition_from_radius(cert.V, 1)
        locs = set()
        for beta in BETAS:
            rho, _, _ = gibbs_state(H, beta)
            for site in range(checks.n):
                for flavor in ("X", "Z"):
                    chan = css_metropolis_channel(H, beta, site, flavor)
                    locs.add(channel_locality(chan))
                    rep = verify_bottleneck_theorem(chan, rho, part)
                    assert rep.condition_residual < 1e-9
                    assert rep.lhs <= 10.0 * rep.delta + 1e-8
                    worst_resid = max(worst_resid, rep.condition_residual)
                    css_runs += 1
            diagonal_bound(rho, part.A)
        css_localities[label] = sorted(locs)

    elapsed = time.monotonic() - start
    assert dense_checks == 2 * len(BETAS)
    assert elapsed < 600.0
    _pass(
        2,
        f"{ring_runs} ring runs (n=4..10, r=3=channel locality) and "
        f"{css_runs} CSS channel runs (Kraus support sizes "
        f"{css_localities}), worst condition residual {worst_resid:.1e}, "
        f"label forms equal to the dense forms at n=6, {elapsed:.1f}s",
    )


# --- criterion 3: classical theorem suite ------------------------------------


def test_criterion_03_classical_theorem_suite():
    start = time.monotonic()
    checked = 0
    worst_gap = -math.inf
    for n in (6, 8, 10, 12):
        E = label_energies(REGISTRY["ising_ring"](n))
        part = partition_from_radius(hamming_ball_subspace(n, [0], 1), 1).labels[1]
        table = GlauberTable(E)
        for beta in (0.5, 1.0, 2.0):
            chain = table.chain(beta)
            pi, _ = gibbs_weights(E, beta)
            rep = classical_bottleneck_report(chain, part, pi=pi)
            assert rep.condition_max == 0.0
            assert rep.lhs <= rep.bound + 1e-12
            worst_gap = max(worst_gap, rep.lhs - rep.bound)
            checked += 1
    for m in (8, 16):
        for seed in range(9):
            rng = np.random.default_rng(7000 + 10 * m + seed)
            pi = random_pi(rng, m)
            M = column_chain(birth_death_chain(m, pi))
            part = block_labels((0, 1), (2,), (3,), range(4, m))
            rep = classical_bottleneck_report(M, part, pi=pi)
            assert rep.lhs <= rep.bound + 1e-12
            worst_gap = max(worst_gap, rep.lhs - rep.bound)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 30
    assert elapsed < 120.0
    _pass(
        3,
        f"{checked} instances (Glauber up to 2^12 states, birth-death up "
        f"to 16 states), worst lhs-bound gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


# --- criterion 4: norm lemma suites ------------------------------------------


def test_criterion_04_norm_lemma_suites():
    rng = np.random.default_rng(20240819)
    worst_db = -math.inf
    for _ in range(100):
        n = int(rng.integers(1, 5))
        dim = 1 << n
        rho = DensityMatrix(random_density(rng, dim), n)
        P = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        lhs, rhs = diagonal_bound(rho, P)
        assert lhs <= rhs + 1e-10
        worst_db = max(worst_db, lhs - rhs)
    worst_pn = -math.inf
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        P = random_projector(rng, dim, int(rng.integers(1, dim)))
        O = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gap = trace_norm(P @ O) - trace_norm(O)
        assert gap <= 1e-10
        worst_pn = max(worst_pn, gap)
    combos = 0
    worst_comp = 0.0
    for n in (2, 3, 4):
        for r, s in ((1, 1), (1, 2), (2, 1)):
            if r + s > n:
                continue  # no Pauli strings of weight beyond n
            rng2 = np.random.default_rng(100 * n + 10 * r + s)
            U = random_unitary(rng2, 1 << n)
            X = U[:, : int(rng2.integers(1, 3))]
            left = neighborhood(neighborhood(X, r), s)
            right = neighborhood(X, r + s)
            dev = float(np.linalg.norm(span_projector(left) - span_projector(right)))
            assert dev < 1e-7, (n, r, s)
            worst_comp = max(worst_comp, dev)
            combos += 1
    assert combos == 7
    # the label shells of labeled balls are the composed neighborhoods:
    # A + B1 spans B_r(V) and A + B1 + B2 spans B_r(B_r(V))
    steane = REGISTRY["steane7"]()
    balls = [
        (hamming_ball_subspace(n, [1], radius), r)
        for n in (2, 3, 4)
        for radius in (0, 1)
        for r in (1, 2)
    ]
    balls.append((barrier_subspace(steane, (0, 0), 0, 1, build_hamiltonian(steane)).V, 1))
    worst_shell = 0.0
    for V, r in balls:
        part = partition_from_radius(V, r)
        B_r = neighborhood(V.basis, r)
        P_r = part.A.projector() + part.B1.projector()
        for P, B in ((P_r, B_r), (P_r + part.B2.projector(), neighborhood(B_r, r))):
            dev = float(np.linalg.norm(P - span_projector(B)))
            assert dev < 1e-7, (V.n, V.dim, r)
            worst_shell = max(worst_shell, dev)
    assert len(balls) == 13
    _pass(
        4,
        f"100 random (rho,P) pairs (worst margin {worst_db:.1e}; pipeline "
        f"instances covered inside criteria 1, 2, 6), 100 projector "
        f"contraction pairs (worst margin {worst_pn:.1e}), {combos} "
        f"neighborhood compositions (worst projector deviation "
        f"{worst_comp:.1e}), {len(balls)} labeled balls whose label shells "
        f"are the composed neighborhoods (worst deviation {worst_shell:.1e})",
    )


# --- criterion 5: sampler fixed points ----------------------------------------


def test_criterion_05_sampler_fixed_points():
    start = time.monotonic()
    checked = 0
    worst = 0.0

    def check(chan, rho):
        nonlocal checked, worst
        resid = trace_norm(apply_channel(chan, rho).mat - rho.mat)
        assert resid < 1e-10
        worst = max(worst, resid)
        checked += 1

    for n in range(4, 8):
        H = build_hamiltonian(REGISTRY["ising_ring"](n))
        for beta in (0.5, 3.0):
            rho, _, _ = gibbs_state(H, beta)
            for site in range(n):
                check(metropolis_site_channel(H, beta, site), rho)
    for label, n in (("curie_weiss", 4), ("curie_weiss", 5)):
        H = build_hamiltonian(REGISTRY[label](n))
        rho, _, _ = gibbs_state(H, 1.0)
        for site in range(n):
            check(metropolis_site_channel(H, 1.0, site), rho)
    H = build_hamiltonian(random_ldpc(5, 3, 11))
    rho, _, _ = gibbs_state(H, 1.0)
    for site in range(5):
        check(metropolis_site_channel(H, 1.0, site), rho)
    for label in ("steane7", "toric"):
        H = build_hamiltonian(REGISTRY[label]())
        for beta in (0.5, 3.0):
            rho, _, _ = gibbs_state(H, beta)
            for flavor in ("X", "Z"):
                check(css_metropolis_channel(H, beta, 0, flavor), rho)
        rho, _, _ = gibbs_state(H, 1.0)
        for site in range(H.n):
            for flavor in ("X", "Z"):
                check(css_metropolis_channel(H, 1.0, site, flavor), rho)
    for n in (3, 4, 5):
        for width in (1, 2):
            rng = np.random.default_rng(5000 + 10 * n + width)
            pi = random_pi(rng, 1 << n)
            chan = flip_metropolis_channel(n, flip_masks(n, width), pi)
            check(chan, DensityMatrix(np.diag(pi), n))

    elapsed = time.monotonic() - start
    assert checked >= 100
    _pass(
        5,
        f"{checked} channels, worst fixed-point residual {worst:.1e}, "
        f"{elapsed:.1f}s",
    )


# --- criterion 6: mixing-bound consistency ------------------------------------


def test_criterion_06_mixing_bound_consistency():
    start = time.monotonic()
    H = build_hamiltonian(REGISTRY["ising_ring"](6))
    rho, _, _ = gibbs_state(H, 2.0)
    part = partition_from_radius(hamming_ball_subspace(6, [0], 1), 1)
    sched = sweep_schedule(H, 2.0, range(6))
    rep = verify_bottleneck_theorem(sched, rho, part)
    P_A = part.A.projector()
    strong, weak = mixing_time_lower_bound(rep, eps=0.25)
    p_A = float(np.real(np.trace(P_A @ rho.mat)))
    assert strong == pytest.approx((1.0 - p_A) / (5.0 * rep.delta) - 0.25, rel=1e-12)
    start_state = conditioned_state(rho, part.A)
    assert start_state.labels is not None
    assert np.abs(start_state.mat - P_A @ rho.mat @ P_A / p_A).max() <= 1e-12
    product_drift(sched, start_state)

    horizon = 500 * len(sched)
    crossings = []
    for probe in (start_state, maximally_mixed(6)):
        distances = evolve_sequence(sched, probe, rho, T=horizon)
        hit = next(
            (
                t
                for t, dist in enumerate(distances)
                if t > 0 and dist / 2 <= 0.25
            ),
            math.inf,
        )
        crossings.append(hit)
    estimate = max(crossings)
    assert estimate >= strong - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _pass(
        6,
        f"delta={rep.delta:.4f}, lower bound {strong:.2f} channel "
        f"applications, probe-set estimate {estimate} (crossings at "
        f"{crossings} of horizon {horizon}), {elapsed:.1f}s",
    )


# --- criterion 7: tail-bound suite --------------------------------------------


def test_criterion_07_tail_bound_suite():
    start = time.monotonic()
    records = 0
    instances = 0
    worst_margin = -math.inf
    vacuous = []
    for label, checks, eps1, span in (
        ("repetition(8)", REGISTRY["repetition"](8), 0.2, 0.515),
        ("random_ldpc(8,5,91)", random_ldpc(8, 5, 91), 0.05, 0.51),
    ):
        H0 = build_hamiltonian(checks)
        assert H0.w0 == 2
        for g in (0.005, 0.01, 0.02):
            eps2 = eps1 + span + 4 * g
            delta_E = (eps2 - eps1 - 4 * g) * H0.n / 2
            shells = shell_decomposition(H0, eps1, eps2, g, delta_E)
            assert shells.q_star == 1
            top_rank = len(shells.indices[-1])
            if top_rank == 0:
                vacuous.append(f"{label} g={g}")
            for vseed in (0, 1, 2):
                Vp = random_local_perturbation(8, g, vseed)
                block = verify_block_tridiagonal(Vp, shells)
                assert block.passes and block.residual < 1e-9
                H = perturb(H0, Vp)
                recs = tail_amplitudes(H, H0, shells)
                assert recs
                for rec in recs:
                    assert rec.energy < eps1 * 8
                    bound = math.exp(-rec.lambda_ * 8)
                    assert rec.amplitude <= bound + 1e-9
                    worst_margin = max(worst_margin, rec.amplitude - bound)
                    records += 1
                instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _pass(
        7,
        f"{records} low-energy eigenstates across {instances} perturbed "
        f"instances, worst amplitude-bound margin {worst_margin:.2e}, "
        f"empty top shells (vacuously bounded): {vacuous or 'none'}, "
        f"{elapsed:.1f}s",
    )


# --- criterion 8: stability trend ----------------------------------------------


def _cli_sweep(tmp_path, name, **cfg):
    """report.json rows and the one fit.json entry of a stability-sweep
    run of the CLI on cfg, which must exit 0."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["stability-sweep", "--config", str(path), "--out", str(out)]) == 0
    (fit,) = json.loads((out / "fit.json").read_text()).values()
    return json.loads((out / "report.json").read_text()), fit


def test_criterion_08_stability_trend(tmp_path):
    start = time.monotonic()
    barrier = {"center": [0, 0], "inner": 1, "boundary": 2}
    grid = {"betas": [3.0], "gs": [0.01], "ns": [4, 6, 8, 10], "seeds": [0, 1, 2]}
    rows, fit = _cli_sweep(tmp_path, "ring", model="repetition", barrier=barrier, **grid)
    assert len(rows) == 12
    for row in rows:
        if row["admissible"]:
            assert row["delta"] <= row["bound_chain"]
    # the ring grid sits outside the admissible window at these sizes
    # (its barrier constant shrinks as 1/n), so every point must carry
    # the diagnosis and the fit must refuse to assert a trend
    assert all(not row["admissible"] for row in rows)
    assert fit["status"] == "no-admissible-points"
    assert fit["admissible_ns"] == []
    assert fit["points"] == 12

    # the decay property itself, demonstrated where the barrier grows
    # with system size
    barrier = {"center": [0, 0], "inner": 1, "boundary": 1}
    grid = {"betas": [1.0], "gs": [1e-4], "ns": [4, 6, 8], "seeds": [1, 2]}
    rows2, fit2 = _cli_sweep(tmp_path, "curie", model="curie_weiss", barrier=barrier, **grid)
    assert fit2["b"] > 0
    assert fit2["r2"] > 0.9
    means = []
    for n in (4, 6, 8):
        sel = [r["delta"] for r in rows2 if r["n"] == n]
        means.append(sum(sel) / len(sel))
    assert means[0] > means[1] > means[2]
    elapsed = time.monotonic() - start
    _pass(
        8,
        f"ring grid 12/12 points diagnosed inadmissible (fit status "
        f"{fit['status']!r}, measured log-delta slope {-fit['b']:+.3f} per "
        f"site, reported not asserted); decay on curie_weiss: slope "
        f"{-fit2['b']:+.3f} per site with R2 {fit2['r2']:.3f}, {elapsed:.1f}s",
    )


# --- criterion 9: product drift on schedules ------------------------------------


def test_criterion_09_product_drift_on_schedules():
    start = time.monotonic()
    runs = 0
    homogeneous = 0
    dense_checks = 0
    worst = -math.inf
    for n in range(4, 9):
        H = build_hamiltonian(REGISTRY["ising_ring"](n))
        part = partition_from_radius(hamming_ball_subspace(n, [0], 1), 3)
        for beta in BETAS:
            rho, _, _ = gibbs_state(H, beta)
            sigma = conditioned_state(rho, part.A)
            sched = sweep_schedule(H, beta, range(n))
            delta_t, step_sum = product_drift(sched, sigma)
            assert delta_t <= step_sum + 1e-9
            worst = max(worst, delta_t - step_sum)
            runs += 1
            # repeating one channel makes every step drift equal, so the
            # telescoped sum collapses to t times the minimum step drift
            # and that stronger form can be asserted directly
            chan = sched[0]
            single, _ = product_drift([chan], sigma)
            if n <= 6:
                # the label drifts against dense steps of sigma's matrix
                dense = DensityMatrix(sigma.mat, n)
                got = product_drift(sched, dense)
                assert np.abs(np.subtract(got, (delta_t, step_sum))).max() <= 1e-12
                assert abs(trace_norm(apply_channel(chan, dense).mat - dense.mat) - single) <= 1e-12
                dense_checks += 1
            delta_t, step_sum = product_drift([chan] * 6, sigma)
            assert step_sum == pytest.approx(6 * single, abs=1e-12)
            assert delta_t <= 6 * single + 1e-9
            homogeneous += 1
    for label in ("steane7", "toric"):
        checks = REGISTRY[label]()
        H = build_hamiltonian(checks)
        cert = barrier_subspace(checks, (0, 0), 0, 1, H)
        for beta in (1.0, 3.0):
            rho, _, _ = gibbs_state(H, beta)
            for flavor in ("X", "Z"):
                sched = sweep_schedule(H, beta, range(checks.n), flavors=[flavor])
                delta_t, step_sum = product_drift(sched, conditioned_state(rho, cert.V))
                assert delta_t <= step_sum + 1e-9
                worst = max(worst, delta_t - step_sum)
                runs += 1
    elapsed = time.monotonic() - start
    assert runs >= 28
    assert dense_checks == 3 * len(BETAS)
    _pass(
        9,
        f"{runs} sweep schedules (rings n=4..8 and CSS flavors) under the "
        f"telescoped-sum bound plus {homogeneous} repeated-channel "
        f"schedules under the t*min form, worst composed-minus-bound "
        f"slack {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 10: deterministic CSV --------------------------------------------


def test_criterion_10_deterministic_csv(tmp_path):
    vq = {
        "model": "ising_ring",
        "n": 4,
        "betas": [1.0, 2.0],
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 3,
    }
    sweep = {
        "model": "repetition",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
        "betas": [3.0],
        "gs": [0.01],
        "ns": [4, 6],
        "seeds": [0],
    }
    outputs = []
    for name, sub, cfg, extra in (
        ("vq1", "verify-quantum", vq, []),
        ("vq2", "verify-quantum", vq, []),
        ("sw1", "stability-sweep", sweep, []),
        ("sw2", "stability-sweep", sweep, ["--jobs", "3"]),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out)] + extra)
        assert rc == 0
        outputs.append((out / "report.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3]
    _pass(
        10,
        f"verify-quantum rerun and stability-sweep rerun (serial vs 3 "
        f"workers) byte-identical ({len(outputs[0])} and {len(outputs[2])} "
        f"CSV bytes)",
    )


# --- criterion 11: free-energy barrier bounds -------------------------------------


def test_criterion_11_free_energy_bounds():
    start = time.monotonic()
    points = 0
    applicable = {"a": 0, "b": 0}
    worst_c = math.inf
    for label, checks in (
        ("ising_ring(6)", REGISTRY["ising_ring"](6)),
        ("repetition(8)", REGISTRY["repetition"](8)),
        ("curie_weiss(6)", REGISTRY["curie_weiss"](6)),
        ("steane7", REGISTRY["steane7"]()),
        ("toric(2)", REGISTRY["toric"]()),
    ):
        H = build_hamiltonian(checks)
        V = barrier_subspace(checks, (0, 0), 0, 1, H).V
        collar = boundary(V, 2)
        for beta in BETAS:
            rho, _, _ = gibbs_state(H, beta)
            delta, _, _ = bottleneck_ratio(rho, V, collar)
            # asserts (c) here, and (a) and (b) where they apply
            rep = free_energy_report(H, beta, V, 1, delta_measured=delta)
            # (b) is attained when rho commutes with the collar, so every
            # bound is compared with Delta up to rounding
            for value in (rep.bounds_a, rep.bounds_b, rep.bounds_c):
                assert value >= delta * (1 - 1e-12)
            applicable["a"] += rep.a_applicable
            applicable["b"] += rep.b_applicable
            worst_c = min(worst_c, rep.bounds_c - delta)
            points += 1
    elapsed = time.monotonic() - start
    assert points == 20
    _pass(
        11,
        f"{points} (model, beta) points, bound (c) held everywhere with worst "
        f"margin {worst_c:.2e}, (a) applicable at {applicable['a']} and (b) at "
        f"{applicable['b']}, {elapsed:.1f}s",
    )


# --- criterion 12: quasi-local channel theorem -------------------------------------


def test_criterion_12_quasi_local_channels():
    start = time.monotonic()
    points = 0
    worst = math.inf
    for n in (5, 6, 7):
        H = build_hamiltonian(REGISTRY["ising_ring"](n))
        dim = 1 << n
        # the global flip X^{(x)n}: n-local, and it fixes the Z2-symmetric Gibbs state
        flip = np.zeros((dim, dim))
        flip[np.arange(dim) ^ (dim - 1), np.arange(dim)] = 1.0
        tail = KrausChannel(n, [flip])
        assert channel_locality(tail) == n
        V = basis_state_subspace(n, [0])
        for beta in (1.0, 2.0, 3.0):
            rho, _, _ = gibbs_state(H, beta)
            local = metropolis_site_channel(H, beta, site=0)
            for p in (0.0, 0.01, 0.1):
                M = quasi_local_mixture(local, tail, p)
                rep = quasi_local_bound(M, rho, V)
                assert rep.lhs <= rep.combined_bound
                worst = min(worst, rep.combined_bound - rep.lhs)
                points += 1
    elapsed = time.monotonic() - start
    assert points == 27
    _pass(
        12,
        f"{points} (n, beta, p) mixtures of a site Metropolis channel with "
        f"the global flip, drift under 10 Delta + 2p with worst margin "
        f"{worst:.2f}, {elapsed:.1f}s",
    )
