"""Shell decomposition, tail bounds, the decay recursion, decay sweeps."""

import json
import math

import numpy as np
import pytest

from bottlenecklab import cli, stability

from bottlenecklab.errors import (
    BoundViolated,
    ConfigInvalid,
    ModelNotFound,
    ParametersInadmissible,
    PerturbationTooLarge,
)
from bottlenecklab.model import (
    REGISTRY,
    build_hamiltonian,
    label_energies,
    perturb,
    random_local_perturbation,
)
from bottlenecklab.stability import (
    fit_sweep,
    plan_shell_width,
    shell_decomposition,
    sweep_grid,
    sweep_model,
    sweep_point,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from oracles import dense_perturbation

H_RING6 = build_hamiltonian(REGISTRY["ising_ring"](6))
H_REP8 = build_hamiltonian(REGISTRY["repetition"](8))

RING6_SHELLS = dict(eps1=0.1, eps2=0.84, g=0.01, delta_E=2.1)


def ring6_shells():
    return shell_decomposition(H_RING6, **RING6_SHELLS)


# --- shells ------------------------------------------------------------------


def test_shell_ranks_and_boundaries():
    sh = ring6_shells()
    assert sh.q_star == 1
    assert sh.E_boundaries == (pytest.approx(2.94), pytest.approx(5.04))
    assert sh.U is None
    assert [len(idx) for idx in sh.indices] == [32, 30, 2]
    # the windows cover every eigen-index of the 64 once
    assert np.array_equal(np.sort(np.concatenate(sh.indices)), np.arange(64))


def test_shell_window_arithmetic():
    with pytest.raises(ParametersInadmissible, match="exceed w0"):
        shell_decomposition(H_RING6, 0.2, 0.6, 0.05, 2.0)
    with pytest.raises(ParametersInadmissible, match="admissible maximum"):
        shell_decomposition(H_RING6, 0.2, 0.6, 0.05, 4.2)
    with pytest.raises(ParametersInadmissible, match="positive integer"):
        shell_decomposition(H_RING6, 0.2, 0.6, 0.05, 4.0)
    with pytest.raises(ParametersInadmissible, match="eps2 > eps1"):
        shell_decomposition(H_RING6, 0.2, 0.35, 0.05, 2.5)


def test_boundaries_span_up_to_eps2():
    sh = shell_decomposition(H_RING6, 0.2, 1.2, 0.05, 2.4)
    assert sh.E_boundaries[0] == pytest.approx((1.2 + 0.2) * 6 / 2 + 2 * 0.05 * 6)
    assert sh.E_boundaries[-1] == pytest.approx(1.2 * 6)


def test_window_is_empty_without_perturbation_budget():
    for width in (1.9, 2.0, 2.0 + 1e-9, 2.4):
        with pytest.raises(ParametersInadmissible):
            shell_decomposition(H_RING6, 0.2, 1.2, 0.0, width)


def test_planner_maximizes_shell_count():
    dE = plan_shell_width(H_REP8, 0.2, 0.8, 0.02)
    assert dE == pytest.approx(2.08)
    sh = shell_decomposition(H_REP8, 0.2, 0.8, 0.02, dE)
    assert sh.q_star == 1
    with pytest.raises(ParametersInadmissible):
        plan_shell_width(H_REP8, 0.2, 0.3, 0.02)


# --- block tridiagonal --------------------------------------------------------


def test_zero_perturbation_has_no_coupling():
    V = random_local_perturbation(6, 0.0, 1)
    rep = verify_block_tridiagonal(V, ring6_shells())
    assert rep.residual == 0.0
    assert rep.passes


def test_single_site_terms_respect_the_ladder():
    V = random_local_perturbation(6, 0.05, 3)
    rep = verify_block_tridiagonal(V, ring6_shells())
    assert rep.passes


def test_wide_support_breaks_the_ladder():
    # random_local_perturbation draws single sites only; the oracle draws
    # a two-site term
    V = dense_perturbation(6, ((0, 2),), 0.05, 3)
    rep = verify_block_tridiagonal(V, ring6_shells())
    assert not rep.passes
    assert rep.residual > 1e-3
    assert rep.worst_pair == (0, 2)


# --- tail amplitudes ----------------------------------------------------------


REP8_SHELLS = shell_decomposition(H_REP8, 0.2, 0.8, 0.02, 2.08)


def rep8_perturbed(g, seed):
    V = random_local_perturbation(8, g, seed)
    return perturb(H_REP8, V)


def test_decay_rate_formula():
    records = tail_amplitudes(rep8_perturbed(0.02, 7), H_REP8, REP8_SHELLS)
    lam = (0.8 - 0.2 - 0.08) / (2 * 2.08) * math.log((0.8 - 0.2) / 0.04)
    assert records
    for rec in records:
        assert rec.lambda_ == pytest.approx(lam, abs=1e-12)
        assert rec.lemma_bound == pytest.approx(math.exp(-lam * 8), abs=1e-12)


def test_lambda_window_example():
    lam = (0.4 - 4 * 0.05) / (2 * 4.0) * math.log(0.4 / 0.1)
    assert lam == pytest.approx(0.03466, abs=1e-5)


def test_low_energy_states_have_tiny_tails():
    records = tail_amplitudes(rep8_perturbed(0.02, 7), H_REP8, REP8_SHELLS)
    assert len(records) == 2
    for rec in records:
        assert rec.energy < 0.2 * 8
        assert rec.amplitude <= rec.lemma_bound + 1e-9
        assert rec.amplitude < 1e-6


def test_unsaturated_budget_tails_vanish():
    H = rep8_perturbed(0.0, 7)
    records = tail_amplitudes(H, H_REP8, REP8_SHELLS)
    assert records
    for rec in records:
        assert rec.amplitude == pytest.approx(0.0, abs=1e-12)
        assert rec.lemma_bound > 0.0


def test_oversized_perturbation_rejected():
    H = rep8_perturbed(0.05, 7)
    with pytest.raises(PerturbationTooLarge):
        tail_amplitudes(H, H_REP8, REP8_SHELLS)


@pytest.mark.parametrize("make", ["repetition", "steane7"])
def test_perturbation_norm_is_the_largest_eigenvalue_modulus(make):
    # ||H - H0|| from eigvalsh is the largest singular value of the
    # difference, so the check passes and fails at the SVD's norm
    H0 = build_hamiltonian(REGISTRY[make](8) if make == "repetition" else REGISTRY[make]())
    for seed in range(3):
        H = perturb(H0, random_local_perturbation(H0.n, 0.01, seed))
        diff = H.mat - H0.mat
        norm = float(np.linalg.svd(diff, compute_uv=False)[0])
        assert abs(norm - 0.01 * H0.n) <= 1e-12
        stability._check_perturbation(H, H0, 0.01)
        with pytest.raises(PerturbationTooLarge):
            stability._check_perturbation(H, H0, (norm - 1e-8) / H0.n)


def _record_perturb(monkeypatch, module):
    """Route module.perturb through a recorder; returns the list of (H, V)."""
    built = []

    def recorded(H0, V):
        H = perturb(H0, V)
        built.append((H, V))
        return H

    monkeypatch.setattr(module, "perturb", recorded)
    return built


def test_sweep_point_keeps_the_perturbed_hamiltonian_real(monkeypatch):
    built = _record_perturb(monkeypatch, stability)

    def no_eigh(*args, **kwargs):
        raise AssertionError("a certified sweep point ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for n in (8, 10):
        H0, cert = sweep_model("repetition", n, ((0, 0), 1, 2))
        sweep_point("repetition", n, 3.0, 0.01, 5, H0, cert)
        H, V = built.pop()
        assert H.phases is not None and not H.is_diagonal
        # neither the complex H nor the complex V was formed, and the point
        # certified on the site forms alone: no dense form of H0, V or H
        assert H._mat is None and V._mat is None
        assert H0._form is None and V._form is None and H._form is None


def test_tail_check_point_keeps_the_perturbed_hamiltonian_real(tmp_path, monkeypatch):
    built = _record_perturb(monkeypatch, cli)
    cfg = {"model": "repetition", "n": 8, "eps1": 0.2, "eps2": 0.755, "gs": [0.01], "seeds": [4]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["tail-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    [(H, V)] = built
    assert H.phases is not None
    assert H._mat is None and V._mat is None


# --- recursion -----------------------------------------------------------------


def test_worst_case_recursion_is_geometric():
    eps1, eps2, g, n = 0.2, 0.8, 0.02, 8
    delta_E = 2.08
    q_star = 1
    lam = (eps2 - eps1 - 4 * g) / (2 * delta_E) * math.log((eps2 - eps1) / (2 * g))
    worst_factor = 2 * g / (eps2 - eps1)
    assert worst_factor**q_star == pytest.approx(math.exp(-lam * n), rel=1e-12)


# --- sweep ---------------------------------------------------------------------


def sweep(model, barrier, betas, gs, ns, seeds):
    """(rows, fits) of a sweep, its four pieces composed as the CLI's
    stability-sweep composes them, serially; the first violation raises."""
    per_n = {n: sweep_model(model, n, barrier) for n in ns}
    rows = [
        sweep_point(**task, H0=per_n[task["n"]][0], cert=per_n[task["n"]][1])
        for task in sweep_grid(model, betas, gs, ns, seeds)
    ]
    return rows, fit_sweep(rows, betas, gs)


def test_sweep_zero_g_matches_gibbs_ratio():
    rows, fits = sweep(
        "repetition", ((0, 0), 1, 2), betas=[1.0, 2.0, 3.0], gs=[0.0], ns=[6], seeds=[0]
    )
    E = label_energies(REGISTRY["repetition"](6))
    wt = np.array([bin(i).count("1") for i in range(64)])
    deltas = []
    for row in rows:
        p = np.exp(-row.beta * E)
        direct = p[(wt >= 2) & (wt <= 3)].sum() / p[wt <= 1].sum()
        assert row.delta == pytest.approx(direct, abs=1e-10)
        assert row.lambda_kappa == math.inf
        deltas.append(row.delta)
    assert deltas[0] > deltas[1] > deltas[2]


def test_sweep_extensive_barrier_decays():
    rows, fits = sweep(
        "curie_weiss", ((0, 0), 1, 1), betas=[1.0], gs=[1e-4], ns=[4, 6, 8], seeds=[1, 2]
    )
    fit = fits[(1.0, 1e-4)]
    assert fit["b"] > 0
    assert fit["r2"] > 0.9
    assert fit["status"] == "no-admissible-points"
    assert fit["admissible_ns"] == []


def test_sweep_ring_barrier_is_not_extensive():
    rows, fits = sweep(
        "repetition",
        ((0, 0), 1, 2),
        betas=[3.0],
        gs=[0.01],
        ns=[4, 6, 8, 10],
        seeds=[7, 8, 9],
    )
    fit = fits[(3.0, 0.01)]
    assert fit["b"] < 0
    assert fit["status"] == "no-admissible-points"
    assert all(not r.admissible for r in rows)
    by_n = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r.delta)
    means = [np.mean(by_n[n]) for n in sorted(by_n)]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_sweep_asserts_decay_where_the_chain_falls():
    # with g = 0 the squared chain value is e^{n (log 4 - beta (kappa/2 - eps))};
    # cond1 makes its exponent per site negative, and an extensive barrier
    # keeps kappa from shrinking with n, so it falls across the sizes
    rows, fits = sweep(
        "curie_weiss", ((0, 0), 1, 1), betas=[3.0], gs=[0.0], ns=[4, 5, 6, 7, 8], seeds=[0]
    )
    fit = fits[(3.0, 0.0)]
    assert fit["status"] == "ok"
    assert fit["admissible_ns"] == [4, 5, 6, 7, 8]
    assert fit["b"] > 0
    # the same admissible rows with delta rising in n trip the assertion
    rising = [r._replace(delta=math.exp(r.n - 20.0)) for r in rows]
    with pytest.raises(BoundViolated, match="decay slope"):
        fit_sweep(rising, [3.0], [0.0])


def test_sweep_ring_without_chain_decay_reports_the_slope():
    # the ring's barrier is 2 at every n, so kappa = 2/n and the chain value
    # rises over the admissible sizes 4..7: the negative slope is reported,
    # not asserted, and every admissible point is still checked on its own
    rows, fits = sweep(
        "repetition", ((0, 0), 1, 2), betas=[10.0], gs=[0.0], ns=list(range(4, 11)), seeds=[0]
    )
    fit = fits[(10.0, 0.0)]
    assert fit["status"] == "decay-not-implied"
    assert fit["admissible_ns"] == [4, 5, 6, 7]
    assert fit["b"] < 0
    assert set(fit) == {"points", "a", "b", "r2", "admissible_ns", "status"}
    chain = [r.bound_chain for r in rows if r.admissible]
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert all(r.delta <= r.bound_chain for r in rows if r.admissible)


def test_sweep_rows_come_in_grid_order():
    # rows are sorted by (n, beta, g, seed) whatever order the inputs list,
    # and a repeated value gives no second row
    rows, fits = sweep(
        "repetition",
        ((0, 0), 1, 2),
        betas=[3.0, 1.0],
        gs=[0.01, 0.0],
        ns=[6, 4, 6],
        seeds=[1, 0, 1],
    )
    keys = [(r.n, r.beta, r.g, r.seed) for r in rows]
    assert len(keys) == 16
    assert keys == sorted(keys)
    assert fits[(1.0, 0.0)]["points"] == 4


def test_sweep_rejects_unknown_model():
    with pytest.raises(ModelNotFound):
        sweep_model("kagome", 4, ((0, 0), 1, 1))


def test_sweep_csv_and_fit_json_are_stable(tmp_path):
    # the library rows against the CLI's report.csv and fit.json
    rows, fits = sweep(
        "repetition", ((0, 0), 1, 2), betas=[2.0], gs=[0.0], ns=[4, 6], seeds=[0]
    )
    cfg = {
        "model": "repetition",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
        "betas": [2.0],
        "gs": [0.0],
        "ns": [4, 6],
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["stability-sweep", "--config", str(path), "--out", str(out)]) == 0
        runs.append(((out / "report.csv").read_text(), (out / "fit.json").read_text()))
    csv, payload = runs[0]
    lines = csv.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert lines[0] == "model,n,beta,g,seed,kappa,eps,delta,bound_chain,admissible,lambda"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "repetition"
    assert int(first[1]) == 4
    assert first[9] == "false"
    assert float(first[7]) == rows[0].delta
    assert runs[1] == runs[0]
    assert '"beta=2.0,g=0.0"' in payload
    assert '"status": "no-admissible-points"' in payload
    # g = 0 gives an infinite decay rate, which report.json writes as a string
    assert json.loads((tmp_path / "a" / "report.json").read_text())[0]["lambda"] == "inf"


@pytest.mark.parametrize("model", ["steane7", "toric", "random_ldpc"])
def test_sweep_refuses_models_not_built_from_n(model):
    # build_model refuses n for steane7 and toric, and random_ldpc without checks
    with pytest.raises(ConfigInvalid):
        sweep_model(model, 4, ((0, 0), 1, 2))
