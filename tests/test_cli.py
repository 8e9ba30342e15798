"""End-to-end runs of the console entry point on desk-sized configs."""

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import bottlenecklab
from bottlenecklab import bottleneck, channel, cli, numerics, sampler, stability, subspace
from bottlenecklab.channel import MonomialKraus
from bottlenecklab.bottleneck import conditioned_state, verify_bottleneck_theorem
from bottlenecklab.cli import QUANTUM_COLUMNS, main
from bottlenecklab.errors import BoundViolated
from bottlenecklab.markov import (
    _GLAUBER_MAX_BITS,
    StochasticMatrix,
    classical_bottleneck_report,
)
from bottlenecklab.model import (
    MODEL_KEYS,
    REGISTRY,
    build_hamiltonian,
    gibbs_state,
    gibbs_weights,
    label_basis,
    label_energies,
)
from bottlenecklab.numerics import DensityMatrix
from bottlenecklab.sampler import sweep_schedule
from bottlenecklab.stability import shell_decomposition
from oracles import (
    exact_glauber_drift,
    explicit_rows,
    glauber_flow,
    hamming_shell_labels,
    per_beta_glauber,
)

VQ_BASE = {
    "model": "ising_ring",
    "n": 4,
    "betas": [1.0],
    "subspace": {"centers": [0], "radius": 1},
    "partition_radius": 3,
}


def run(subcommand, cfg, tmp_path, out_name="out", jobs=None):
    cfg_path = tmp_path / f"{out_name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / out_name
    argv = [subcommand, "--config", str(cfg_path), "--out", str(out)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return main(argv), out


def read_rows(out):
    header, *rows = (out / "report.csv").read_text().splitlines()
    return header, [r.split(",") for r in rows]


def test_verify_quantum_single_row(tmp_path):
    code, out = run("verify-quantum", VQ_BASE, tmp_path)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ",".join(QUANTUM_COLUMNS)
    assert len(rows) == 1
    assert rows[0][11] == "local(r=3)"
    assert float(rows[0][3]) <= float(rows[0][4]) + 1e-8
    assert json.loads((out / "failures.json").read_text()) == []
    payload = json.loads((out / "report.json").read_text())
    assert payload[0]["model"] == "ising_ring"
    assert payload[0]["beta"] == 1.0


def test_verify_quantum_past_the_enumeration_cap(tmp_path):
    # a basis-state ball takes the Hamming shells; the test oracle's
    # enumeration of weight-3 strings for the doubled neighborhood at n=9
    # would exceed its entry cap
    cfg = dict(VQ_BASE, n=9, sites=[0])
    code, out = run("verify-quantum", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0][11] == "local(r=3)"
    assert float(rows[0][3]) <= float(rows[0][4]) + 1e-8


def test_rerun_is_byte_identical(tmp_path):
    _, first = run("verify-quantum", VQ_BASE, tmp_path, "a")
    _, second = run("verify-quantum", VQ_BASE, tmp_path, "b")
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


GRID_CONFIGS = {
    "verify-classical": {
        "model": "ising_ring",
        "n": 6,
        "betas": [0.5, 1.0, 2.0],
        "partition": {"center": 0, "inner": 1, "width": 1},
    },
    "verify-quantum": dict(VQ_BASE, betas=[0.5, 1.0, 2.0]),
    "barrier-scan": {"model": "curie_weiss", "n": 6, "center": 0, "inner": 1, "radii": [1, 2, 3]},
    "tail-check": {
        "model": "repetition",
        "n": 8,
        "eps1": 0.2,
        "eps2": 0.755,
        "gs": [0.01],
        "seeds": [7, 8],
    },
    "stability-sweep": {
        "model": "curie_weiss",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 1},
        "betas": [1.0],
        "gs": [1e-4],
        "ns": [4, 6],
        "seeds": [1, 2],
    },
    "mixing-compare": {
        "model": "ising_ring",
        "n": 4,
        "beta": 3.0,
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 1,
        "horizon": 12,
    },
}


GRID_COLUMNS = {
    "verify-classical": cli.CLASSICAL_COLUMNS,
    "verify-quantum": cli.QUANTUM_COLUMNS,
    "barrier-scan": cli.BARRIER_COLUMNS,
    "tail-check": cli.TAIL_COLUMNS,
    "stability-sweep": cli.SWEEP_COLUMNS,
    "mixing-compare": cli.MIXING_COLUMNS,
}


def test_worker_count_does_not_change_bytes(tmp_path):
    # every grid subcommand; stability-sweep's grid runs on the same pool
    assert set(GRID_COLUMNS) == set(GRID_CONFIGS)
    for subcommand, cfg in GRID_CONFIGS.items():
        code1, serial = run(subcommand, cfg, tmp_path, f"{subcommand}-serial")
        code2, pooled = run(subcommand, cfg, tmp_path, f"{subcommand}-pooled", jobs=3)
        code3, two = run(subcommand, cfg, tmp_path, f"{subcommand}-two", jobs=2)
        assert code1 == code2 == code3 == 0, subcommand
        # both reports carry exactly the declared columns, the CSV in order
        columns = GRID_COLUMNS[subcommand]
        assert read_rows(serial)[0] == ",".join(columns), subcommand
        payload = json.loads((serial / "report.json").read_text())
        assert payload
        assert all(set(row) == set(columns) for row in payload), subcommand
        names = ["report.csv", "report.json", "failures.json"]
        if subcommand == "stability-sweep":
            names.append("fit.json")
        for name in names:
            ref = (serial / name).read_bytes()
            assert (pooled / name).read_bytes() == ref, (subcommand, name)
            assert (two / name).read_bytes() == ref, (subcommand, name)


def test_worker_count_does_not_change_bytes_on_the_series_route(tmp_path, monkeypatch):
    # GRID_CONFIGS' sweep points take the eigensolve; these n = 8 points
    # at beta 3 certify on the Chebyshev series, whose GEMMs then run in
    # the grid's worker threads
    cfg = {
        "model": "repetition",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
        "betas": [3.0],
        "gs": [0.01],
        "ns": [8],
        "seeds": [1, 2],
    }
    certified = []
    real_ratio = stability.site_form_ratio

    def spied(*args):
        got = real_ratio(*args)
        certified.append(got is not None)
        return got

    monkeypatch.setattr(stability, "site_form_ratio", spied)
    outs = []
    for jobs in (1, 2, 3):
        code, out = run("stability-sweep", cfg, tmp_path, f"jobs{jobs}", jobs=jobs)
        assert code == 0
        outs.append(out)
    assert certified == [True] * 6
    for name in ("report.csv", "report.json", "failures.json", "fit.json"):
        ref = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == ref for out in outs[1:]), name


def test_classical_rows_stay_under_bound(tmp_path):
    cfg = {
        "model": "ising_ring",
        "n": 6,
        "betas": [0.5, 1.0, 2.0],
        "partition": {"center": 0, "inner": 1, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 3
    for row in rows:
        lhs, bound = float(row[4]), float(row[5])
        assert lhs <= bound + 1e-12
        assert float(row[9]) == 0.0


@pytest.mark.parametrize(
    "model,n,betas",
    [("ising_ring", 9, [0.0, 1.0]), ("curie_weiss", 9, [1.0]), ("ising_ring", 13, [1.0])],
)
def test_verify_classical_edge_chains(tmp_path, model, n, betas):
    # n=9 has states whose every flip is accepted; n=13 is past the old
    # 4096-state cap of the dense builder
    cfg = {
        "model": model,
        "n": n,
        "betas": betas,
        "partition": {"center": 0, "inner": 1, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    _, rows = read_rows(out)
    assert len(rows) == len(betas)
    for row in rows:
        assert float(row[4]) <= float(row[5]) + 1e-12


def test_verify_classical_low_temperature(tmp_path):
    # gaps far below 1e-9, which an eigensolve for the stationary law
    # cannot tell from a second eigenvalue 1
    cfg = {
        "model": "ising_ring",
        "n": 10,
        "betas": [10.0, 15.0, 30.0],
        "partition": {"center": 0, "inner": 1, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    _, rows = read_rows(out)
    assert [float(row[2]) for row in rows] == cfg["betas"]
    for row in rows:
        assert float(row[4]) <= float(row[5]) + 1e-12


def test_verify_classical_frozen_ring_row_is_vacuous(tmp_path):
    # at beta 400 every uphill acceptance of the n=10 ring underflows to 0
    # in float64, but the exact chain is irreducible at every finite beta,
    # so the point runs the flow. Its lhs and bound underflow too: the row
    # is 0.0 <= 0.0, vacuous in float64
    cfg = dict(GRID_CONFIGS["verify-classical"], n=10, betas=[1.0, 400.0])
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    _, rows = read_rows(out)
    assert [float(row[2]) for row in rows] == [1.0, 400.0]
    assert 0.0 < float(rows[0][4]) <= float(rows[0][5])
    assert (float(rows[1][4]), float(rows[1][5])) == (0.0, 0.0)


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("verify-classical solved an eigenproblem")


def test_verify_classical_runs_without_an_eigensolver(tmp_path, monkeypatch):
    # n = 6 was a dense eig and n = 11 an ARPACK run before the Gibbs law
    import numpy as np
    from scipy.sparse import linalg as sparse_linalg

    monkeypatch.setattr(sparse_linalg, "eigs", _no_eigensolve)
    monkeypatch.setattr(np.linalg, "eig", _no_eigensolve)
    for n in (6, 11):
        cfg = dict(GRID_CONFIGS["verify-classical"], n=n)
        code, out = run("verify-classical", cfg, tmp_path, f"n{n}")
        assert code == 0, n
        assert json.loads((out / "failures.json").read_text()) == []


@pytest.mark.parametrize(
    "subcommand,cfg",
    [
        (
            "verify-classical",
            {
                "model": "ising_ring",
                "n": 4,
                "betas": [1.0],
                "partition": {"center": 16, "inner": 1, "width": 1},
            },
        ),
        ("verify-quantum", dict(VQ_BASE, subspace={"centers": [0, 16], "radius": 1})),
        (
            "mixing-compare",
            {
                "model": "ising_ring",
                "n": 4,
                "beta": 1.0,
                "subspace": {"centers": [99], "radius": 1},
                "partition_radius": 1,
                "horizon": 10,
            },
        ),
    ],
)
def test_center_outside_register_rejected(tmp_path, subcommand, cfg):
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    failures = json.loads((out / "failures.json").read_text())
    assert failures[0]["reason"] == "ConfigInvalid"
    assert "register" in failures[0]["message"]
    assert not (out / "report.csv").exists()


def test_negative_beta_rejected_before_compute(tmp_path):
    cfg = dict(VQ_BASE, betas=[-1.0])
    code, out = run("verify-quantum", cfg, tmp_path)
    assert code == 2
    failures = json.loads((out / "failures.json").read_text())
    assert failures[0]["reason"] == "ConfigInvalid"
    assert not (out / "report.csv").exists()


def test_unknown_model_and_unknown_key(tmp_path):
    code, out = run("verify-quantum", dict(VQ_BASE, model="kagome"), tmp_path, "m")
    assert code == 2
    assert json.loads((out / "failures.json").read_text())[0]["reason"] == "ModelNotFound"
    code, out = run("verify-quantum", dict(VQ_BASE, betaz=[1.0]), tmp_path, "k")
    assert code == 2
    msg = json.loads((out / "failures.json").read_text())[0]["message"]
    assert "betaz" in msg


def test_jobs_below_one_rejected(tmp_path):
    code, out = run("verify-quantum", VQ_BASE, tmp_path, jobs=0)
    assert code == 2
    failure = json.loads((out / "failures.json").read_text())[0]
    assert failure["reason"] == "ConfigInvalid"
    assert "jobs must be >= 1" in failure["message"]


def test_missing_config_file(tmp_path):
    out = tmp_path / "out"
    code = main(["model-info", "--config", str(tmp_path / "no.json"), "--out", str(out)])
    assert code == 2


def test_barrier_scan_rows(tmp_path):
    cfg = {"model": "curie_weiss", "n": 6, "center": 0, "inner": 1, "radii": [1, 2, 3]}
    code, out = run("barrier-scan", cfg, tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    dims = [int(r[7]) for r in rows]
    assert dims == sorted(dims) and dims[0] < dims[-1]
    for row in rows:
        assert float(row[10]) == pytest.approx(8 / 6)


def test_tail_check_diagnoses_inadmissible_points(tmp_path):
    cfg = {
        "model": "repetition",
        "n": 8,
        "eps1": 0.2,
        "eps2": 0.8,
        "gs": [0.01, 0.02],
        "seeds": [7],
    }
    code, out = run("tail-check", cfg, tmp_path)
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert len(failures) == 1
    assert failures[0]["reason"] == "ParametersInadmissible"
    assert failures[0]["point"]["g"] == 0.01
    _, rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row[9]) <= float(row[10]) + 1e-9


def test_tail_check_builds_shells_once_per_point(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shell_decomposition(*args, **kwargs)

    # both the CLI and the stability module's own name are counted
    monkeypatch.setattr(cli, "shell_decomposition", counted)
    monkeypatch.setattr(stability, "shell_decomposition", counted)
    # g = 0.02 leaves no admissible shell width: no shells, and one
    # failure entry for each of its points
    cfg = {
        "model": "repetition",
        "n": 8,
        "eps1": 0.2,
        "eps2": 0.755,
        "gs": [0.01, 0.02],
        "seeds": [0, 1, 2],
    }
    code, out = run("tail-check", cfg, tmp_path)
    assert code == 1
    assert len(calls) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["point"] for f in failures] == [
        {"model": "repetition", "g": 0.02, "seed": s} for s in (0, 1, 2)
    ]
    assert {f["reason"] for f in failures} == {"ParametersInadmissible"}
    assert sorted({row[5] for row in read_rows(out)[1]}) == ["0", "1", "2"]


def test_tail_check_on_a_css_code_takes_the_dense_routes(tmp_path, monkeypatch):
    # a CSS H0 is not diagonal, so perturb sums dense complex matrices and
    # the eigensolve, the shell blocks and the ||H - H0|| check read them
    forms = []

    def spied(H0, V):
        H = stability.perturb(H0, V)
        forms.append(H.form)
        return H

    monkeypatch.setattr(cli, "perturb", spied)
    cfg = {"model": "steane7", "eps1": 0.1, "eps2": 2.1, "gs": [0.05], "seeds": [0, 1]}
    code, out = run("tail-check", cfg, tmp_path)
    assert code == 0
    assert len(forms) == 2 and all(np.iscomplexobj(M) for M in forms)
    _, rows = read_rows(out)
    assert sorted({row[5] for row in rows}) == ["0", "1"]
    for row in rows:
        assert float(row[9]) <= float(row[10]) + 1e-9
        assert float(row[12]) < 1e-9


def _spy_on_theorem_paths(monkeypatch):
    """The path of every theorem check the CLI makes, in call order."""
    paths = []

    def spied(*args, **kwargs):
        rep = verify_bottleneck_theorem(*args, **kwargs)
        paths.append(rep.path)
        return rep

    monkeypatch.setattr(cli, "verify_bottleneck_theorem", spied)
    return paths


def test_verify_quantum_on_a_css_code_runs_the_label_verifier(tmp_path, monkeypatch):
    # the ball of labels about (0, 0) shares the CSS basis of the Gibbs
    # state and the channels, so the point runs on labels
    paths = _spy_on_theorem_paths(monkeypatch)
    cfg = {
        "model": "steane7",
        "betas": [1.0],
        "flavors": ["X"],
        "sites": [0],
        "subspace": {"centers": [0], "radius": 0},
        "partition_radius": 4,
    }
    code, out = run("verify-quantum", cfg, tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 1 and paths == ["label"]
    assert float(rows[0][3]) <= float(rows[0][4])
    # a Steane channel on site 0 reaches past a radius-3 collar
    code, out = run("verify-quantum", dict(cfg, partition_radius=3), tmp_path, "r3")
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["reason"] for f in failures] == ["LocalityInsufficient"]


def test_stability_sweep_ring_without_chain_decay_exits_zero(tmp_path):
    # sizes 4..7 are admissible at beta 10, but the ring's barrier is 2 at
    # every n, so the proof chain does not imply decay: the rising slope is
    # reported with its status instead of failing the run
    cfg = {
        "model": "repetition",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
        "betas": [10.0],
        "gs": [0.0],
        "ns": [4, 5, 6, 7, 8, 9, 10],
        "seeds": [0],
    }
    code, out = run("stability-sweep", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    fit = json.loads((out / "fit.json").read_text())["beta=10.0,g=0.0"]
    assert fit["status"] == "decay-not-implied"
    assert fit["admissible_ns"] == [4, 5, 6, 7]
    assert fit["points"] == 7
    assert fit["b"] < 0


def test_mixing_compare_respects_lower_bound(tmp_path):
    cfg = {
        "model": "ising_ring",
        "n": 4,
        "beta": 3.0,
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 1,
        "horizon": 12,
    }
    code, out = run("mixing-compare", cfg, tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    strong = float(rows[0][6])
    assert strong > 4.0
    assert rows[0][8] == "inf"
    payload = json.loads((out / "report.json").read_text())
    assert payload[0]["tmix_observed"] == "inf"


@pytest.mark.parametrize("horizon,mixes", [(12, False), (2000, True)])
def test_mixing_compare_stops_at_first_crossing(tmp_path, monkeypatch, horizon, mixes):
    # the reported step is the first crossing of the full-horizon run,
    # and no step past it is evolved
    seen = {}

    def recording(channels, rho0, rho_ref, T):
        full = list(channel.evolve_sequence(channels, rho0, rho_ref, T=T))
        seen["full"] = full
        seen["read"] = 0
        for dist in channel.evolve_sequence(channels, rho0, rho_ref, T=T):
            seen["read"] += 1
            yield dist

    monkeypatch.setattr(cli, "evolve_sequence", recording)
    cfg = {
        "model": "ising_ring",
        "n": 4,
        "beta": 3.0,
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 1,
        "horizon": horizon,
    }
    code, out = run("mixing-compare", cfg, tmp_path)
    assert code == 0
    eps = float(read_rows(out)[1][0][10])
    first = next(
        (t for t, d in enumerate(seen["full"]) if d / 2 <= eps), float("inf")
    )
    observed = json.loads((out / "report.json").read_text())[0]["tmix_observed"]
    assert len(seen["full"]) == horizon + 1
    if mixes:
        assert observed == float(first)
        assert seen["read"] == first + 1 < horizon
    else:
        assert first == float("inf")
        assert observed == "inf"
        assert seen["read"] == horizon + 1


def test_mixing_compare_at_low_temperature_meets_its_lower_bound(tmp_path):
    # a slow ring: the strong lower bound is above one step, and the first
    # crossing, thousands of steps later, is checked against it
    cfg = {
        "model": "ising_ring",
        "n": 8,
        "beta": 4.0,
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 3,
        "horizon": 10**4,
    }
    code, out = run("mixing-compare", cfg, tmp_path)
    assert code == 0
    row = json.loads((out / "report.json").read_text())[0]
    assert round(row["tmix_strong"], 2) == 6.01
    assert row["tmix_strong"] >= 1.0
    assert row["tmix_observed"] == 6204.0
    assert row["tmix_observed"] >= row["tmix_strong"]


def test_ring_runs_stay_on_labels(tmp_path, monkeypatch):
    # verify-quantum and mixing-compare on a classical ring: the channels,
    # the Gibbs state and the partition blocks are all labels over the
    # identity basis, so no step forms a dense operator, state or block
    # basis, and none takes a trace norm, an eigensolve or an SVD
    names = ["dense", "projector", "trace_norm", "eigvalsh", "svd", "mat", "basis"]
    counts = dict.fromkeys(names, 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(MonomialKraus, "dense", spy("dense", MonomialKraus.dense))
    monkeypatch.setattr(subspace.Subspace, "projector", spy("projector", subspace.Subspace.projector))
    for module in vars(bottlenecklab).values():
        if getattr(module, "trace_norm", None) is numerics.trace_norm:
            monkeypatch.setattr(module, "trace_norm", spy("trace_norm", numerics.trace_norm))
    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    monkeypatch.setattr(DensityMatrix, "mat", property(spy("mat", DensityMatrix.mat.fget)))
    monkeypatch.setattr(
        subspace.Subspace, "basis", property(spy("basis", subspace.Subspace.basis.func))
    )
    base = {"model": "ising_ring", "n": 6, "subspace": {"centers": [0], "radius": 1}}
    vq = dict(base, betas=[0.5, 1.0, 2.0, 3.0], partition_radius=3)
    mc = dict(base, beta=2.0, partition_radius=1, horizon=3000)
    assert run("verify-quantum", vq, tmp_path, "vq")[0] == 0
    code, out = run("mixing-compare", mc, tmp_path, "mc")
    assert code == 0
    assert json.loads((out / "report.json").read_text())[0]["tmix_observed"] != "inf"
    assert counts == dict.fromkeys(names, 0)


def test_ring_verify_quantum_builds_its_tables_once_per_run(tmp_path, monkeypatch):
    # four betas of one run share the partition of the ball and the move
    # table of every site, and read the schedule's locality once per beta
    calls = {"shells": [], "tables": [], "locality": []}

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(subspace, "_label_shells", spy("shells", subspace._label_shells))
    monkeypatch.setattr(sampler, "_site_moves", spy("tables", sampler._site_moves))
    monkeypatch.setattr(bottleneck, "channel_locality", spy("locality", bottleneck.channel_locality))
    cfg = dict(VQ_BASE, n=6, betas=[0.5, 1.0, 2.0, 3.0])
    assert run("verify-quantum", cfg, tmp_path)[0] == 0
    assert len(calls["shells"]) == 1
    assert sorted(site for _, sites in calls["tables"] for site in sites) == list(range(6))
    assert len(calls["locality"]) == 4
    assert all(len(sched) == 6 for (sched,) in calls["locality"])


@pytest.mark.parametrize("n", [14, 16])
def test_quantum_delta_matches_the_classical_ratio_past_the_dense_oracle(tmp_path, n):
    # one cut through two pipelines that share no code for the ratio: a
    # radius-1 ball with 3-shells on the quantum label path and (inner 1,
    # width 3) on the classical chain; Delta depends only on the Gibbs
    # law and the blocks
    betas = [1.0, 3.0]
    vq = {"model": "ising_ring", "n": n, "betas": betas, "partition_radius": 3}
    vq["subspace"] = {"centers": [0], "radius": 1}
    vc = {"model": "ising_ring", "n": n, "betas": betas}
    vc["partition"] = {"center": 0, "inner": 1, "width": 3}
    code, out_q = run("verify-quantum", vq, tmp_path, "vq")
    assert code == 0
    code, out_c = run("verify-classical", vc, tmp_path, "vc")
    assert code == 0
    quantum = json.loads((out_q / "report.json").read_text())
    classical = json.loads((out_c / "report.json").read_text())
    assert [r["beta"] for r in quantum] == [r["beta"] for r in classical] == betas
    for q, c in zip(quantum, classical):
        assert q["delta"] == pytest.approx(c["pi_B"] / c["pi_A"], rel=1e-12, abs=0)


def test_model_info_summary(tmp_path):
    cfg = {
        "model": "steane7",
        "beta": 1.0,
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 1},
    }
    code, out = run("model-info", cfg, tmp_path)
    assert code == 0
    info = json.loads((out / "report.json").read_text())
    assert info["n"] == 7
    assert not info["classical"]
    assert info["ground_degeneracy"] == 2
    # the syndrome energies are exact: no eigensolve rounds them
    assert (info["ground_energy"], info["max_energy"]) == (0.0, 6.0)
    assert info["barrier"]["kappa"] == pytest.approx(1 / 7)
    assert info["log_Z"] == pytest.approx(-info["free_energy"])
    code, out = run("model-info", {"model": "toric", "L": 2}, tmp_path, out_name="toric")
    assert code == 0
    info = json.loads((out / "report.json").read_text())
    assert (info["n"], info["ground_degeneracy"]) == (8, 4)
    assert (info["ground_energy"], info["max_energy"]) == (0.0, 8.0)


def test_model_info_expansion(tmp_path):
    cfg = {"model": "repetition", "n": 6, "expansion_delta": 0.5}
    code, out = run("model-info", cfg, tmp_path)
    assert code == 0
    info = json.loads((out / "report.json").read_text())
    assert info["expansion_gamma"] == pytest.approx(2 / 3)
    assert sum(info["expansion_witness"]) == 3


def test_dependent_x_checks_count_once_against_the_span_cap(tmp_path):
    # 21 copies of one X check span two elements, not 2^21
    path = tmp_path / "copies.txt"
    path.write_text("n: 4\n" + "X: 0 1\n" * 21 + "Z: 0 1\n")
    code, out = run("model-info", {"checks_file": str(path)}, tmp_path)
    assert code == 0
    info = json.loads((out / "report.json").read_text())
    assert (info["x_checks"], info["z_checks"], info["dim"]) == (21, 1, 16)
    assert json.loads((out / "failures.json").read_text()) == []


def test_out_naming_a_file_rejected(tmp_path, monkeypatch, capsys):
    built = _spy_on_builds(monkeypatch, through=False)
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MODEL_INFO_CFG))
    assert main(["model-info", "--config", str(cfg), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected: cannot make output directory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert target.read_text() == "not a directory\n"
    assert built == []


def test_checks_file_source(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("n: 3\nZ: 0 1\nZ: 1 2\nZ: 0 2\n")
    cfg = {
        "checks_file": str(path),
        "betas": [1.0],
        "partition": {"center": 0, "inner": 0, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    assert rows[0][0] == "triangle"


def _refuse(*args, **kwargs):
    raise AssertionError("a matrix was built for a config that should be rejected")


def assert_config_rejected(out, word):
    failures = json.loads((out / "failures.json").read_text())
    assert len(failures) == 1
    assert failures[0]["reason"] == "ConfigInvalid"
    assert word in failures[0]["message"]
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("subcommand", ["verify-quantum", "mixing-compare"])
def test_css_model_without_flavors_rejected_up_front(tmp_path, monkeypatch, subcommand):
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    cfg = {
        "model": "steane7",
        "subspace": {"centers": [0], "radius": 1},
        "partition_radius": 1,
    }
    if subcommand == "verify-quantum":
        cfg["betas"] = [1.0]
    else:
        cfg.update(beta=1.0, horizon=10)
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "flavors")


@pytest.mark.parametrize(
    "subcommand,cfg",
    [
        ("barrier-scan", {"model": "ising_ring", "n": 4, "center": 99, "inner": 0, "radii": [1]}),
        ("barrier-scan", {"model": "ising_ring", "n": 4, "center": [0, 99], "inner": 0, "radii": [1]}),
        (
            "model-info",
            {"model": "ising_ring", "n": 4, "barrier": {"center": 99, "inner": 0, "boundary": 1}},
        ),
    ],
)
def test_barrier_center_outside_register_rejected(tmp_path, monkeypatch, subcommand, cfg):
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "register")


SWEEP_BASE = {
    "model": "repetition",
    "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
    "betas": [1.0],
    "gs": [0.0],
    "ns": [4],
    "seeds": [0],
}


@pytest.mark.parametrize("model", ["steane7", "toric", "random_ldpc"])
def test_stability_sweep_model_not_built_from_n_rejected(tmp_path, monkeypatch, model):
    monkeypatch.setattr(cli, "sweep_model", _refuse)
    code, out = run("stability-sweep", dict(SWEEP_BASE, model=model), tmp_path)
    assert code == 2
    assert_config_rejected(out, "not built from n")


@pytest.mark.parametrize(
    "center,ns",
    [([99, 0], [4]), ([0, 99], [4]), (16, [6, 4]), ([0, 100], [8, 6])],
)
def test_stability_sweep_center_outside_smallest_register_rejected(tmp_path, monkeypatch, center, ns):
    monkeypatch.setattr(cli, "sweep_model", _refuse)
    cfg = dict(SWEEP_BASE, ns=ns, barrier=dict(SWEEP_BASE["barrier"], center=center))
    code, out = run("stability-sweep", cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "register")


@pytest.mark.parametrize(
    "subcommand,cfg",
    [
        (
            "stability-sweep",
            dict(SWEEP_BASE, barrier={"center": [0, 0], "inner": 2, "boundary": 3}),
        ),
        (
            "stability-sweep",
            dict(SWEEP_BASE, ns=[8, 4], barrier={"center": [0, 0], "inner": 1, "boundary": 4}),
        ),
        (
            "model-info",
            {"model": "repetition", "n": 4, "barrier": {"center": 0, "inner": 2, "boundary": 3}},
        ),
        (
            "barrier-scan",
            {"model": "ising_ring", "n": 4, "center": 0, "inner": 1, "radii": [1, 4]},
        ),
    ],
)
def test_barrier_past_the_register_rejected(tmp_path, monkeypatch, subcommand, cfg):
    # inner + boundary above n leaves the boundary shell empty
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    monkeypatch.setattr(cli, "sweep_model", _refuse)
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "register")


def test_barrier_filling_the_register_runs(tmp_path):
    # inner + boundary = n is the largest barrier with a non-empty shell
    cfg = {"model": "repetition", "n": 4, "barrier": {"center": 0, "inner": 1, "boundary": 3}}
    code, out = run("model-info", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "report.json").read_text())["barrier"]["dim_boundary"] == 11
    code, out = run("stability-sweep", dict(SWEEP_BASE, barrier=cfg["barrier"]), tmp_path, "sweep")
    assert code == 0


def test_stability_sweep_counts_repeated_values_once(tmp_path):
    code, out = run("stability-sweep", dict(SWEEP_BASE, ns=[4, 4]), tmp_path)
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    fits = json.loads((out / "fit.json").read_text())
    assert fits["beta=1.0,g=0.0"]["points"] == 1


def test_stability_sweep_records_point_failures(tmp_path, monkeypatch):
    cfg = dict(SWEEP_BASE, ns=[4, 6], seeds=[0, 1])
    _, whole = run("stability-sweep", cfg, tmp_path, "whole")
    bad = {"model": "repetition", "n": 6, "beta": 1.0, "g": 0.0, "seed": 1}
    point = cli.sweep_point

    def failing(**task):
        if {k: task[k] for k in bad} == bad:
            raise BoundViolated("injected", delta=1.0)
        return point(**task)

    monkeypatch.setattr(cli, "sweep_point", failing)
    code, out = run("stability-sweep", cfg, tmp_path, "broken")
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert len(failures) == 1
    assert failures[0]["reason"] == "BoundViolated"
    assert failures[0]["point"] == bad
    _, all_rows = read_rows(whole)
    _, rows = read_rows(out)
    assert len(all_rows) == 4
    assert rows == [r for r in all_rows if (r[1], r[4]) != ("6", "1")]
    payload = json.loads((out / "report.json").read_text())
    assert [(row["n"], row["seed"]) for row in payload] == [(4, 0), (4, 1), (6, 0)]
    assert (out / "fit.json").exists()


def test_stability_sweep_slope_violation_is_a_run_failure(tmp_path, monkeypatch):
    def violated(rows, betas, gs):
        raise BoundViolated("decay slope -0.1 not positive", slope=-0.1)

    monkeypatch.setattr(cli, "fit_sweep", violated)
    code, out = run("stability-sweep", SWEEP_BASE, tmp_path)
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert len(failures) == 1
    assert failures[0]["reason"] == "BoundViolated"
    assert "point" not in failures[0]
    assert failures[0]["data"] == {"slope": -0.1}
    assert len(read_rows(out)[1]) == 1
    assert not (out / "fit.json").exists()


MC_STEANE = {
    "model": "steane7",
    "flavors": ["X"],
    "beta": 1.0,
    "horizon": 10,
    "subspace": {"centers": [0], "radius": 1},
    "partition_radius": 1,
}


@pytest.mark.parametrize(
    "subcommand,cfg,key",
    [
        ("verify-quantum", dict(VQ_BASE, sites=[0, 99]), "sites[1]"),
        ("mixing-compare", dict(MC_STEANE, sites=[7]), "sites[0]"),
        ("verify-quantum", dict(VQ_BASE, partition_radius=7), "partition_radius"),
    ],
)
def test_quantum_config_past_the_register_rejected(tmp_path, monkeypatch, subcommand, cfg, key):
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, key)


SHOR9 = "n: 9\nZ: 0 1\nZ: 1 2\nZ: 3 4\nZ: 4 5\nZ: 6 7\nZ: 7 8\nX: 0 1 2 3 4 5\nX: 3 4 5 6 7 8\n"
VQ_STEANE = {key: MC_STEANE[key] for key in ("model", "flavors", "subspace", "partition_radius")}


@pytest.mark.parametrize(
    "subcommand,cfg,key,at,word",
    [
        ("verify-quantum", dict(VQ_BASE, n=6), "repetitions", 43690, "at most 262144 at n = 6, got 262146"),
        ("mixing-compare", MC_STEANE, "horizon", 262137, "at most 262144 at n = 7, got 262145"),
        ("mixing-compare", MC_STEANE, "repetitions", 37447, "at most 262144 at n = 7, got 262146"),
        (
            "verify-quantum",
            dict(VQ_STEANE, betas=[1.0], flavors=["X", "Z"]),
            "repetitions",
            18724,
            "at most 262144 at n = 7, got 262150",
        ),
        (
            "verify-quantum",
            dict(VQ_STEANE, model="toric", betas=[1.0]),
            "repetitions",
            32768,
            "at most 262144 at n = 8, got 262152",
        ),
        (
            "verify-quantum",
            dict(VQ_STEANE, checks_file="shor9.txt", betas=[1.0]),
            "repetitions",
            29127,
            "at most 262144 at n = 9, got 262152",
        ),
        ("mixing-compare", dict(GRID_CONFIGS["mixing-compare"], n=16), "horizon", 4080, "at most 4096 at n = 16, got 4097"),
    ],
    ids=["ring6", "steane7", "steane7-repetitions", "steane7-XZ", "toric", "shor9", "ring16"],
)
def test_schedule_past_its_run_time_bound_rejected(tmp_path, monkeypatch, subcommand, cfg, key, at, word):
    # every family's label steps, repetitions x sites x flavors + horizon,
    # are bounded by what finishes in 10 s, before anything is built; at
    # the bound the build starts
    (tmp_path / "shor9.txt").write_text(SHOR9)
    if "checks_file" in cfg:
        cfg = {k: v for k, v in cfg.items() if k != "model"}
        cfg["checks_file"] = str(tmp_path / cfg["checks_file"])
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    code, out = run(subcommand, dict(cfg, **{key: at + 1}), tmp_path)
    assert code == 2
    assert_config_rejected(out, word)
    with pytest.raises(AssertionError, match="a matrix was built"):
        run(subcommand, dict(cfg, **{key: at}), tmp_path, "at_bound")


def test_horizon_far_past_the_run_time_bound_rejected(tmp_path, monkeypatch):
    # a horizon of 2^20 is refused from the count alone, before anything
    # is built: 2^20 + 7 sites
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    code, out = run("mixing-compare", dict(MC_STEANE, horizon=2**20), tmp_path)
    assert code == 2
    assert_config_rejected(out, "got 1048583")


@pytest.mark.parametrize(
    "cfg,word",
    [
        ({"model": "random_ldpc", "n": 2, "checks": 1, "model_seed": 0}, "n >= 3"),
        ({"model": "toric", "L": 1}, "L >= 2"),
    ],
)
def test_registry_model_below_its_smallest_size_rejected(tmp_path, monkeypatch, cfg, word):
    # random_ldpc draws 3 distinct qubits per check, and a toric star at
    # L = 1 names the same edge twice
    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    code, out = run("model-info", cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, word)


MODEL_INFO_CFG = {
    "model": "steane7",
    "beta": 1.0,
    "barrier": {"center": [0, 0], "inner": 1, "boundary": 1},
}


# a valid config of each subcommand; every key of its schema is broken
# against it
VALID_CONFIGS = {**GRID_CONFIGS, "mixing-compare": MC_STEANE, "model-info": MODEL_INFO_CFG}
CASES = ("type", "range", "missing", "unknown")


def _fields(schema, path=()):
    """(key path, required, converter) of every field of a schema, the
    fields of its object-valued fields included."""
    for name, (required, conv) in schema.items():
        yield path + (name,), required, conv
        inner = getattr(conv, "keywords", {}).get("schema")
        if inner is not None:
            yield from _fields(inner, path + (name,))


def _out_of_range(conv):
    """Values the converter refuses for their size: one below its least,
    one past its bound, a string outside its options; a list converter
    gets each inside a list."""
    kw = getattr(conv, "keywords", {})
    values = [kw["lo"] - 1] if kw.get("lo") is not None else []
    values += [kw["hi"] + 1] if kw.get("hi") is not None else []
    values += ["?"] if kw.get("options") else []
    return [[v] for v in values] if "item" in kw else values


def _broken_configs(subcommand, case):
    """(config, word its rejection must name) for every field of the
    subcommand's schema broken the given way: a null or a boolean value
    (inside a list too, for a list field), a value out of range, a
    required key dropped, or the key renamed to an unknown one."""
    for path, required, conv in _fields(cli.SUBCOMMANDS[subcommand][1]):
        *parents, name = path
        wrong = [None, True]
        if "item" in getattr(conv, "keywords", {}):
            wrong += [[None], [True]]
        values = {
            "type": wrong,
            "range": _out_of_range(conv),
            "missing": [name] if required else [],
            "unknown": [name],
        }[case]
        for value in values:
            cfg = json.loads(json.dumps(VALID_CONFIGS[subcommand]))
            obj = cfg
            for parent in parents:
                obj = obj[parent]
            if case in ("missing", "unknown"):
                old = obj.pop(name, 1)
                if case == "unknown":
                    obj[name + "_"] = old
                yield cfg, "'" + name + ("_" if case == "unknown" else "")
            else:
                obj[name] = value
                yield cfg, "'" + ".".join(path)


def _spy_on_builds(monkeypatch, through):
    """Record every check family build_model makes and every set of label
    energies, Hamiltonian, Glauber flow and sweep model the CLI builds;
    with through, build them as well. A check family is always built: the
    CLI reads it, and its size is bounded before it is built."""
    built = []

    def spy_on(real, label, build):
        def spy(*args, **kwargs):
            built.append(label)
            return real(*args, **kwargs) if build else None

        return spy

    for name in ("build_hamiltonian", "label_energies", "GlauberFlow", "sweep_model"):
        monkeypatch.setattr(cli, name, spy_on(getattr(cli, name), name, through))
    for name, factory in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, name, spy_on(factory, "build_model", True))
    return built


@pytest.mark.parametrize("subcommand", sorted(cli.SUBCOMMANDS))
def test_broken_key_configs_are_valid_before_the_break(tmp_path, monkeypatch, subcommand):
    built = _spy_on_builds(monkeypatch, through=True)
    assert run(subcommand, VALID_CONFIGS[subcommand], tmp_path)[0] == 0
    assert built


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("subcommand", sorted(cli.SUBCOMMANDS))
def test_broken_key_rejected_before_any_build(tmp_path, monkeypatch, subcommand, case):
    built = _spy_on_builds(monkeypatch, through=False)
    broken = list(_broken_configs(subcommand, case))
    assert broken
    for i, (cfg, word) in enumerate(broken):
        code, out = run(subcommand, cfg, tmp_path, out_name=f"case{i}")
        assert code == 2, (cfg, word)
        assert_config_rejected(out, word)
    assert built == []


def _model_keys_past_their_bounds():
    """(model, params, word) with one key of a registry model one below its
    least or one past its most, its other keys at their least."""
    for name, keys in MODEL_KEYS.items():
        least = {key: lo for key, (lo, _, _) in keys.items()}
        for key, (lo, hi, _) in keys.items():
            yield name, dict(least, **{key: lo - 1}), f"needs {key} >= {lo}, got {lo - 1}"
            if hi is not None:
                yield name, dict(least, **{key: hi + 1}), f"needs {key} <= {hi}, got {hi + 1}"


@pytest.mark.parametrize("model,params,word", list(_model_keys_past_their_bounds()))
def test_model_key_past_its_bounds_rejected(tmp_path, monkeypatch, model, params, word):
    built = _spy_on_builds(monkeypatch, through=False)
    code, out = run("model-info", dict(params, model=model), tmp_path)
    assert code == 2
    assert_config_rejected(out, word)
    assert built == []


# one bit past each route's register bound: at most the check family is
# built, which the bound is read from
@pytest.mark.parametrize(
    "subcommand,cfg,word",
    [
        ("verify-quantum", dict(VQ_BASE, n=21), "at most 20 bits, got n = 21"),
        ("mixing-compare", dict(GRID_CONFIGS["mixing-compare"], n=21), "at most 20 bits"),
        ("tail-check", dict(GRID_CONFIGS["tail-check"], n=13), "at most 12 bits, got n = 13"),
        ("stability-sweep", dict(SWEEP_BASE, ns=[4, 14]), "'ns[1]': expected an integer <= 13"),
        ("barrier-scan", dict(GRID_CONFIGS["barrier-scan"], n=25), "needs n <= 24, got 25"),
        ("model-info", {"model": "curie_weiss", "n": 25}, "needs n <= 24, got 25"),
    ],
)
def test_register_past_its_route_bound_rejected(tmp_path, monkeypatch, subcommand, cfg, word):
    built = _spy_on_builds(monkeypatch, through=False)
    code, out = run(subcommand, cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, word)
    assert set(built) <= {"build_model"}


VC_FILE = {"betas": [1.0], "partition": {"center": 0, "inner": 0, "width": 1}}


# configs that no other test refuses, each naming a word of its message;
# a string is written as the config file's text, and checks_file names
# a file in the test's directory
@pytest.mark.parametrize(
    "subcommand,cfg,word",
    [
        ("model-info", '{"model": ', "not valid JSON"),
        ("model-info", "[1, 2]", "must be a JSON object"),
        (
            "verify-classical",
            dict(VC_FILE, model="ising_ring", n=3, checks_file="triangle.txt"),
            "exactly one",
        ),
        ("verify-classical", VC_FILE, "exactly one"),
        ("verify-classical", dict(VC_FILE, checks_file="absent.txt"), "cannot read checks_file"),
        ("verify-classical", dict(VC_FILE, checks_file="garbage.txt"), "is invalid"),
        ("verify-classical", dict(VC_FILE, model="steane7"), "Z-only"),
        ("tail-check", dict(GRID_CONFIGS["tail-check"], eps2=0.2), "eps2 > eps1"),
        ("verify-quantum", dict(VQ_BASE, attempt_prob=1.5), "attempt_prob"),
        ("mixing-compare", dict(GRID_CONFIGS["mixing-compare"], mix_eps=0.6), "(0, 0.5]"),
        ("barrier-scan", dict(GRID_CONFIGS["barrier-scan"], center=[1, 2, 3]), "[x, z] pair"),
        ("verify-classical", dict(VC_FILE, checks_file="bad_n.txt"), "non-integer"),
        ("verify-classical", dict(VC_FILE, checks_file="bad_qubit.txt"), "non-integer"),
        ("verify-classical", dict(GRID_CONFIGS["verify-classical"], betas=[math.nan]), "finite"),
        ("verify-quantum", dict(VQ_BASE, betas=[1.0, math.inf]), "finite"),
        ("model-info", b'{"model": "steane7", "beta": 1.0\xff}', "UTF-8"),
        ("verify-classical", dict(VC_FILE, checks_file="latin1.txt"), "UTF-8"),
        # sizes past their bounds, refused before anything is built
        ("verify-quantum", dict(VQ_BASE, n=40), "needs n <= 24, got 40"),
        ("verify-quantum", dict(VQ_BASE, n=10**29), "needs n <= 24"),
        ("stability-sweep", dict(SWEEP_BASE, ns=[4, 40]), "'ns[1]'"),
        ("model-info", {"model": "toric", "L": 3}, "needs L <= 2, got 3"),
        (
            "model-info",
            {"model": "random_ldpc", "n": 6, "checks": 10**11, "model_seed": 0},
            "needs checks <= 4096",
        ),
        ("verify-quantum", dict(VQ_BASE, repetitions=10**20), "<= 1048576"),
        ("mixing-compare", dict(GRID_CONFIGS["mixing-compare"], horizon=2**20 + 1), "<= 1048576"),
        ("verify-classical", dict(VC_FILE, checks_file="n40.txt"), f"at most {_GLAUBER_MAX_BITS} bits, got n = 40"),
        # keys a model does not take, and a key it needs
        ("model-info", {"model": "ising_ring", "n": 6, "L": 2}, "does not take ['L']"),
        ("model-info", {"model": "steane7", "n": 7}, "does not take ['n']"),
        (
            "verify-classical",
            dict(VC_FILE, checks_file="triangle.txt", n=9),
            "none of the model keys",
        ),
        # an expansion scan enumerates the 2^n states of a classical family
        ("model-info", {"model": "steane7", "expansion_delta": 0.2}, "Z-only"),
        (
            "model-info",
            {"model": "ising_ring", "n": 21, "expansion_delta": 0.1},
            "at most 20 bits, got n = 21",
        ),
        # toric at L = 3: a label basis of 2^18 x 2^8 entries
        ("model-info", {"checks_file": "toric3.txt"}, "2^18 x 2^8 entries is past 2^24"),
    ],
)
def test_config_rejected_through_main(tmp_path, monkeypatch, subcommand, cfg, word):
    (tmp_path / "triangle.txt").write_text("n: 3\nZ: 0 1\nZ: 1 2\nZ: 0 2\n")
    (tmp_path / "garbage.txt").write_text("Y: 0 1\n")
    (tmp_path / "bad_n.txt").write_text("n: x\nZ: 0 1\n")
    (tmp_path / "bad_qubit.txt").write_text("Z: 0 a\n")
    (tmp_path / "latin1.txt").write_bytes("n: 3\nZ: 0 1 # \u00e9\n".encode("latin-1"))
    (tmp_path / "n40.txt").write_text("n: 40\nZ: 0 1\n")
    toric3 = REGISTRY["toric"](3)
    checks = [("Z", c) for c in toric3.z_checks] + [("X", c) for c in toric3.x_checks]
    text = "".join(f"{tag}: {' '.join(map(str, c))}\n" for tag, c in checks)
    (tmp_path / "toric3.txt").write_text(f"n: {toric3.n}\n" + text)
    built = _spy_on_builds(monkeypatch, through=False)
    path = tmp_path / "cfg.json"
    if isinstance(cfg, bytes):
        path.write_bytes(cfg)
    elif isinstance(cfg, str):
        path.write_text(cfg)
    else:
        if "checks_file" in cfg:
            cfg = dict(cfg, checks_file=str(tmp_path / cfg["checks_file"]))
        path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    assert_config_rejected(out, word)
    # only a CSS model handed to verify-classical is refused from its family
    assert built == (["build_model"] if word == "Z-only" else [])


def test_integer_past_the_json_reader_limit_rejected(tmp_path):
    # Python's int parser refuses more than 4300 digits with a ValueError
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "ising_ring", "n": 1' + "0" * 5000 + "}")
    out = tmp_path / "out"
    assert main(["model-info", "--config", str(path), "--out", str(out)]) == 2
    assert_config_rejected(out, "not valid JSON")


def test_allocation_failure_is_reported_not_crashed(tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate")

    # inside a grid point: each point fails on its own
    monkeypatch.setattr(cli, "gibbs_state", no_memory)
    code, out = run("verify-quantum", GRID_CONFIGS["verify-quantum"], tmp_path, "point")
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["point"] for f in failures] == [
        {"model": "ising_ring", "beta": b} for b in (0.5, 1.0, 2.0)
    ]
    assert {f["reason"] for f in failures} == {"MemoryError"}
    assert read_rows(out)[1] == []
    # outside any point: the run fails as a whole
    monkeypatch.setattr(cli, "build_hamiltonian", no_memory)
    code, out = run("verify-quantum", VQ_BASE, tmp_path, "setup")
    assert code == 1
    assert json.loads((out / "failures.json").read_text()) == [
        {"reason": "MemoryError", "message": "cannot allocate"}
    ]


def test_verify_classical_laziness_one_rejected(tmp_path, monkeypatch):
    # laziness 1 never moves, so the chain has no unique stationary law
    monkeypatch.setattr(cli, "basis_state_subspace", _refuse)
    monkeypatch.setattr(cli, "partition_from_radius", _refuse)
    monkeypatch.setattr(cli, "GlauberFlow", _refuse)
    cfg = dict(GRID_CONFIGS["verify-classical"], laziness=1.0)
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "laziness")


def test_verify_classical_empty_c_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "basis_state_subspace", _refuse)
    monkeypatch.setattr(cli, "partition_from_radius", _refuse)
    monkeypatch.setattr(cli, "GlauberFlow", _refuse)
    cfg = {
        "model": "ising_ring",
        "n": 4,
        "betas": [1.0],
        "partition": {"center": 0, "inner": 1, "width": 2},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, "C is empty")


def test_verify_classical_past_the_glauber_cap_rejected(tmp_path, monkeypatch):
    # one bit more than the route's register bound: the run is refused
    # before the energies are built, not failed inside its grid point
    monkeypatch.setattr(cli, "label_energies", _refuse)
    monkeypatch.setattr(cli, "GlauberFlow", _refuse)
    n = _GLAUBER_MAX_BITS + 1
    cfg = {
        "model": "ising_ring",
        "n": n,
        "betas": [1.0],
        "partition": {"center": 0, "inner": 1, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 2
    assert_config_rejected(out, f"at most {_GLAUBER_MAX_BITS} bits, got n = {n}")


def test_verify_classical_underflow_at_the_register_bound_builds_no_chain(tmp_path, monkeypatch):
    # at the route's register bound a beta at which every uphill flip
    # underflows runs on the flow like any other, and no point builds a
    # chain over the register
    monkeypatch.setattr(StochasticMatrix, "_trusted", _refuse)
    monkeypatch.setattr(StochasticMatrix, "from_columns", _refuse)
    cfg = {
        "model": "ising_ring",
        "n": _GLAUBER_MAX_BITS,
        "betas": [1.0, 400.0],
        "partition": {"center": 0, "inner": 1, "width": 1},
    }
    code, out = run("verify-classical", cfg, tmp_path)
    assert code == 0
    assert json.loads((out / "failures.json").read_text()) == []
    assert [float(row[2]) for row in read_rows(out)[1]] == [1.0, 400.0]


def test_parser_is_built_once_and_keeps_its_exits(tmp_path, capsys):
    parser = cli._parser()
    assert run("verify-quantum", VQ_BASE, tmp_path)[0] == 0
    assert cli._parser() is parser
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == 0
    usage = capsys.readouterr().out
    assert all(name in usage for name in cli.SUBCOMMANDS)
    for argv in (["no-such-subcommand"], [], ["mixing-compare"]):
        with pytest.raises(SystemExit) as bad:
            main(argv)
        assert bad.value.code == 2


def run_python(code, *argv):
    """Run code in a fresh interpreter on this checkout's src/ with argv;
    returns its stdout after checking that it exited 0."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_scipy_modules():
    # the package runs on numpy alone; any scipy module on the import
    # path (scipy.special alone took most of the start-up time) would be
    # paid by every CLI run
    code = (
        "import sys, bottlenecklab, bottlenecklab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_python(code).strip() == "[]"


# runs the CLI on sys.argv[1:] and prints the exit status and the scipy
# modules loaded
SPY = (
    "import json, sys\n"
    "from bottlenecklab import cli\n"
    "status = cli.main(sys.argv[1:])\n"
    "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print(json.dumps({'status': status, 'scipy': scipy}))\n"
)


def spy_run(subcommand, cfg, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    return json.loads(run_python(SPY, *argv).strip().splitlines()[-1]), out


def test_verify_classical_loads_no_scipy_and_reads_no_matrix(tmp_path):
    # the flow reads A's out-edges and builds no matrix: a
    # verify-classical process loads numpy alone
    cfg = dict(GRID_CONFIGS["verify-classical"], n=12, betas=[0.5, 1.0, 2.0, 3.0])
    spy, out = spy_run("verify-classical", cfg, tmp_path)
    assert spy == {"status": 0, "scipy": []}
    assert json.loads((out / "failures.json").read_text()) == []
    assert len(read_rows(out)[1]) == 4


def test_tail_check_loads_no_scipy(tmp_path):
    # the tail bounds run dense eigensolves through numpy alone
    spy, out = spy_run("tail-check", GRID_CONFIGS["tail-check"], tmp_path)
    assert spy == {"status": 0, "scipy": []}
    assert json.loads((out / "failures.json").read_text()) == []


def test_stability_sweep_loads_no_scipy(tmp_path):
    # the n = 8 and 10 points at beta 3 take the certified series, whose
    # products are numpy GEMMs and whose coefficients come from the
    # package's own recurrence: a stability-sweep process loads no scipy
    cfg = {
        "model": "repetition",
        "barrier": {"center": [0, 0], "inner": 1, "boundary": 2},
        "betas": [3.0],
        "gs": [0.01],
        "ns": [8, 10],
        "seeds": [1],
    }
    spy, out = spy_run("stability-sweep", cfg, tmp_path)
    assert spy == {"status": 0, "scipy": []}
    assert json.loads((out / "failures.json").read_text()) == []
    assert len(read_rows(out)[1]) == 2


@pytest.mark.parametrize("subcommand", ["verify-quantum", "mixing-compare", "barrier-scan", "model-info"])
def test_every_other_subcommand_loads_no_scipy(tmp_path, subcommand):
    # scipy is a test dependency only: no subcommand's process loads it
    cfg = MODEL_INFO_CFG if subcommand == "model-info" else GRID_CONFIGS[subcommand]
    spy, out = spy_run(subcommand, cfg, tmp_path)
    assert spy == {"status": 0, "scipy": []}
    assert json.loads((out / "failures.json").read_text()) == []


def test_verify_classical_runs_in_one_process_share_no_table(tmp_path):
    # two models on the same 8 bits with two partitions, run in turn in
    # one process: every row's lhs has the bits of the flow read one state
    # at a time, and its other fields equal the report of a chain built
    # anew by the per-beta oracle, on that run's energies and blocks
    configs = [
        {
            "model": "ising_ring",
            "n": 8,
            "betas": [0.5, 2.0],
            "partition": {"center": 0, "inner": 1, "width": 1},
        },
        {
            "model": "curie_weiss",
            "n": 8,
            "betas": [0.5, 1.0],
            "partition": {"center": 5, "inner": 0, "width": 2},
        },
    ]
    fields = ("bound", "pi_A", "pi_B", "pi_C", "condition_max")
    for i, cfg in enumerate(configs + configs):
        code, out = run("verify-classical", cfg, tmp_path, f"run{i}")
        assert code == 0
        E = label_energies(REGISTRY[cfg["model"]](cfg["n"]))
        spec = cfg["partition"]
        part = hamming_shell_labels(cfg["n"], spec["center"], spec["inner"], spec["width"])
        rows = json.loads((out / "report.json").read_text())
        assert [row["beta"] for row in rows] == cfg["betas"]
        for row, beta in zip(rows, cfg["betas"]):
            pi, _ = gibbs_weights(E, beta)
            assert row["lhs"] == glauber_flow(E, beta, 0.0, part, pi)
            masks, weights = per_beta_glauber(E, beta)
            sm = StochasticMatrix.from_columns(explicit_rows(masks, E.size), weights)
            rep = classical_bottleneck_report(sm, part, pi)
            assert [row[f] for f in fields] == [getattr(rep, f) for f in fields]


@pytest.mark.parametrize("model", ["ising_ring", "steane7"])
def test_conditioned_start_matches_the_dense_product(model):
    # mixing-compare's start: rho conditioned on the radius-1 label ball
    # about (0, 0) at partition radius 1, at beta 3, against the dense
    # product P_A rho P_A / tr(P_A rho)
    H = build_hamiltonian(REGISTRY[model](4) if model == "ising_ring" else REGISTRY[model]())
    rho, _, _ = gibbs_state(H, 3.0)
    W = H.labels[0]
    part = subspace.partition_from_radius(subspace.ball(W, [W.index(0, 0)], 1), 1)
    start = conditioned_state(rho, part.A)
    assert start.labels is not None and start.labels[0] is W
    P_A = part.A.projector()
    dense = P_A @ rho.mat @ P_A
    dense /= np.real(np.trace(dense))
    assert np.abs(start.mat - dense).max() <= 1e-12
    assert abs(np.trace(start.mat) - 1.0) <= 1e-12


def test_css_mixing_compare_starts_on_labels_and_matches_the_library(tmp_path, monkeypatch):
    # steane7 against the label ball about (0, 0): rho, the channels and
    # A share the CSS basis, so the start state carries labels, and the
    # row's Delta and tr(P_A rho) are the library's on that split
    starts = []
    real = cli.conditioned_state

    def spy(rho, A):
        starts.append(real(rho, A))
        return starts[-1]

    monkeypatch.setattr(cli, "conditioned_state", spy)
    code, out = run("mixing-compare", MC_STEANE, tmp_path)
    assert code == 0
    W = label_basis(REGISTRY["steane7"]())
    assert len(starts) == 1 and starts[0].labels[0] is W
    (row,) = json.loads((out / "report.json").read_text())
    H = build_hamiltonian(REGISTRY["steane7"]())
    rho, _, _ = gibbs_state(H, 1.0)
    part = subspace.partition_from_radius(subspace.ball(W, [W.index(0, 0)], 1), 1)
    rep = verify_bottleneck_theorem(sweep_schedule(H, 1.0, range(7), flavors=["X"]), rho, part)
    assert rep.path == "label"
    assert (row["delta"], row["denominator"]) == (rep.delta, rep.denominator)
    assert (rep.delta, rep.denominator) == (1.8591305044829054, 0.3497566824711477)


def test_two_center_css_ball_runs_on_labels_and_matches_the_library(tmp_path, monkeypatch):
    # steane7 about the labels (0, 0) and (1, 0): verify-quantum at the
    # channels' locality and mixing-compare at radius 1 both take the label
    # path, and each row is the library's on the same ball
    paths = _spy_on_theorem_paths(monkeypatch)
    base = {"model": "steane7", "flavors": ["X", "Z"], "subspace": {"centers": [0, 1], "radius": 0}}
    code, out_q = run("verify-quantum", dict(base, betas=[1.0, 2.0], partition_radius=7), tmp_path, "vq")
    assert code == 0
    code, out_m = run("mixing-compare", dict(base, beta=1.0, horizon=200, partition_radius=1), tmp_path, "mc")
    assert code == 0
    assert paths == ["label"] * 3
    H = build_hamiltonian(REGISTRY["steane7"]())
    W = H.labels[0]
    V = subspace.ball(W, [W.index(0, 0), W.index(1, 0)], 0)
    assert V.dim == 2
    for row in json.loads((out_q / "report.json").read_text()):
        rho, _, _ = gibbs_state(H, row["beta"])
        rep = verify_bottleneck_theorem(sweep_schedule(H, row["beta"], range(7), flavors=["X", "Z"]), rho, (V, 7))
        want = dict(vars(rep), cond_residual=rep.condition_residual)
        assert {k: row[k] for k in QUANTUM_COLUMNS[:7]} == {k: want[k] for k in QUANTUM_COLUMNS[:7]}
    (row,) = json.loads((out_m / "report.json").read_text())
    rho, _, _ = gibbs_state(H, 1.0)
    sched = sweep_schedule(H, 1.0, range(7), flavors=["X", "Z"])
    part = subspace.partition_from_radius(V, 1)
    rep = verify_bottleneck_theorem(sched, rho, part)
    strong, weak = bottleneck.mixing_time_lower_bound(rep, row["mix_eps"])
    in_A = part.labels[1] == 0
    p = rho.labels[1]
    start = DensityMatrix.from_labels(W, np.where(in_A, p, 0.0) / p[in_A].sum())
    dists = channel.evolve_sequence(sched, start, rho, T=200)
    observed = next(float(t) for t, d in enumerate(dists) if d / 2 <= row["mix_eps"])
    assert (row["delta"], row["denominator"]) == (rep.delta, rep.denominator)
    assert (row["tmix_strong"], row["tmix_weak"], row["tmix_observed"]) == (strong, weak, observed)


# curie_weiss at n=12 about the all-zero state: A is the states of weight
# at most 2, B1 weights 3-4, B2 weights 5-6
CURIE_WEISS_QS = (2, 1000, 10**6)


@pytest.fixture(scope="module")
def curie_weiss_rows(tmp_path_factory):
    cfg = {
        "model": "curie_weiss",
        "n": 12,
        "betas": [math.log(q) for q in CURIE_WEISS_QS],
        "partition": {"center": 0, "inner": 2, "width": 2},
    }
    code, out = run("verify-classical", cfg, tmp_path_factory.mktemp("curie_weiss"))
    assert code == 0
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("q", CURIE_WEISS_QS)
def test_curie_weiss_drift_matches_the_exact_rational_drift(curie_weiss_rows, q):
    # the exact lhs lies within the bound (a quarter of it at low
    # temperature); the printed one must lie within 1e-12 of it
    (row,) = [r for r in curie_weiss_rows if r["beta"] == math.log(q)]
    exact = exact_glauber_drift(REGISTRY["curie_weiss"](12), 0, 2, q)
    assert exact <= Fraction(row["bound"])
    assert abs(row["lhs"] - float(exact)) <= 1e-12 * float(exact)
