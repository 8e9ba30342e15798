"""Fast paths against their reference forms in oracles.py, on drawn models.

Classical families draw n to 3n supports of 1 to 3 qubits and keep each
one that leaves every qubit in at most `degree` checks, so the energy
range stays wide next to w0. CSS families take their Z checks the same
way (at most n - 1 of them) and draw one or two X checks as random
combinations of pauli.gf2_null_space_masks of the Z masks, so every X
check overlaps every Z check evenly and the two kinds commute by
construction.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bottlenecklab.errors import EmptyBoundary
from bottlenecklab.model import (
    CheckFamily,
    barrier_subspace,
    build_hamiltonian,
    label_energies,
    perturb,
    random_local_perturbation,
)
from bottlenecklab.numerics import hermitian_eigensystem, operator_norm
from bottlenecklab.pauli import gf2_null_space_masks, indices_from_mask, mask_from_indices
from bottlenecklab.stability import (
    plan_shell_width,
    shell_decomposition,
    tail_amplitudes,
    verify_block_tridiagonal,
)
from oracles import barrier_by_label_pairs, shell_projectors

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
def classical_families(draw):
    n = draw(st.integers(4, 8))
    return CheckFamily(n, z_checks=draw(bounded_supports(n)))


@st.composite
def css_families(draw):
    n = draw(st.integers(4, 8))
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
        want = barrier_by_label_pairs(checks, center, inner, boundary, H)
    except EmptyBoundary:
        with pytest.raises(EmptyBoundary):
            barrier_subspace(checks, center, inner, boundary, H)
        return
    got = barrier_subspace(checks, center, inner, boundary, H)
    for a, b in ((got.V, want.V), (got.boundary, want.boundary)):
        assert a.label == b.label
        assert np.array_equal(a.basis, b.basis)
    assert got.E_min_V == want.E_min_V
    assert got.E_min_boundary == want.E_min_boundary
    assert got.kappa == want.kappa


def admissible_window(H0, g, f):
    """(eps1, eps2, delta_E): one shell that plan_shell_width accepts, with
    the top window starting below the largest energy of H0.

    The shell is w0 * (1 + e) wide with e < 1, so the planner picks one,
    and e is small enough for the width bound in g. The fraction f places
    eps1 between 0.02 and the highest value that keeps eps2 * n below the
    largest energy.
    """
    w0, n = H0.w0, H0.n
    ladder = 2 * w0 * (1 + min(0.4, g * n / w0)) + 4 * g * n
    top = float(label_energies(H0.checks).max()) - 0.5
    assume(top - ladder > 0.02 * n)
    eps1 = 0.02 + f * ((top - ladder) / n - 0.02)
    eps2 = eps1 + ladder / n
    return eps1, eps2, plan_shell_width(H0, eps1, eps2, g)


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
    wide = random_local_perturbation(n, ((0, n - 1),), g, seed)
    got = verify_block_tridiagonal(wide, shells).residual
    assert abs(got - dense_residual(wide)) <= 1e-12 * max(1.0, got)

    V = random_local_perturbation(n, tuple((i,) for i in range(n)), g, seed)
    block = verify_block_tridiagonal(V, shells)
    assert block.passes
    assert abs(block.residual - dense_residual(V)) <= 1e-12
    H = perturb(H0, V)
    _, U = hermitian_eigensystem(H.mat)
    for rec in tail_amplitudes(H, H0, shells):
        want = np.linalg.norm(projectors[-1] @ U[:, rec.eigen_index])
        assert abs(rec.amplitude - want) <= 1e-12
