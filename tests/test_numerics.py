import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenecklab import numerics
from bottlenecklab.errors import DimensionMismatch, EmptyInput, NonSquare, NotHermitian
from bottlenecklab.model import (
    build_hamiltonian,
    ising_ring,
    label_basis,
    perturb,
    random_local_perturbation,
    repetition,
    steane7,
    toric,
)

from conftest import (
    flux_triangle,
    gauge_block_diagonal,
    pure_state_density,
    random_density,
    random_projector,
    random_unitary,
)
from oracles import (
    PauliString,
    _gauged,
    dense_perturbation,
    loop_fix_phases,
    orthonormal_column_basis,
    pauli_matrix,
    validate_density,
)


def test_trace_norm_diag():
    M = np.diag([3.0, -4.0, 0.0]).astype(complex)
    assert numerics.trace_norm(M) == pytest.approx(7.0, abs=1e-10)


def test_trace_norm_jordan_block():
    # singular values of [[0,1],[0,0]] are {1, 0}
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    assert numerics.trace_norm(M) == pytest.approx(1.0, abs=1e-10)
    assert numerics.operator_norm(M) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(NonSquare):
        numerics.trace_norm(np.zeros((2, 3)))


def test_unitary_invariance(rng):
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    U = random_unitary(rng, 6)
    W = random_unitary(rng, 6)
    assert numerics.trace_norm(U @ M @ W) == pytest.approx(
        numerics.trace_norm(M), abs=1e-8
    )
    assert numerics.operator_norm(U @ M @ W) == pytest.approx(
        numerics.operator_norm(M), abs=1e-8
    )


def test_projector_contracts_trace_norm(rng):
    # ||P O||_1 <= ||O||_1 for projectors P, the workhorse inequality
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        O = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        P = random_projector(rng, dim, int(rng.integers(1, dim)))
        assert numerics.trace_norm(P @ O) <= numerics.trace_norm(O) + 1e-10


def test_hermitian_path_matches_svd(rng):
    H = rng.normal(size=(8, 8))
    H = (H + H.T) / 2 + 0j
    direct = np.linalg.svd(H, compute_uv=False).sum()
    assert numerics.trace_norm(H) == pytest.approx(direct, abs=1e-9)


def test_orthonormal_column_basis_rank_cutoff(rng):
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0, 0.0], dtype=complex)
    # third vector is a near-duplicate, rank must stay 2
    basis = orthonormal_column_basis([v, w, v + 1e-12 * w])
    assert basis.shape == (3, 2)
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_orthonormal_column_basis_empty_input():
    with pytest.raises(EmptyInput):
        orthonormal_column_basis([])


def test_orthonormal_column_basis_zero_vectors():
    out = orthonormal_column_basis([np.zeros(4, dtype=complex)])
    assert out.shape == (4, 0)


def test_orthonormalization_idempotent(rng):
    A = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    B1 = orthonormal_column_basis(A)
    B2 = orthonormal_column_basis(B1)
    assert np.allclose(B1 @ B1.conj().T, B2 @ B2.conj().T, atol=1e-10)


def test_wide_stack_matches_the_plain_svd(rng):
    # more vectors than rows goes through QR first; rank 5 of 16 rows
    A = (rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))) @ (
        rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40))
    )
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    want = U[:, : int(np.sum(s > 1e-8 * s[0]))]
    got = orthonormal_column_basis(A)
    assert got.shape == (16, 5) == want.shape
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max() < 1e-10


def test_hermitian_eigensystem_pauli_x():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    w, V = numerics.hermitian_eigensystem(X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    recon = V @ np.diag(w) @ V.conj().T
    assert np.abs(recon - X).max() < 1e-8


def test_hermitian_eigensystem_rejects_nonhermitian():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        numerics.hermitian_eigensystem(M)


def test_eigensystem_phase_fixing_deterministic(rng):
    H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = H + H.conj().T
    w1, V1 = numerics.hermitian_eigensystem(H)
    w2, V2 = numerics.hermitian_eigensystem(H.copy())
    assert np.array_equal(V1, V2)
    # first significant entry of each column is real positive
    for j in range(6):
        col = V1[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eigensystem_reconstruction_scale(rng):
    H = 1e6 * (rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    H = H + H.conj().T
    w, V = numerics.hermitian_eigensystem(H)
    resid = np.abs(V @ np.diag(w) @ V.conj().T - H).max()
    assert resid <= 1e-8 * numerics.operator_norm(H)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_trace_norm_triangle(dim, seed):
    r = np.random.default_rng(seed)
    A = r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
    B = r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
    assert numerics.trace_norm(A + B) <= (
        numerics.trace_norm(A) + numerics.trace_norm(B) + 1e-9
    )


def test_density_matrix_validation(rng):
    rho = random_density(rng, 8)
    dm = numerics.DensityMatrix(rho)
    assert dm.n == 3
    assert validate_density(dm) >= -1e-10
    with pytest.raises(NotHermitian):
        bad = rho.copy()
        bad[0, 1] += 1e-3
        numerics.DensityMatrix(bad)
    with pytest.raises(ValueError):
        numerics.DensityMatrix(rho * 2.0)
    assert bad.flags.writeable


def test_density_matrix_refuses_a_nan_entry():
    # a NaN diagonal entry makes both the hermiticity deviation and the
    # trace NaN; the first check refuses it
    with pytest.raises(NotHermitian, match="nan"):
        numerics.DensityMatrix(np.diag([np.nan, 0.5, 0.25, 0.25]))


def test_density_matrix_cannot_change_after_its_checks(rng):
    rho = random_density(rng, 4)
    dm = numerics.DensityMatrix(rho)
    with pytest.raises(ValueError):
        dm.mat[0, 1] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dm.mat = rho + 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dm.n = 1


def test_density_matrix_from_labels_checks_its_weights(rng):
    W = label_basis(steane7())
    p = rng.random(W.dim)
    p /= p.sum()
    rho = numerics.DensityMatrix.from_labels(W, p)
    dense = W.dense()
    assert np.abs(rho.mat - (dense * p[None, :]) @ dense.conj().T).max() < 1e-15
    assert rho.labels[0] is W and np.array_equal(rho.labels[1], p)
    assert not rho.labels[1].flags.writeable
    negative = p.copy()
    negative[0], negative[1] = -0.1, negative[1] + negative[0] + 0.1
    for bad in (negative, p * 1.01):
        with pytest.raises(ValueError):
            numerics.DensityMatrix.from_labels(W, bad)
    with pytest.raises(DimensionMismatch):
        numerics.DensityMatrix.from_labels(W, p[:-1])


def test_only_from_labels_attaches_labels():
    W = label_basis(toric(2))
    rho = numerics.DensityMatrix.from_labels(W, np.full(W.dim, 1.0 / W.dim))
    assert numerics.DensityMatrix(rho.mat, rho.n).labels is None
    with pytest.raises(TypeError):
        numerics.DensityMatrix(rho.mat, rho.n, labels=rho.labels)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.labels = None


def test_maximally_mixed_and_pure():
    mm = numerics.maximally_mixed(2)
    assert mm.mat.trace() == pytest.approx(1.0)
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    dm = pure_state_density(psi)
    assert numerics.trace_norm(dm.mat @ dm.mat - dm.mat) < 1e-12


# --- phase fixing --------------------------------------------------------


@pytest.mark.parametrize("shape", [(8, 3), (64, 64), (100, 7), (256, 40), (5, 0), (0, 4)])
def test_fix_phases_matches_the_column_loop_bit_for_bit(rng, shape):
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if shape[0] >= 6 and shape[1] >= 3:
        A[:3, ::2] = 0.0  # pivot further down
        A[:, 1] = 0.0  # no pivot at all: column left as is
        A[2, 1] = complex(-0.0, -0.0)
        A[4, 1] = 1e-13  # below tol, still no pivot
        A[5, 2] = 1e-13  # below tol, skipped as a pivot
    for M in (A, A.real.copy()):
        got = numerics.fix_phases(M)
        want = loop_fix_phases(M)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# --- eigensolves of gauge-real and complex matrices ------------------------
#
# The solver searches for no gauge: the real forms are fixed when a
# Hamiltonian is built, and every complex matrix here takes the complex
# solver. The gauge search itself lives in the oracles (test_oracles.py).


def _single_site_perturbed(make, n, g, seed):
    H0 = build_hamiltonian(make(n))
    return perturb(H0, random_local_perturbation(n, g, seed)).mat


GAUGE_CASES = {
    "repetition4": lambda rng: _single_site_perturbed(repetition, 4, 0.05, 1),
    "repetition6": lambda rng: _single_site_perturbed(repetition, 6, 0.01, 2),
    "repetition8": lambda rng: _single_site_perturbed(repetition, 8, 0.2, 3),
    "ising_ring5": lambda rng: _single_site_perturbed(ising_ring, 5, 0.1, 4),
    "ising_ring8": lambda rng: _single_site_perturbed(ising_ring, 8, 0.02, 5),
    "steane7": lambda rng: build_hamiltonian(steane7()).mat,
    "toric2": lambda rng: build_hamiltonian(toric(2)).mat,
    "block_diagonal": gauge_block_diagonal,
}


def _assert_matches_eigh(H, w, V):
    w_ref = np.linalg.eigh(H)[0]
    scale = max(1.0, numerics.operator_norm(H))
    assert np.abs(w - w_ref).max() <= 1e-12 * scale
    assert np.abs((V * w[None, :]) @ V.conj().T - H).max() <= 1e-12 * scale
    assert np.abs(V.conj().T @ V - np.eye(len(w))).max() <= 1e-12


@pytest.mark.parametrize("case", sorted(GAUGE_CASES))
def test_gauge_solve_matches_complex_eigh(rng, case):
    H = GAUGE_CASES[case](rng)
    w, V = numerics.hermitian_eigensystem(H)
    _assert_matches_eigh(H, w, V)
    assert np.abs(numerics.hermitian_eigenvalues(H) - w).max() <= 1e-12 * max(
        1.0, numerics.operator_norm(H)
    )
    # output stays phase-fixed: first significant entry real positive
    lead = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(V.shape[1])]
    assert np.abs(lead.imag).max() < 1e-12 and lead.real.min() > 0


COMPLEX_CASES = {
    "triangle_flux": lambda: flux_triangle(0.3),
    "triangle_small_flux": lambda: flux_triangle(1e-9),
    "two_site_term": lambda: dense_perturbation(4, [(0, 1)], 0.1, 3).mat,
    "two_site_perturbed_ring": lambda: perturb(
        build_hamiltonian(ising_ring(5)), dense_perturbation(5, [(1, 2)], 0.05, 7)
    ).mat,
}


@pytest.mark.parametrize("case", sorted(COMPLEX_CASES))
def test_no_gauge_takes_the_complex_path(case):
    H = COMPLEX_CASES[case]()
    w, V = numerics.hermitian_eigensystem(H)
    _assert_matches_eigh(H, w, V)
    assert np.abs(numerics.hermitian_eigenvalues(H) - w).max() <= 1e-12 * max(
        1.0, numerics.operator_norm(H)
    )


def test_real_input_keeps_the_real_solver(monkeypatch):
    # a matrix with no imaginary part reaches eigh as a real array
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: seen.append(M.dtype) or eigh(M))
    numerics.hermitian_eigensystem(build_hamiltonian(steane7()).mat)
    numerics.hermitian_eigensystem(flux_triangle(0.3))
    assert seen == [np.float64, np.complex128]


def test_zero_flux_triangle_is_gauged():
    # the gauge search of the oracles, the reference for model._site_gauge
    assert _gauged(flux_triangle(0.0))[0] is not None


def test_hermitian_eigenvalues_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        numerics.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_solvers_refuse_a_nan_entry():
    # max |H - H^dag| is NaN, which fails the check instead of passing it
    H = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for solve in (numerics.hermitian_eigenvalues, numerics.hermitian_eigensystem):
        with pytest.raises(NotHermitian, match="nan"):
            solve(H)


# --- logsumexp -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("scale", [1.0, 30.0, 1e3])
def test_logsumexp_matches_scipy(seed, scale):
    # scipy is the oracle only here; the package never imports it for this
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(seed)
    a = rng.uniform(-scale, scale, size=int(rng.integers(2, 300)))
    b = rng.uniform(0.0, 1.0, size=a.size)
    b[rng.random(a.size) < 0.3] = 0.0
    b[np.argmax(a)] = 0.0  # the largest exponent carries no weight
    for got, want in (
        (numerics.logsumexp(a), scipy_logsumexp(a)),
        (numerics.logsumexp(a, b=b), scipy_logsumexp(a, b=b)),
        (numerics.logsumexp(a[:1]), scipy_logsumexp(a[:1])),
        (numerics.logsumexp(a[:1], b=b[:1] + 0.5), scipy_logsumexp(a[:1], b=b[:1] + 0.5)),
    ):
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_logsumexp_zero_weights_are_left_out():
    # a zero weight drops its entry even where the exponent would overflow
    assert numerics.logsumexp([1e4, 0.0], b=[0.0, 2.0]) == pytest.approx(np.log(2.0), rel=1e-15)
    assert numerics.logsumexp([3.0, -1.0], b=[0.0, 0.0]) == -np.inf
    assert numerics.logsumexp([]) == -np.inf
    assert numerics.logsumexp([-np.inf, -np.inf]) == -np.inf
    assert numerics.logsumexp([1e4, 1e4]) == pytest.approx(1e4 + np.log(2.0), rel=1e-15)


def _sweep_point_arguments():
    # the Bessel arguments z = beta h of the Chebyshev route at the sweep
    # points of the differential tests, where the cost rule lets it run
    from bottlenecklab import stability

    seen = []
    order = numerics._chebyshev_order

    def spied(z, cap):
        found = order(z, cap)
        if found is not None:
            seen.append(z)
        return found

    numerics._chebyshev_order = spied
    try:
        for name in ("repetition", "curie_weiss"):
            for n in (8, 10):
                H0, cert = stability.sweep_model(name, n, ((0, 0), 1, 2))
                width = sum(int(b.labels[1].sum()) for b in (cert.V, cert.boundary)) + 1
                for g in (1e-4, 0.01, 0.1):
                    H = perturb(H0, random_local_perturbation(n, g, 3))
                    for beta in (0.5, 3.0, 10.0, 30.0):
                        numerics._site_form_series(H.diagonal(), H.flips, beta, width)
    finally:
        numerics._chebyshev_order = order
    return seen


def test_ive_stays_within_its_stated_total_error():
    # the Chebyshev kernel's coefficient term rests on this: over orders
    # 0..K of one argument, _scaled_bessel is off by at most IVE_SUM_ERR
    # in total, on fixed arguments and on those of the sweep points
    with mpmath.workdps(30):
        for z in (0.01, 0.5, 2.5, 15.0, 61.0, 100.0, 183.0, 400.0, *_sweep_point_arguments()):
            K, tail = numerics._chebyshev_order(z, math.inf)
            got = numerics._scaled_bessel(K, z)
            want = [mpmath.besseli(k, z) * mpmath.exp(-z) for k in range(K + 1)]
            off = sum(abs(float(mpmath.mpf(float(a)) - b)) for a, b in zip(got, want))
            assert off <= numerics.IVE_SUM_ERR
            # the series tail past K is below its bound
            rest = 2 * sum(mpmath.besseli(k, z) * mpmath.exp(-z) for k in range(K + 1, K + 60))
            assert float(rest) <= tail


def test_scaled_bessel_near_zero():
    # z = 0 gives exactly ive(0, 0) = 1; below 2^-100, where 2k/z could
    # overflow the recurrence, the power series; just above it the
    # recurrence runs with a rescale at almost every step
    assert numerics._scaled_bessel(0, 0.0).tolist() == [1.0]
    assert numerics._scaled_bessel(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    with mpmath.workdps(60):
        for z in (1e-300, 2.0**-101, 2.0**-99, 1e-20, 1e-9):
            got = numerics._scaled_bessel(6, z)
            want = [mpmath.besseli(k, z) * mpmath.exp(-z) for k in range(7)]
            off = [abs(mpmath.mpf(float(a)) - b) for a, b in zip(got, want)]
            assert float(sum(off)) <= 4 * numerics.UNIT_ROUNDOFF
            assert off[1] <= 4 * numerics.UNIT_ROUNDOFF * want[1]


@pytest.mark.parametrize("z", [5e-324, np.finfo(np.float64).tiny])
def test_chebyshev_order_at_the_smallest_arguments(z):
    # log z - log 2 is finite where log(z / 2) met z / 2 rounded to 0
    K, tail = numerics._chebyshev_order(z, 10)
    assert K == 1 and 0.0 <= tail <= numerics.CHEBYSHEV_TAIL
    # through the public route: a ratio or the dense route's None, no exception
    got = numerics.site_form_ratio([0.0, 1.0, 1.0, 2.0], [1e-300] * 2, z, [0], [1])
    assert got is None or math.isfinite(got)


def unit_columns(S2, coef, rows):
    # the series on the unit columns of rows, in one _clenshaw run
    return numerics._clenshaw(S2, coef, rows, np.arange(rows.size), np.ones(rows.size), rows.size)


def test_unit_series_is_the_series_on_unit_columns(rng, monkeypatch):
    # the label run's blocks of 32 columns, the last one 14 or 1 wide,
    # give every entry the bits of one block of all columns and of each
    # column run alone
    n = 8
    dim = 1 << n
    e = rng.uniform(0.0, 8.0, dim)
    t = rng.uniform(-0.3, 0.3, n)
    for width, last in ((110, 14), (97, 1)):
        assert width % numerics._CHEBYSHEV_BLOCK == last
        rows = rng.permutation(dim)[:width]
        S2, coef, err, lo = numerics._site_form_series(e, t, 2.0, rows.size)
        Y = unit_columns(S2, coef, rows)
        alone = np.column_stack([unit_columns(S2, coef, rows[i : i + 1]) for i in range(rows.size)])
        with monkeypatch.context() as m:
            m.setattr(numerics, "_CHEBYSHEV_BLOCK", rows.size)
            assert np.array_equal(Y, unit_columns(S2, coef, rows))
        assert np.array_equal(Y, alone)


@pytest.mark.parametrize("n", range(1, 14))
def test_site_operator_product_is_2s_within_its_rounding(rng, n):
    # the split product against 2 S = 2 (R - c)/h assembled from e and t
    # in extended precision: each entry within gamma_{n+3} (|2 S| |X|)
    # of it, the bound _site_form_series takes for a product. Up to n = 8
    # the assembled rows are checked against a dense 2 S from the dense
    # Pauli flips; at n = 1 the low factor has no bits
    dim, w = 1 << n, 5
    e = rng.uniform(-3.0, 5.0, dim)
    t = rng.uniform(-0.7, 0.7, n)
    c, h = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(4.0, 9.0))
    S2 = numerics._SiteOperator(e, t, c, h)
    assert S2.low == n // 2 and S2.dim == dim
    top, low = dim >> S2.low, 1 << S2.low
    X = rng.standard_normal((top, w, low))
    out, tmp = np.empty_like(X), np.empty_like(X)
    S2.product(X, out, tmp)
    got = out.transpose(0, 2, 1).reshape(dim, w)
    x = X.transpose(0, 2, 1).reshape(dim, w).astype(np.longdouble)
    d = 2 * (e.astype(np.longdouble) - c) / h
    f = 2 * t.astype(np.longdouble) / h
    idx = np.arange(dim)
    want, size = d[:, None] * x, np.abs(d)[:, None] * np.abs(x)
    for q in range(n):
        flipped = x[idx ^ (1 << (n - 1 - q))]
        want += f[q] * flipped
        size += abs(f[q]) * np.abs(flipped)
    if n <= 8:
        flips = [pauli_matrix(PauliString.from_letters(n, {q: "X"})).real for q in range(n)]
        dense = np.diag(d.astype(np.float64)) + sum(float(f[q]) * flips[q] for q in range(n))
        assert np.allclose(dense @ x.astype(np.float64), want.astype(np.float64), rtol=0, atol=1e-12)
    assert (np.abs(got - want) <= numerics._gamma(n + 3) * size).all()


def test_site_form_ratio_at_beta_zero_is_the_block_size_ratio():
    # at beta 0 the series is the identity (coefficients exactly [1.0]),
    # so Delta = |B| / |A| = 165 / 11 exactly
    from bottlenecklab import stability

    H0, cert = stability.sweep_model("repetition", 10, ((0, 0), 1, 2))
    H = perturb(H0, random_local_perturbation(10, 0.01, 3))
    rows = [np.flatnonzero(block.labels[1]) for block in (cert.V, cert.boundary)]
    assert [r.size for r in rows] == [11, 165]
    assert numerics.site_form_ratio(H.diagonal(), H.flips, 0.0, *rows) == 15.0


def test_site_form_columns_of_a_product_match_the_site_exponentials(rng):
    # with no diagonal beyond the sites' own, e^{-beta R} is the tensor
    # product of the 2x2 exponentials, each exact to rounding
    n, beta = 6, 4.0
    terms = [rng.standard_normal((2, 2)) for _ in range(n)]
    terms = [0.5 * (T + T.T) for T in terms]
    idx = np.arange(1 << n)
    e = np.zeros(1 << n)
    for q, T in enumerate(terms):
        bit = (idx >> (n - 1 - q)) & 1
        e += T[bit, bit]
    t = np.array([T[0, 1] for T in terms])
    cols = np.array([0, 5, 17, 63])
    S2, coef, err, lo = numerics._site_form_series(e, t, beta, cols.size)
    Y = unit_columns(S2, coef, cols)
    full = np.ones((1, 1))
    for T in terms:
        w, U = np.linalg.eigh(T)
        full = np.kron(full, (U * np.exp(-beta * (w - lo / n))) @ U.T)
    assert 0 < err < 1e-13
    assert np.linalg.norm(Y - full[:, cols], axis=0).max() <= err + 1e-14
