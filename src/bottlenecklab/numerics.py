"""Dense linear-algebra kernels and the tolerance table of the package.

Matrices are plain complex numpy arrays; operator_norm keeps a real one
real, for the real forms of perturbed Hamiltonians. Density matrices get
a thin wrapper so the basic sanity checks (hermiticity, unit trace) run
once at construction instead of being re-derived ad hoc at every call
site; the wrapper is frozen and its array read-only, so what was checked
stays true. A state formed from label weights over an eigenbasis
(DensityMatrix.from_labels) keeps those weights, so a reader that needs
them takes them as they are instead of compressing the matrix again.

Norm conventions: trace_norm is the Schatten 1-norm (sum of singular
values), operator_norm the Schatten infinity-norm (largest singular
value). For Hermitian input the singular values are the absolute
eigenvalues and we use the cheaper symmetric eigensolver.

Eigensolver route: model gives a Hamiltonian its real gauge (a diagonal
unitary D with D^dag H D real symmetric) when it builds it, and solves
that real form with LAPACK dsyevd itself. hermitian_eigensystem and
hermitian_eigenvalues take the rest: from model only the complex dense
sum of a CSS H0 and a perturbation, and from trace_norm every Hermitian
input. They symmetrize, take the real part when the imaginary part is
exactly zero (so real input keeps dsyevd), and otherwise run the complex
solver; no gauge is searched for at solve time.

Spectrum-free route: site_form_ratio reads a bottleneck ratio from a few
basis columns of e^{-beta R}, for a real site form R = diag(e) + sum_q
t_q X_q (model's form of a classical H0 plus one term per site), or
None when the bound does not certify it. _site_form_series sets up the
Chebyshev series of e^{-beta R} with sparse products and derives the
bound on each column's error before any product runs.
"""

import math
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import DimensionMismatch, NonSquare, NotHermitian

__all__ = [
    "DensityMatrix",
    "trace_norm",
    "operator_norm",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "fix_phases",
    "logsumexp",
    "max_offdiagonal",
    "label_weights",
    "matrix_of",
    "maximally_mixed",
    "site_form_ratio",
]

# Tolerance table, read elsewhere as tol.NAME: "abs" in the check's units, "rel" times a scale.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2  # u, the unit of the rounding bounds below
HERMITICITY_TOL = 1e-10  # abs: max |M - M^dag| of a state, a Hamiltonian or a solver's input
TRACE_NORM_HERMITIAN_TOL = 1e-12  # abs: max |M - M^dag| at which trace_norm takes eigenvalues
TRACE_TOL = 1e-9  # abs: |tr rho - 1|, and |sum p - 1| and -min p of a state's label weights
PHASE_PIVOT_TOL = 1e-12  # abs: |entry| past which fix_phases takes it as its column's pivot
GAUGE_REL_TOL = 1e-12  # rel to max(1, max |V|): imaginary part a single-site gauge may drop
DIAGONAL_TOL = 1e-12  # abs: largest off-diagonal |H_ij| of a Hamiltonian that is diagonal
CSS_BASIS_TOL = 1e-10  # abs: unitarity and syndrome-phase deviation of a CSS label basis
PAULI_PHASE_TOL = 1e-9  # abs: ||phase| - 1| of a Pauli image over a label basis
KRAUS_TRACE_TOL = 1e-9  # abs: largest entry of sum_m K_m^dag K_m - 1 a channel may carry
SUPPORT_TOL = 1e-9  # abs: entry deviation past which a qubit is in a Kraus operator's support
DENSE_CONDITION_TOL = 1e-9  # abs: Kraus-condition residual at which a dense theorem check raises
GIBBS_FIXED_POINT_TOL = 1e-10  # abs: l1 residual of the Gibbs vector under one sampler step
CHANNEL_FIXED_POINT_TOL = 1e-9  # abs: residual of rho under one channel step in the theorem checks
COLUMN_SUM_TOL = 1e-12  # abs: |column sum - 1| of a stochastic matrix
PROBABILITY_SUM_TOL = 1e-12  # abs: |sum pi - 1| of a claimed stationary law
STATIONARY_TOL = 1e-10  # abs: ||M pi - pi||_1 of a claimed stationary law
EMPTY_WEIGHT_TOL = 1e-12  # abs: tr(P_A rho), or pi(A), at or below which an A block is empty
CLASSICAL_BOUND_REL_SLACK = 1e-12  # rel to the bound: lhs <= 2 pi(B)/pi(A) (1 + slack + N u),
# N the summands of the flow, pi(A) and pi(B) (markov._bound_slack)
DETAILED_BALANCE_ULPS = 32  # u, rel to the larger side: |pi(x) M(y|x) - pi(y) M(x|y)|, plus
# 2 beta (E - E_min) u for the exps, E the highest energy of the edges (markov.GlauberFlow)
THEOREM_SLACK = 1e-8  # abs: lhs <= 10 Delta steps, quasi-local and free-energy bounds + slack
DIAGONAL_BOUND_SLACK = 1e-10  # abs: ||rho P||_1 <= sqrt(tr(rho P)) + slack
PRODUCT_DRIFT_SLACK = 1e-9  # abs: composed drift <= sum of the single-step drifts + slack
MIXING_BOUND_SLACK = 1e-9  # abs: observed mixing step >= its lower bound - slack
COLLAR_COMMUTATOR_TOL = 1e-9  # abs: ||[rho, P]|| below which free-energy bound (b) applies
LOG_Z_SLACK = 1e-12  # abs: log Z >= -slack for free-energy bound (a) to apply
DEGENERACY_TOL = 1e-9  # abs: energy above the minimum still counted as ground degeneracy
AMPLITUDE_SLACK = 1e-12  # abs: a tail amplitude lies in [-slack, 1 + slack]
SHELL_WIDTH_SLACK = 1e-12  # abs: shell width delta_E <= its admissible maximum + slack
SHELL_COUNT_REL_TOL = 1e-9  # rel to max(1, q): distance of a shell count q from an integer
SHELL_INDEX_SLACK = 1e-12  # abs: rounding margin of a shell index's floor and a count's ceil
BLOCK_TRIDIAGONAL_TOL = 1e-9  # abs: block norm of V past the shell tridiagonal that passes
PERTURBATION_SLACK = 1e-9  # abs: ||H - H0|| <= g n + slack
TAIL_BOUND_SLACK = 1e-9  # abs: tail amplitude <= e^{-lambda n} + slack
BOUNDARY_FLOOR_SLACK = 1e-9  # abs: perturbed boundary floor >= E_min - g n - slack
PROOF_CHAIN_SLACK = 1e-8  # abs: delta^2 <= the proof-chain value + slack
FIT_SS_FLOOR = 1e-30  # abs: total sum of squares of a decay fit above which its r2 is computed
CHEBYSHEV_TAIL = 1e-18  # abs per unit column: truncation target of the Chebyshev series
IVE_SUM_ERR = 64 * UNIT_ROUNDOFF  # abs: sum of _scaled_bessel's errors at orders 0..K (1.3 u seen)
RATIO_REL_TOL = 5e-10  # rel: error certified on each piece of a ratio, so Delta within 1e-9
BESSEL_SERIES_Z = 2.0**-100  # abs: z below which _scaled_bessel takes the power series
BESSEL_RESCALE = 1e250  # abs: value past which the Bessel recurrence scales all by its inverse


def _as_matrix(M):
    M = np.asarray(M)
    if M.ndim != 2:
        raise NonSquare(f"expected a 2d matrix, got shape {M.shape}")
    return M.astype(np.complex128, copy=False)


def _require_square(M):
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
    return M


def max_offdiagonal(M):
    """Largest |M_ij| over i != j (0.0 for an empty matrix); diagonal below DIAGONAL_TOL."""
    off = np.abs(M)
    if not off.size:
        return 0.0
    np.fill_diagonal(off, 0.0)
    return off.max()


def trace_norm(M):
    """Schatten 1-norm of a square matrix.

    Hermitian input (within TRACE_NORM_HERMITIAN_TOL) is routed through
    hermitian_eigenvalues; the singular values of a Hermitian matrix are
    the moduli of its eigenvalues, so both paths agree to rounding.
    """
    M = _require_square(M)
    if M.shape[0] == 0:
        return 0.0
    if np.abs(M - M.conj().T).max() <= TRACE_NORM_HERMITIAN_TOL:
        return float(np.abs(hermitian_eigenvalues(M)).sum())
    return float(np.linalg.svd(M, compute_uv=False).sum())


def operator_norm(M):
    """Largest singular value. Accepts rectangular input; a real float
    matrix keeps the real SVD."""
    M = np.asarray(M)
    if M.dtype != np.float64 or M.ndim != 2:
        M = _as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def fix_phases(columns):
    """Rotate each column so its first significantly nonzero entry is real positive.

    Leaves norms untouched; used to make eigenvector and basis output
    reproducible where the backend only fixes them up to phase. Columns
    with no entry above PHASE_PIVOT_TOL are returned unchanged.
    """
    out = np.array(columns, dtype=np.complex128, copy=True)
    if out.size == 0:
        return out
    big = np.abs(out) > PHASE_PIVOT_TOL
    has = big.any(axis=0)
    pivot = out[big.argmax(axis=0), np.arange(out.shape[1])]
    # Scalar division per pivot: numpy's vectorised complex division rounds
    # differently, and these factors must match the per-column definition.
    factor = np.array(
        [abs(p) / p if h else 1.0 for p, h in zip(pivot, has)], dtype=np.complex128
    )
    np.multiply(out, factor, out=out, where=has[None, :])
    return out


def logsumexp(a, b=None):
    """log sum_i b_i e^{a_i} over a flattened a, with nonnegative weights b
    of the same size (all 1 when b is None).

    Entries with zero weight are left out, so -inf comes back when every
    weight is zero (or a is empty). The largest remaining exponent is
    shifted out before exponentiating, so no term overflows, and the
    terms at that maximum are summed apart from the rest: the result is
    log1p(s / m) + log(m) + max, with m their total weight and s the
    shifted sum of the others, which keeps full precision when the
    maximum dominates.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.ones_like(a) if b is None else np.asarray(b, dtype=np.float64).reshape(-1)
    keep = b != 0
    a, b = a[keep], b[keep]
    if a.size == 0:
        return -math.inf
    top = a.max()
    if not np.isfinite(top):
        return float(top)
    at_top = a == top
    m = b[at_top].sum()
    s = (b[~at_top] * np.exp(a[~at_top] - top)).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


# columns run through the recurrence together, so that the few arrays of
# one block stay in cache: on repetition, beta 3, the series took a median
# 51 ms in 32-column blocks against 61 ms in one block at n = 10 (176
# columns, K = 39), and 529 ms against 782 ms at n = 12 (299 columns)
_CHEBYSHEV_BLOCK = 32


def _gamma(k):
    """gamma_k = k u / (1 - k u): k roundings, each of relative size at
    most u, compound to a relative error of at most gamma_k."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _chebyshev_order(z, cap):
    """(K, tail): the smallest K >= z/2 whose series tail 2 sum_{k>K}
    ive(k, z) is at most CHEBYSHEV_TAIL, and that tail's bound; None
    when that K is above cap.

    The power series of I_k gives I_k(z) <= (z/2)^k / k! e^{z^2/(4(k+1))}
    (bound (k+j)! below by k! (k+1)^j) and I_{k+1}(z) <= z/(2(k+1)) I_k(z)
    (term by term), so the tail past K is at most 2 ive(K+1, z) / (1 -
    rho), rho = z/(2(K+2)) < 1, with ive(K+1, z) bounded by the first
    form. No library Bessel value enters the tail.
    """
    if z == 0.0:
        return 0, 0.0
    K = max(1, math.ceil(z / 2))
    while K <= cap:
        rho = z / (2 * (K + 2))
        log_tail = (
            (K + 1) * (math.log(z) - math.log(2))
            - math.lgamma(K + 2)
            + z * z / (4 * (K + 2))
            - z
            + math.log(2 / (1 - rho))
        )
        if log_tail <= math.log(CHEBYSHEV_TAIL):
            return K, math.exp(log_tail)
        K += 1
    return None


def _scaled_bessel(K, z):
    """ive(k, z) = e^{-z} I_k(z) for k = 0..K and z >= 0, by Miller's
    backward recurrence (Gautschi, SIAM Review 9, 24 (1967)).

    I_{k-1} = (2k/z) I_k + I_{k+1} runs down from I_{N+1} = 0, I_N = 1,
    N = 2K + 30 + ceil(sqrt(40 max(z, 1))), far enough past K and past
    the bulk of the I_k(z) (which falls off as e^{-k^2/(2z)}) that the
    error of the arbitrary start falls below rounding. Every value so
    far is scaled by 1/BESSEL_RESCALE whenever one passes it, and they
    are divided by the sum rule I_0 + 2 sum_{k>0} I_k = e^z. Below
    BESSEL_SERIES_Z, where 2k/z could overflow, the power series gives [1,
    z/2, 0, ...] to rounding (so exactly [1.0] at z = 0).
    """
    out = np.zeros(K + 1)
    if z < BESSEL_SERIES_Z:
        out[0] = 1.0
        if K:
            out[1] = 0.5 * z
        return out
    N = 2 * K + 30 + math.ceil(math.sqrt(40 * max(z, 1.0)))
    up, cur, total, shrink = 0.0, 1.0, 0.0, 1 / BESSEL_RESCALE
    for k in range(N, 0, -1):
        if k <= K:
            out[k] = cur
        total += cur
        up, cur = cur, 2 * k / z * cur + up
        if cur > BESSEL_RESCALE:
            up, cur, total = up * shrink, cur * shrink, total * shrink
            out *= shrink
    out[0] = cur
    return out / (2 * total + cur)


def _chebyshev_block(S2, coef, prev):
    """sum_k coef[k] T_k(S) X for one C-ordered block X = prev of start
    columns, S2 = 2 S: the forward three-term recurrence, v_{k+1} = (2 S)
    v_k - v_{k-1}. Each column runs alone, so the width of the block
    changes no bit."""
    acc = coef[0] * prev
    if coef.size > 1:
        cur = S2 @ prev
        cur *= 0.5
        term = np.empty_like(cur)
        for k in range(1, coef.size):
            if k > 1:
                nxt = S2 @ cur
                nxt -= prev
                prev, cur = cur, nxt
            np.multiply(cur, coef[k], out=term)
            acc += term
    return acc


def _chebyshev_series(S2, coef, X):
    """sum_k coef[k] T_k(S) X, S2 = 2 S, on blocks of _CHEBYSHEV_BLOCK
    columns of X (_chebyshev_block)."""
    Y = np.empty_like(X)
    for first in range(0, X.shape[1], _CHEBYSHEV_BLOCK):
        block = slice(first, first + _CHEBYSHEV_BLOCK)
        Y[:, block] = _chebyshev_block(S2, coef, np.ascontiguousarray(X[:, block]))
    return Y


def _unit_series(S2, coef, rows_a, rows_b):
    """(diag, YB) for Y = _chebyshev_series(S2, coef, X), X the unit
    columns of rows_a then rows_b: diag[i] = Y[rows_a[i], i] and YB the
    rows_b columns of Y, bit for bit. Each block of _CHEBYSHEV_BLOCK
    columns starts from its own unit columns, so neither X nor the A
    columns of Y is formed."""
    dim = S2.shape[0]

    def blocks(rows):
        for first in range(0, rows.size, _CHEBYSHEV_BLOCK):
            part = rows[first : first + _CHEBYSHEV_BLOCK]
            at = (part, np.arange(part.size))
            X = np.zeros((dim, part.size))
            X[at] = 1.0
            yield slice(first, first + part.size), _chebyshev_block(S2, coef, X), at

    diag, YB = np.empty(rows_a.size), np.empty((dim, rows_b.size))
    for block, Y, at in blocks(rows_a):
        diag[block] = Y[at]
    for block, Y, _ in blocks(rows_b):
        YB[:, block] = Y
    return diag, YB


def _site_form_series(e, t, beta, width):
    """The Chebyshev series of e^{-beta (R - lo)}, for the real form R =
    diag(e) + sum_q t_q X_q on n = len(t) qubits, with X_q the flip of
    qubit q (bit n-1-q of a basis index), set up for a start block of
    width columns: (S2, coef, err, lo), with _chebyshev_series(S2, coef,
    X) within err ||x|| of e^{-beta (R - lo)} x in the 2-norm for each
    column x of X. err is known before any product runs. Returns None
    when the K products, each touching (n + 1) width dim entries, would
    come to more than the dim^3 of a dense eigensolve: then the solve is
    the cheaper route.

    Route (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)). Every
    row of R has the Gershgorin radius r = sum |t_q|, so the spectrum lies
    in [lo, lo + 2h] with lo = c - h, c the midpoint of [min e - r, max e
    + r] and h its half width, padded by 4 (n + 4) u max(|min e - r|, |max
    e + r|) so that |e_j - c| + r <= h holds exactly for the floats c and
    h. With S = (R - c)/h, which has its spectrum in [-1, 1] and max row
    sum of |S| at most 1, and z = beta h,

        e^{-beta (R - lo)} = e^{-z (S + 1)} = sum_k c_k T_k(S),
        c_0 = ive(0, z), c_k = 2 (-1)^k ive(k, z),

    the Chebyshev series of e^{-z x} (generating function of I_k at s =
    -e^{i theta}), scaled by e^{-z}. It is cut at the order K of
    _chebyshev_order, and v_k = T_k(S) x runs the three-term recurrence
    v_{k+1} = 2 S v_k - v_{k-1} with 2 S stored in CSR form, m = n + 1
    entries per row, on blocks of _CHEBYSHEV_BLOCK columns.

    Error bound, per start column x of norm 1 (it scales with ||x||), u
    the unit roundoff and gamma_k = k u / (1 - k u):
    - truncation: the tail of _chebyshev_order, since |T_k| <= 1 on
      [-1, 1];
    - coefficients: the ive values for one z are taken to be off by at
      most IVE_SUM_ERR in total, so sum_k |c~_k - c_k| ||T_k(S) x|| <= 2
      IVE_SUM_ERR; since c_0 + sum_{k>0} |c_k| = sum over all integer k
      of ive(k, z) = 1, a sum of |c~_k| that misses 1 by more than the
      tail, that error and the rounding of the sum voids the bound (err
      is then inf);
    - recurrence: a stored entry of S is within gamma_2 of the exact one
      (doubling it is exact), and a product row sums m terms, so fl(S v)
      = S v + d with |d| <= gamma_{m+2} |S| |v|; the subtraction rounds
      once, so the computed v_{k+1} = 2 S v_k - v_{k-1} + xi_k with |xi_k|
      <= 2 gamma_{m+3} |S| |v_k| + u |v_{k-1}|. In the 2-norm ||xi_k|| <=
      kappa (1 + eta), kappa = 2 gamma_{m+3} + u, as long as every
      ||v_k|| <= 1 + eta. The error of v_k is sum_{j<k} U_{k-1-j}(S)
      xi_j, U the Chebyshev polynomials of the second kind, with
      ||U_l(S)|| <= l + 1; so ||v_k - T_k(S) x|| <= kappa (1 + eta) k (k +
      1)/2, which fixes eta = q / (1 - q), q = kappa K (K + 1)/2, and
      the recurrence errors reach the sum as at most kappa (1 + eta)
      sum_{j<K} w_j, w_j = sum_{k>j} |c~_k| (k - j);
    - summation: Y accumulates the K + 1 products c~_k v_k in turn, so it
      is off by at most gamma_{K+1} (1 + eta) sum_k |c~_k|.
    err is the sum of the four. The coefficients come from
    _scaled_bessel, and scipy.sparse, the one scipy module the route
    loads, is imported here, so importing the package loads no scipy
    module.
    """
    from scipy import sparse

    n, dim, u = t.size, e.size, UNIT_ROUNDOFF
    r = float(np.abs(t).sum())
    a, b = float(e.min()) - r, float(e.max()) + r
    c = 0.5 * (a + b)
    # h = 0 only for R = 0, where any h > 0 keeps the spectrum in [-1, 1]
    h = 0.5 * (b - a) + 4 * (n + 4) * u * max(abs(a), abs(b)) or 1.0
    z = beta * h
    order = _chebyshev_order(z, dim * dim // ((n + 1) * max(width, 1)))
    if order is None:
        return None
    K, tail = order
    coef = 2.0 * _scaled_bessel(K, z)
    coef[0] *= 0.5
    coef[1::2] *= -1.0
    size = np.abs(coef)
    kappa = 2 * _gamma(n + 4) + u
    q = kappa * K * (K + 1) / 2
    # w_j = sum_{k>j} |c_k| (k - j) from suffix sums of |c_k| and k |c_k|
    after = np.cumsum(size[::-1])[::-1][1:]
    weighted = np.cumsum((size * np.arange(K + 1))[::-1])[::-1][1:]
    w = weighted - np.arange(K) * after
    total = size.sum()
    if q >= 0.5 or abs(total - 1.0) > tail + 2 * IVE_SUM_ERR + _gamma(K + 1) * total:
        err = math.inf
    else:
        growth = 1.0 + q / (1.0 - q)
        err = tail + 2 * IVE_SUM_ERR + kappa * growth * w.sum() + _gamma(K + 1) * growth * total
    idx = np.arange(dim)
    flips = idx[:, None] ^ (1 << (n - 1 - np.arange(n)))[None, :]
    data = np.empty((dim, n + 1))
    data[:, 0] = (e - c) / h
    data[:, 1:] = t / h
    data *= 2.0
    S2 = sparse.csr_array(
        (data.ravel(), np.hstack([idx[:, None], flips]).ravel(), np.arange(0, dim * (n + 1) + 1, n + 1)),
        shape=(dim, dim),
    )
    return S2, coef, float(err), c - h


def _numerator_reach(S2, coef, err, t, rows_b):
    """An upper bound on ||P_B e^{-beta (R - lo)}||_1, B spanned by the
    basis states rows_b, from one series column (S2, coef and err from
    _site_form_series).

    The gauge G = diag(g_x), g_x the product of s_q = -1 if t_q > 0 else
    1 over the qubits q set in x, turns every off-diagonal entry t_q of R
    into -|t_q|, so N = G e^{-beta (R - lo)} G, the exponential of a
    matrix whose off-diagonal is nonnegative, has no negative entry. For
    the probe x = G 1_B then ||e^{-beta (R - lo)} x||^2 = ||N 1_B||^2 >=
    ||N P_B||_F^2, as no cross term is negative, and the trace norm of a
    matrix of rank at most |B| is at most sqrt|B| times its Frobenius
    norm. The computed column y is within sqrt|B| err of the exact one and
    its norm within gamma_dim of ||y||, so the bound is sqrt|B| (||y|| (1
    + gamma_dim) + sqrt|B| err). On repetition, n = 10 and 12, g 0.01, it
    was 3 to 3.6 times the numerator at beta 3 and 68 to 110 times at
    beta 10 and 30, where the numerator lies far below |B| err.
    """
    n, dim, nb = t.size, S2.shape[0], rows_b.size
    s = np.where(t > 0, -1.0, 1.0)
    bits = (rows_b[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    x = np.zeros((dim, 1))
    x[rows_b, 0] = np.where(bits == 1, s, 1.0).prod(axis=1)
    y = float(np.linalg.norm(_chebyshev_series(S2, coef, x)))
    return math.sqrt(nb) * (y * (1 + _gamma(dim)) + math.sqrt(nb) * err)


def site_form_ratio(e, t, beta, rows_a, rows_b):
    """Delta = ||P_B e^{-beta R}||_1 / tr(P_A e^{-beta R}) for the real form
    R of _site_form_series and blocks A, B spanned by the basis
    states rows_a, rows_b; None when the bound does not certify each
    piece to RATIO_REL_TOL relative, or when the series costs more than
    a dense solve (counting the probe below as one more column).

    Before the label columns run, _numerator_reach bounds the numerator
    from one series column; when |B| err, the least error the numerator
    can carry, is above RATIO_REL_TOL times that bound, no run of the
    label columns could certify it, and none is made.

    With Y the columns of e^{-beta (R - lo)} on rows_a then rows_b, of
    which _unit_series forms only the diagonal entries on A and the
    rows_b columns, Z and the shift by lo cancel in Delta. The
    denominator is the sum of the diagonal entries of Y on A, off by at
    most |A| err plus gamma_|A| times the sum of their moduli. The numerator is the sum of the singular
    values of the rows_b columns (e^{-beta R} is symmetric, so they are
    the rows of P_B e^{-beta R}), off by at most:
    - |B| err, since ||E||_1 <= sum of the column norms of E;
    - |B| p u sigma_1 for the SVD, whose computed singular values are
      those of a matrix within p u sigma_1 in norm, p = max(dim, |B|),
      the backward error LAPACK's SVD is taken to meet;
    - gamma_|B| times the sum for adding them up.
    None also when the denominator's lower bound is at most dim times the
    empty-A threshold: tr(P_A rho) >= that bound / dim, as Z <= dim here,
    so the eigensolve route raises EmptyA only where this one declines.
    """
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    na, nb, dim = rows_a.size, rows_b.size, e.size
    series = _site_form_series(e, t, beta, na + nb + 1)
    if series is None:
        return None
    S2, coef, err, _ = series
    if nb * err > RATIO_REL_TOL * _numerator_reach(S2, coef, err, t, rows_b):
        return None
    diag, YB = _unit_series(S2, coef, rows_a, rows_b)
    den = float(diag.sum())
    den_err = na * err + _gamma(na) * float(np.abs(diag).sum())
    sv = np.linalg.svd(YB, compute_uv=False)
    num = float(sv.sum())
    p_u = max(dim, nb) * UNIT_ROUNDOFF
    top = float(sv[0]) / (1 - p_u) if sv.size else 0.0
    num_err = nb * err + nb * p_u * top + _gamma(nb) * num
    low_den, low_num = den - den_err, num - num_err
    if low_den <= dim * EMPTY_WEIGHT_TOL or low_num <= 0.0:
        return None
    if den_err > RATIO_REL_TOL * low_den or num_err > RATIO_REL_TOL * low_num:
        return None
    return num / den


def _symmetrized(H):
    """(H + H^dag)/2 after checking max|H - H^dag| <= HERMITICITY_TOL (NotHermitian),
    as a real array when its imaginary part is exactly zero."""
    H = _require_square(H)
    Hd = np.ascontiguousarray(H.conj().T)
    dev = np.abs(H - Hd).max() if H.size else 0.0
    if not dev <= HERMITICITY_TOL:  # NaN fails the comparison too
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e}")
    Hd += H
    Hd *= 0.5
    return Hd if Hd.imag.any() else np.ascontiguousarray(Hd.real)


def hermitian_eigensystem(H):
    """Eigenvalues (ascending) and phase-fixed eigenvectors of a Hermitian matrix.

    Raises NotHermitian when max|H - H^dag| exceeds HERMITICITY_TOL. Reconstruction
    H = V diag(w) V^dag holds within 1e-8 * operator_norm(H); eigenvectors
    with degenerate eigenvalues come back in backend order with the phase
    of the first nonzero component fixed real positive. H with no
    imaginary part goes to the real symmetric solver.
    """
    w, V = np.linalg.eigh(_symmetrized(H))
    return w, fix_phases(V)


def hermitian_eigenvalues(H):
    """Ascending eigenvalues of a Hermitian matrix, by the same route as
    hermitian_eigensystem (same NotHermitian check, same real test)."""
    return np.linalg.eigvalsh(_symmetrized(H))


class DensityMatrix:
    """A positive unit-trace operator on n qubits.

    Construction from a matrix checks hermiticity (HERMITICITY_TOL) and unit
    trace (TRACE_TOL). Positivity is a mathematical invariant of everything this
    package produces (channel outputs, Gibbs states, normalized
    projections); the eigenvalue check costs a full diagonalization, so
    it lives in the test suite rather than on every construction.
    The checked array is made read-only and no attribute can be
    reassigned (FrozenInstanceError), so a DensityMatrix stays what its
    construction checked and callers may take it as checked.

    labels is (W, p) for a state built by from_labels, rho = W diag(p)
    W^dag over a LabelBasis W, and None for one built from a matrix: it
    is not a constructor argument, so a state carries labels only when
    its matrix was formed from them. Such a state forms mat the first
    time something reads it, and runs the same checks on it then; a
    reader of the labels alone never pays for the dim x dim matrix.
    """

    def __init__(self, mat, n=None):
        mat = _require_square(mat)
        dim = mat.shape[0]
        if n is None:
            n = int(dim).bit_length() - 1
            if 2**n != dim:
                raise DimensionMismatch(f"dimension {dim} is not a power of two")
        if 2**n != dim:
            raise DimensionMismatch(f"dim {dim} does not match n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", None)
        object.__setattr__(self, "_mat", _checked_density(mat))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        form = "labels" if self._mat is None else "matrix"
        return f"DensityMatrix(n={self.n}, {form})"

    @property
    def mat(self):
        """The dense matrix, formed from the labels on first read."""
        if self._mat is None:
            W, p = self.labels
            object.__setattr__(self, "_mat", _checked_density(W.outer(p)))
        return self._mat

    @classmethod
    def from_labels(cls, W, p):
        """rho = W diag(p) W^dag on W.n qubits, carrying labels (W, p).

        p must be a real probability vector over the columns of W: no
        entry below -TRACE_TOL and a sum within TRACE_TOL of 1 (ValueError
        otherwise). No matrix is formed here: mat is W.outer(p) on first
        read, one batched matmul over the blocks of W, and for the
        identity basis diag(p) exactly. p is stored read-only, as it is if
        it owns its data (Hamiltonian.gibbs's).
        """
        kept = isinstance(p, np.ndarray) and p.dtype == np.float64 and not p.flags.writeable
        p = p if kept and p.flags.owndata else np.array(p, dtype=np.float64)
        if p.shape != (W.dim,) or not np.isfinite(p).all():
            raise DimensionMismatch(f"label weights of shape {p.shape} for {W.dim} labels")
        if p.min() < -TRACE_TOL:
            raise ValueError(f"label weight {p.min()!r} is negative")
        if abs(p.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"label weights sum to {p.sum()!r}, expected 1")
        p.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "n", W.n)
        object.__setattr__(rho, "labels", (W, p))
        object.__setattr__(rho, "_mat", None)
        return rho


def _checked_density(mat):
    """mat made read-only after the hermiticity and unit-trace checks."""
    dev = np.abs(mat - mat.conj().T).max()
    if not dev <= HERMITICITY_TOL:  # NaN fails the comparison too
        raise NotHermitian(f"density matrix deviates from Hermitian by {dev:.3e}")
    tr = mat.trace()
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"trace is {tr}, expected 1")
    mat.flags.writeable = False
    return mat


def label_weights(rho, W):
    """The label probabilities p of rho = W diag(p) W^dag when rho is a
    DensityMatrix that carries labels over W (same_as); None otherwise.
    Nothing is computed: a state without labels is not compressed."""
    if isinstance(rho, DensityMatrix) and rho.labels is not None and rho.labels[0].same_as(W):
        return rho.labels[1]
    return None


def matrix_of(rho):
    """The array behind a DensityMatrix; anything else through np.asarray."""
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)


def maximally_mixed(n):
    dim = 2**n
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim, n)
