"""Dense linear-algebra kernels shared by the rest of the package.

Matrices are plain complex numpy arrays; operator_norm keeps a real one
real, for the real forms of perturbed Hamiltonians. Density matrices get
a thin wrapper so the basic sanity checks (hermiticity, unit trace) run
once at construction instead of being re-derived ad hoc at every call
site; the wrapper is frozen and its array read-only, so what was checked
stays true.

Norm conventions: trace_norm is the Schatten 1-norm (sum of singular
values), operator_norm the Schatten infinity-norm (largest singular
value). For Hermitian input the singular values are the absolute
eigenvalues and we use the cheaper symmetric eigensolver.

Eigensolver route: a Hamiltonian that knows its real gauge at
construction (a diagonal unitary D with D^dag H D real symmetric) is
solved on that real form by LAPACK dsyevd, and nothing here runs on it.
model.build_hamiltonian gives every check Hamiltonian as real with D = I
(CSS X terms (I - X)/2 are real), and model.random_local_perturbation
gives single-site terms on distinct sites with D the product of one
phase per site, so a classical H0 plus such terms stays real through
model.perturb. model.thermal_state and stability.tail_amplitudes keep
its eigenvectors as U_r with D apart, since what they read (Delta and
tail amplitudes) are norms that the unit phases leave unchanged;
model.spectrum returns D U_r, not phase-fixed. Dense matrices without a
known gauge come here: hermitian_eigensystem and hermitian_eigenvalues
first look for D themselves. The phases are set along a breadth-first
spanning tree of the nonzero off-diagonal pattern (theta_j = theta_i -
arg H_ij, one root per connected component), so tree entries come out
real positive; every entry is then checked, not only the tree. The real
solve (dsyevd instead of zheevd: 0.22 s against 1.0 s at dim 1024 on a
2-core OpenBLAS machine) runs only when the dropped imaginary part has
max row l1 sum, an upper bound on its operator norm, at most 1e-12 *
max(1, max|H|); eigenvectors come back as D U_r, phase-fixed. Anything
else, such as a 3-cycle with nonzero flux or a generic two-site complex
term, takes the complex solver unchanged. _gauged stays the reference
for the construction gauge, and trace_norm reaches it on every
Hermitian input.
"""

import math
from dataclasses import dataclass, field

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
    "matrix_of",
    "maximally_mixed",
]

_HERMITICITY_TOL = 1e-10
_GAUGE_REL_TOL = 1e-12


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


def _is_hermitian(M, tol=_HERMITICITY_TOL):
    return M.shape[0] == M.shape[1] and np.abs(M - M.conj().T).max() <= tol


def max_offdiagonal(M):
    """Largest |M_ij| over i != j; 0.0 for an empty matrix. Callers compare
    it against their own tolerance to decide whether M is diagonal."""
    off = np.abs(M)
    if not off.size:
        return 0.0
    np.fill_diagonal(off, 0.0)
    return off.max()


def trace_norm(M):
    """Schatten 1-norm of a square matrix.

    Hermitian input (within 1e-12) is routed through
    hermitian_eigenvalues; the singular values of a Hermitian matrix are
    the moduli of its eigenvalues, so both paths agree to rounding.
    """
    M = _require_square(M)
    if M.shape[0] == 0:
        return 0.0
    if _is_hermitian(M, 1e-12):
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


def fix_phases(columns, tol=1e-12):
    """Rotate each column so its first significantly nonzero entry is real positive.

    Leaves norms untouched; used to make eigenvector and basis output
    reproducible where the backend only fixes them up to phase. Columns
    with no entry above tol are returned unchanged.
    """
    out = np.array(columns, dtype=np.complex128, copy=True)
    if out.size == 0:
        return out
    big = np.abs(out) > tol
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


def _symmetrized(H):
    """(H + H^dag)/2 after checking max|H - H^dag| <= 1e-10 (NotHermitian)."""
    H = _require_square(H)
    Hd = np.ascontiguousarray(H.conj().T)
    dev = np.abs(H - Hd).max() if H.size else 0.0
    if dev > _HERMITICITY_TOL:
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e}")
    Hd += H
    Hd *= 0.5
    return Hd


def _gauge_phases(H):
    """Unit phases d with d_j = d_i conj(H_ij)/|H_ij| along a BFS spanning forest.

    The forest covers the nonzero off-diagonal pattern of H; each
    component's root (and each isolated index) gets phase 1. Real input
    gets exact signs, since conj(h)/|h| is exactly +-1 for real h.
    """
    dim = H.shape[0]
    linked = H != 0
    np.fill_diagonal(linked, False)
    d = np.ones(dim, dtype=np.complex128)
    seen = ~linked.any(axis=1)
    while not seen.all():
        frontier = np.flatnonzero(~seen)[:1]
        seen[frontier] = True
        while frontier.size:
            unseen = np.flatnonzero(~seen)
            links = linked[np.ix_(frontier, unseen)]
            reached = links.any(axis=0)
            child = unseen[reached]
            parent = frontier[links[:, reached].argmax(axis=0)]
            h = H[parent, child]
            d[child] = d[parent] * (h.conj() / np.abs(h))
            seen[child] = True
            frontier = child
    return d


def _gauged(H):
    """(d, D^dag H D) when a checked diagonal gauge makes H real, else (None, H).

    H must already be Hermitian. The imaginary part of D^dag H D that the
    real solve drops must have max row l1 sum (which bounds its operator
    norm) at most 1e-12 * max(1, max|H|). A matrix with no imaginary part
    at all is its own gauge (D = I), found without the spanning tree.
    """
    if H.size == 0:
        return None, H
    if not H.imag.any():
        return np.ones(H.shape[0]), np.ascontiguousarray(H.real)
    d = _gauge_phases(H)
    G = d.conj()[:, None] * H
    G *= d[None, :]
    dropped = np.abs(G.imag).sum(axis=1).max()
    if dropped > _GAUGE_REL_TOL * max(1.0, float(np.abs(H).max())):
        return None, H
    return d, np.ascontiguousarray(G.real)


def hermitian_eigensystem(H):
    """Eigenvalues (ascending) and phase-fixed eigenvectors of a Hermitian matrix.

    Raises NotHermitian when max|H - H^dag| exceeds 1e-10. Reconstruction
    H = V diag(w) V^dag holds within 1e-8 * operator_norm(H); eigenvectors
    with degenerate eigenvalues come back in backend order with the phase
    of the first nonzero component fixed real positive. When a checked
    diagonal gauge makes H real (see the module docstring) the real
    symmetric solver runs and V = D U_r.
    """
    d, M = _gauged(_symmetrized(H))
    w, V = np.linalg.eigh(M)
    if d is not None:
        V = d[:, None] * V
    return w, fix_phases(V)


def hermitian_eigenvalues(H):
    """Ascending eigenvalues of a Hermitian matrix, by the same route as
    hermitian_eigensystem (same NotHermitian check, same gauge test)."""
    return np.linalg.eigvalsh(_gauged(_symmetrized(H))[1])


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace operator on n qubits.

    Construction checks hermiticity (1e-10) and unit trace (1e-10).
    Positivity is a mathematical invariant of everything this package
    produces (channel outputs, Gibbs states, normalized projections);
    the eigenvalue check costs a full diagonalization, so it lives in
    validate() and in the test suite rather than on every construction.
    The checked array is made read-only and the fields cannot be
    reassigned, so a DensityMatrix stays what its construction checked
    and callers may take it as checked.
    """

    mat: np.ndarray
    n: int = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "mat", _require_square(self.mat))
        dim = self.mat.shape[0]
        if self.n is None:
            n = int(dim).bit_length() - 1
            if 2**n != dim:
                raise DimensionMismatch(f"dimension {dim} is not a power of two")
            object.__setattr__(self, "n", n)
        if 2**self.n != dim:
            raise DimensionMismatch(f"dim {dim} does not match n={self.n}")
        dev = np.abs(self.mat - self.mat.conj().T).max()
        if dev > _HERMITICITY_TOL:
            raise NotHermitian(f"density matrix deviates from Hermitian by {dev:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace is {tr}, expected 1")
        self.mat.flags.writeable = False

    @property
    def dim(self):
        return self.mat.shape[0]

    def validate(self, floor=-1e-10):
        """Check positivity: smallest eigenvalue must be >= floor."""
        lo = float(np.linalg.eigvalsh(self.mat)[0])
        if lo < floor:
            raise ValueError(f"negative eigenvalue {lo:.3e} below floor {floor:.1e}")
        return lo


def matrix_of(rho):
    """The array behind a DensityMatrix; anything else through np.asarray."""
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)


def maximally_mixed(n):
    dim = 2**n
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim, n)
