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

Eigensolver route: model gives a Hamiltonian its real gauge (a diagonal
unitary D with D^dag H D real symmetric) when it builds it, and solves
that real form with LAPACK dsyevd itself. hermitian_eigensystem and
hermitian_eigenvalues take the rest: from model only the complex dense
sum of a CSS H0 and a perturbation, and from trace_norm every Hermitian
input. They symmetrize, take the real part when the imaginary part is
exactly zero (so real input keeps dsyevd), and otherwise run the complex
solver; no gauge is searched for at solve time.
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
    """(H + H^dag)/2 after checking max|H - H^dag| <= 1e-10 (NotHermitian),
    as a real array when its imaginary part is exactly zero."""
    H = _require_square(H)
    Hd = np.ascontiguousarray(H.conj().T)
    dev = np.abs(H - Hd).max() if H.size else 0.0
    if dev > _HERMITICITY_TOL:
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e}")
    Hd += H
    Hd *= 0.5
    return Hd if Hd.imag.any() else np.ascontiguousarray(Hd.real)


def hermitian_eigensystem(H):
    """Eigenvalues (ascending) and phase-fixed eigenvectors of a Hermitian matrix.

    Raises NotHermitian when max|H - H^dag| exceeds 1e-10. Reconstruction
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
