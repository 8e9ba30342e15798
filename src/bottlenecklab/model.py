"""Commuting-projector Hamiltonians built from parity checks.

A model is a family of Z-type and X-type checks. Each check contributes a
projector term (1 - C)/2 resp. (1 - A)/2, so the energy of a state counts
the checks it violates and code states sit at energy zero. Classical
models have no X checks and are diagonal in the computational basis; CSS
models carry both kinds, with every Z/X support pair overlapping on an
even number of qubits.

Eigenstates of a CSS model are labeled |x, z> = X(x) Z(z) |psi0> where
psi0 is the uniform superposition over the span of the X-check supports.
Labels are classes: x modulo that span, z modulo its GF(2) orthogonal
complement. Distance between eigenstates is the minimal weight of a Pauli
string mapping one to the other, minimized over both stabilizer actions,
which collapses to plain Hamming distance for classical models.

label_basis holds every eigenstate as a column of one orthonormal basis,
so a barrier ball and its boundary shell are column selections: the
labels within some weight-1 moves of the center label, from the one
breadth-first search of subspace, for classical and CSS models alike.
label_energies gives each column's energy, the checks its syndrome
violates.

A check Hamiltonian is its labels: build_hamiltonian holds H0 as (W, E),
W = label_basis(checks) and E = label_energies(checks), for every family,
with no eigensolve and no dense matrix. label_basis certifies H0 W = W
diag(E) once, when it builds W. Readers take the labels: spectrum gives
(E, W), gibbs_state forms rho = W diag(p) W^dag from p = e^{-beta E}/Z
and the state carries (W, p), and subspace_min_energy reads the least E
of a ball or shell labeled over W. gibbs_weights is the one Gibbs law
over an energy vector; Hamiltonian.gibbs keeps it per beta for
gibbs_state and the samplers' fixed-point checks to share.

A Hamiltonian keeps a form M and unit phases d, H = D M D^dag, fixed
when it is built, and forms its dense matrix only when something reads
it. Check Hamiltonians are real (d = 1): a classical H0 keeps M as a
site form, a diagonal e with no flips, and a CSS H0 forms the dense real
M = W diag(E) W^dag on first read. A perturbation has one term per site
and is built real, as a site form, a diagonal e plus one flip weight
t_q per site, with one phase per site, so a classical H0 plus a
perturbation is solved, reduced to blocks and turned into Gibbs states
in real arithmetic. A perturbed H carries no labels, and spectrum and
thermal_state solve it. Eigensystem carries the eigenvectors of M with
d apart, and its vectors method gives those of H itself; ThermalState
keeps the eigenvectors of M alone. Every function here that takes a
Hamiltonian takes this type, not a raw matrix.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics as tol
from .errors import (
    BadPartition,
    BetaNegative,
    CenterOutsideSpace,
    ConfigInvalid,
    EmptyBoundary,
    EmptySubspace,
    ModelNotFound,
    NonCommutingChecks,
    NotClassical,
    NotDiagonal,
)
from .numerics import DensityMatrix, hermitian_eigensystem, max_offdiagonal
from .pauli import gf2_null_space_masks, gf2_span, mask_from_indices, popcount
from .subspace import LabelBasis, Subspace, ball, boundary, identity_basis

__all__ = [
    "CheckFamily",
    "Hamiltonian",
    "BarrierCertificate",
    "build_hamiltonian",
    "expansion_scan",
    "barrier_subspace",
    "spectrum",
    "ThermalState",
    "gibbs_weights",
    "thermal_state",
    "gibbs_state",
    "subspace_min_energy",
    "random_local_perturbation",
    "perturb",
    "label_basis",
    "label_energies",
    "ising_ring",
    "repetition",
    "curie_weiss",
    "steane7",
    "toric",
    "random_ldpc",
    "REGISTRY",
    "MODEL_KEYS",
    "SIZE_INDEXED",
    "build_model",
    "checks_from_text",
]


@dataclass(frozen=True)
class CheckFamily:
    """Parity checks over n qubits; x_checks empty for classical models."""

    n: int
    z_checks: tuple = ()
    x_checks: tuple = ()

    def __post_init__(self):
        for attr in ("z_checks", "x_checks"):
            cleaned = tuple(
                tuple(sorted(int(q) for q in supp)) for supp in getattr(self, attr)
            )
            object.__setattr__(self, attr, cleaned)
            for supp in cleaned:
                if len(set(supp)) != len(supp):
                    raise NonCommutingChecks(f"repeated qubit in support {supp}")
                if supp and (supp[0] < 0 or supp[-1] >= self.n):
                    raise NonCommutingChecks(f"support {supp} outside 0..{self.n - 1}")
        for zs in self.z_checks:
            for xs in self.x_checks:
                if len(set(zs) & set(xs)) % 2:
                    raise NonCommutingChecks(
                        f"Z support {zs} and X support {xs} overlap oddly"
                    )

    @property
    def is_classical(self):
        return not self.x_checks

    def z_masks(self):
        return np.array(
            [mask_from_indices(self.n, s) for s in self.z_checks], dtype=np.uint64
        )

    def x_masks(self):
        return np.array(
            [mask_from_indices(self.n, s) for s in self.x_checks], dtype=np.uint64
        )


class Hamiltonian:
    """A Hermitian operator on n qubits with the locality bookkeeping of
    the terms it was built from.

    H is kept as a form M and unit phases d (None for d = 1) with H = D M
    D^dag, D = diag(d), both fixed here and never searched for later. M is
    one of three things:
    - given flips, the site form M = diag(e) + sum_q t_q X_q, with form
      passed as the real diagonal e, flips as the n real weights t_q and
      X_q the flip of qubit q (bit n-1-q of a basis index);
      random_local_perturbation gives its one term per site as one, with
      one phase per site, and perturb keeps a diagonal H0 plus a site
      form a site form;
    - for a check Hamiltonian (build_hamiltonian), W diag(E) W^dag over
      its labels (W, E): the label basis of its checks and the checks
      each column violates. Over the identity basis (a classical family)
      that is the site form of E with no flips; over a CSS basis M is
      real and formed from the labels the first time it is read;
    - otherwise the dense array passed as form, taken as complex and as
      its own form, with no phases (perturb makes one from a CSS H0).
    The unit phases change no modulus of an entry and no singular value
    of a block, so is_diagonal, diagonal() and the norms and blocks that
    stability reads come from M. The dense form of a site form and the
    dense complex mat are formed only when something reads them.
    Construction checks Hermiticity: a dense M within HERMITICITY_TOL,
    and a site form is Hermitian exactly when its weights are real and
    finite. The arrays are then made read-only, so that check and the
    off-diagonal scan kept by offdiagonal stay true.

    labels is (W, E) for a check Hamiltonian and None otherwise. It is
    not a constructor argument: only build_hamiltonian sets it, after
    label_basis has checked that every check acts on every column of W as
    its syndrome sign, so H W = W diag(E) holds by construction.
    """

    def __init__(
        self,
        form,
        n,
        w0,
        w1,
        term_supports=(),
        checks=None,
        phases=None,
        flips=None,
    ):
        M, self._form = form, None
        if flips is not None:
            M, flips = np.asarray(M), np.asarray(flips)
            for w, size in ((M, 1 << n), (flips, n)):
                if w.shape != (size,) or w.dtype.kind not in "iuf" or not np.isfinite(w).all():
                    raise NonCommutingChecks(
                        "a site form needs 2^n diagonal and n flip weights, real and finite"
                    )
            M, flips = M.astype(np.float64), flips.astype(np.float64)
            flips.flags.writeable = False
        elif M is not None:
            M = np.asarray(M).astype(np.complex128, copy=False)
            dev = np.abs(M - M.conj().T).max() if M.size else 0.0
            if not dev <= tol.HERMITICITY_TOL:  # NaN fails the comparison too
                raise NonCommutingChecks(f"Hamiltonian not Hermitian (dev {dev:.3e})")
            self._form = M
        if M is not None:
            M.flags.writeable = False
        self._weights = M
        self.flips = flips
        self.phases = phases
        self._mat = self._form if phases is None else None
        self._offdiagonal = None
        self._labels = None
        self._gibbs, self._kept = {}, {}
        self.n = n
        self.w0 = w0
        self.w1 = w1
        self.term_supports = term_supports
        self.checks = checks

    @classmethod
    def _from_labels(cls, W, E, **bookkeeping):
        """W diag(E) W^dag carrying labels (W, E): the site form of E with
        no flips over the identity basis, and no form until one is read
        over any other basis."""
        site = W.identity
        H = cls(E if site else None, flips=np.zeros(W.n) if site else None, **bookkeeping)
        H._labels = (W, E)
        return H

    @property
    def labels(self):
        """(W, E) with H = W diag(E) W^dag, for a check Hamiltonian; None
        for any other."""
        return self._labels

    @property
    def form(self):
        """The dense form M, formed on first read for a site form or from
        labels."""
        if self._form is None:
            if self.flips is None:
                # the label blocks of a check family are real
                W, E = self._labels
                M = np.ascontiguousarray(W.outer(E).real)
            else:
                M = np.diag(self._weights)
                idx = np.arange(M.shape[0])
                for q, t in enumerate(self.flips):
                    M[idx ^ (1 << (self.n - 1 - q)), idx] = t
            M.flags.writeable = False
            self._form = M
        return self._form

    @property
    def mat(self):
        """The dense complex matrix D M D^dag, formed on first read."""
        if self._mat is None:
            M = self.form.astype(np.complex128)
            if self.phases is not None:
                M *= self.phases[:, None]
                M *= self.phases.conj()[None, :]
            self._mat = M
        return self._mat

    @property
    def offdiagonal(self):
        """max_offdiagonal of H, read from M once and kept: the largest
        |t_q| of a site form on two or more basis states."""
        if self._offdiagonal is None:
            if self.flips is None:
                self._offdiagonal = float(max_offdiagonal(self.form))
            else:
                self._offdiagonal = float(np.abs(self.flips).max()) if self.n else 0.0
        return self._offdiagonal

    @property
    def is_diagonal(self):
        return self.offdiagonal < tol.DIAGONAL_TOL

    def diagonal(self):
        """The real diagonal of H, which is M's."""
        if self.flips is not None:
            return self._weights.copy()
        return np.real(np.diagonal(self.form)).copy()

    def gibbs(self, beta):
        """gibbs_weights over E of H's labels, or over the diagonal of a
        diagonal H without them, kept per beta with p read-only: the one
        vector of gibbs_state and the samplers' fixed-point checks. Any
        other H raises NotDiagonal: its diagonal is not its Gibbs law."""
        kept = self._gibbs.get(beta)
        if kept is None:
            if self._labels is None and not self.is_diagonal:
                raise NotDiagonal("Gibbs weights over the diagonal need a diagonal H or its labels")
            E = self.diagonal() if self._labels is None else self._labels[1]
            kept = gibbs_weights(E, beta)
            kept[0].flags.writeable = False
            self._gibbs[beta] = kept
        return kept

    # build(H, *args) kept per (build, args) on H as on a basis: site move tables
    kept = LabelBasis.kept

    def plus_diagonal(self, e, **bookkeeping):
        """H + diag(e) for a site form H, in its gauge, since D diag(e)
        D^dag = diag(e): the site form with diagonal e added and H's flips
        and phases. bookkeeping replaces n, w0, w1 or term_supports of H;
        perturb adds a diagonal H0 to a perturbation with it, and
        stability subtracts one from a perturbed H."""
        if self.flips is None:
            raise ValueError("plus_diagonal takes a site form")
        fields = dict(n=self.n, w0=self.w0, w1=self.w1, term_supports=self.term_supports)
        fields.update(bookkeeping)
        return Hamiltonian(self._weights + e, phases=self.phases, flips=self.flips, **fields)

    def block(self, rows):
        """M[rows][:, rows], gathered from e and t for a site form: the
        entry (i, k) off the diagonal is t_q when rows[i] and rows[k]
        differ in qubit q alone, and 0 otherwise."""
        if self.flips is None:
            return self.form[np.ix_(rows, rows)]
        rows = np.asarray(rows, dtype=np.int64)
        out = np.diag(self._weights[rows])
        where = np.full(self._weights.size, -1, dtype=np.int64)
        where[rows] = np.arange(rows.size)
        for q, t in enumerate(self.flips):
            partner = where[rows ^ (1 << (self.n - 1 - q))]
            hit = partner >= 0
            out[partner[hit], np.flatnonzero(hit)] = t
        return out

    def eigensystem(self):
        """Eigensystem of M, with H's phases: one real symmetric solve
        (np.linalg.eigh, columns not phase-fixed) for a real M, and
        numerics.hermitian_eigensystem for a complex one."""
        if np.isrealobj(self.form):
            w, U = np.linalg.eigh(self.form)
        else:
            w, U = hermitian_eigensystem(self.form)
        return Eigensystem(w, U, self.phases)


class Eigensystem(NamedTuple):
    """H = D U diag(w) U^dag D^dag: eigenvalues w (ascending from a solve,
    in label order from labels), orthonormal eigenvectors U of H's form
    (None for the identity, when H is diagonal) and H's unit phases d
    (None for D = I)."""

    w: np.ndarray
    U: np.ndarray | None
    phases: np.ndarray | None

    def vectors(self, cols=slice(None)):
        """The eigenvectors of H itself in columns cols, D U[:, cols]
        (None when U is)."""
        if self.U is None:
            return None
        U = self.U[:, cols]
        return U if self.phases is None else self.phases[:, None] * U


@dataclass
class BarrierCertificate:
    V: Subspace
    boundary_radius: int
    E_min_V: float
    E_min_boundary: float
    kappa: float
    boundary: Subspace = field(default=None, repr=False)


def _max_per_qubit(n, supports):
    counts = np.zeros(n, dtype=int)
    for supp in supports:
        for q in supp:
            counts[q] += 1
    return int(counts.max()) if n else 0


def _parity(indices, mask):
    return (popcount(indices & np.uint64(mask)) & 1).astype(np.int64)


def build_hamiltonian(checks):
    """H0 = sum of violated-check projectors, held as its labels (W, E):
    W = label_basis(checks) and E = label_energies(checks), the checks
    each column of W violates. label_basis checks, when it builds W, that
    W is unitary and that every check acts on each column as the sign of
    its syndrome, which makes H0 W = W diag(E); nothing here solves or
    forms a matrix. Every term is real, so H0 has no phases: a classical
    H0 is the site form of E with no flips over the identity basis, and a
    CSS H0 forms its dense real M the first time something reads it.
    """
    n = checks.n
    supports = checks.z_checks + checks.x_checks
    return Hamiltonian._from_labels(
        label_basis(checks),
        label_energies(checks),
        n=n,
        w0=_max_per_qubit(n, supports),
        w1=0,
        term_supports=supports,
        checks=checks,
    )


def bits_from_mask(n, mask):
    return np.array([(mask >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int8)


# the largest register expansion_scan enumerates
_EXPANSION_MAX_BITS = 20


def expansion_scan(checks, delta):
    """Worst energy-per-weight ratio over words of weight up to delta*n.

    Returns (gamma, witness bits). Ties break toward the lexicographically
    first witness, which under the bit convention is the smallest basis
    index.
    """
    if not checks.is_classical:
        raise NotClassical("model has X checks")
    n = checks.n
    if n > _EXPANSION_MAX_BITS:
        raise NotClassical(f"scan over 2^{n} states refused (n > {_EXPANSION_MAX_BITS})")
    E = label_energies(checks)
    w = popcount(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    sel = (w > 0) & (w <= delta * n)
    if not sel.any():
        raise NotClassical(f"no nonzero weights within delta*n = {delta * n}")
    ratios = E[sel] / w[sel]
    pos = np.argmin(ratios)
    gamma = float(ratios[pos])
    witness = int(np.flatnonzero(sel)[pos])
    return gamma, bits_from_mask(n, witness)


def _coset_classes(n, span):
    """Smallest member of each coset of span, and the coset of every bitstring."""
    idx = np.arange(1 << n, dtype=np.uint64)
    rep = idx.copy()
    for g in span:
        np.minimum(rep, idx ^ np.uint64(int(g)), out=rep)
    reps = np.unique(rep)
    return reps, np.searchsorted(reps, rep)


def label_basis(checks):
    """The label eigenbasis of a check family, built once per family.

    The computational basis for classical families. For CSS families the
    columns are the eigenstates X(x) Z(z) |psi0> over one representative
    (x, z) per label class, each with the phase that makes its entry in
    the lowest row positive, and construction checks that W is unitary
    and that every check acts on each column as the sign of its syndrome.
    That check is what certifies H0 W = W diag(label_energies) for the
    labels build_hamiltonian gives H0.
    """
    if checks.is_classical:
        return identity_basis(checks.n)
    return _css_label_basis(checks)


@functools.lru_cache(maxsize=16)
def _css_label_basis(checks):
    n = checks.n
    x_masks = [int(m) for m in checks.x_masks()]
    gx_span = gf2_span(x_masks)
    x_reps, x_class = _coset_classes(n, gx_span)
    z_reps, z_class = _coset_classes(n, gf2_span(gf2_null_space_masks(n, x_masks)))
    nx, nz = x_reps.size, z_reps.size
    # X(x) Z(z) |psi0> with x a class representative: support x ^ span,
    # sign (-1)^{|g & z|}, divided by the sign in the lowest row so that
    # entry is positive
    rows = np.sort(x_reps[:, None] ^ gx_span[None, :], axis=1)
    g = rows ^ x_reps[:, None]
    signs = 1.0 - 2.0 * (popcount(g[:, :, None] & z_reps[None, None, :]) & 1)
    blocks = (signs * signs[:, :1, :] / math.sqrt(gx_span.size)).astype(np.complex128)
    # W is unitary iff each class block (k x nz, square) is
    k = gx_span.size
    gram = np.matmul(blocks.conj().transpose(0, 2, 1), blocks)
    dev = float(np.abs(gram - np.eye(nz)).max())
    if k != nz or dev > tol.CSS_BASIS_TOL:
        raise NonCommutingChecks(f"CSS label basis is not unitary (dev {dev:.3e})")
    basis = LabelBasis(
        n,
        order=rows.ravel().astype(np.int64),
        blocks=blocks,
        x=np.repeat(x_reps, nz),
        z=np.tile(z_reps, nx),
        x_class=x_class,
        z_class=z_class,
    )
    for m in checks.z_masks():
        _check_syndrome(basis, 0, int(m), basis.x)
    for m in checks.x_masks():
        _check_syndrome(basis, int(m), 0, basis.z)
    return basis


def _check_syndrome(basis, xmask, zmask, labels):
    col, phase = basis.pauli_image(xmask, zmask)
    sign = 1 - 2 * _parity(labels, xmask | zmask)
    dev = float(np.abs(phase - sign).max())
    if not np.array_equal(col, np.arange(basis.dim)) or dev > tol.CSS_BASIS_TOL:
        raise NonCommutingChecks(
            f"check (x={xmask}, z={zmask}) is not diagonal in the label basis"
        )


def label_energies(checks):
    """Energy of every column of label_basis(checks): the checks its syndrome
    violates, Z checks read off x and X checks off z. Computed once per
    family and returned read-only."""
    return _label_energies(checks)


@functools.lru_cache(maxsize=16)
def _label_energies(checks):
    basis = label_basis(checks)
    E = np.zeros(basis.dim, dtype=np.int64)
    for mask in checks.z_masks():
        E += _parity(basis.x, int(mask))
    for mask in checks.x_masks():
        E += _parity(basis.z, int(mask))
    E = E.astype(np.float64)
    E.flags.writeable = False
    return E


def barrier_subspace(checks, center, inner_radius, boundary_radius, H):
    """Ball of eigenstates around a center label, with its energy gap.

    V spans the columns of label_basis(checks) within inner_radius
    weight-1 moves of the column of the center (x0, z0), a pair of
    integer bitstrings (subspace.ball); the boundary shell is
    boundary(V, boundary_radius). Both carry their labels over that
    basis, so partitions of V are label shells. Both minimum energies
    are measured against the supplied Hamiltonian (which may carry a
    perturbation on top of the checks). Raises CenterOutsideSpace for a
    bitstring outside the register, and EmptyBoundary when the radii
    exceed n or the shell is empty.
    """
    n = checks.n
    x0, z0 = (int(bits) for bits in center)
    for bits in (x0, z0):
        if not 0 <= bits < 1 << n:
            raise CenterOutsideSpace(f"bitstring {bits} outside n={n} register")
    if inner_radius + boundary_radius > n:
        raise EmptyBoundary(
            f"radii {inner_radius}+{boundary_radius} exceed register size {n}"
        )
    W = label_basis(checks)
    V = ball(W, [W.index(x0, z0)], inner_radius)
    if boundary_radius < 1 or not (shell := boundary(V, boundary_radius)).dim:
        raise EmptyBoundary("no eigenstates in the boundary shell")
    e_v = subspace_min_energy(V, H)
    e_b = subspace_min_energy(shell, H)
    return BarrierCertificate(
        V=V,
        boundary_radius=boundary_radius,
        E_min_V=e_v,
        E_min_boundary=e_b,
        kappa=(e_b - e_v) / n,
        boundary=shell,
    )


def subspace_min_energy(V, H):
    """min over unit psi in V of <psi|H|psi>.

    A V over the basis W of H's labels (W, E) is spanned by eigenvectors
    of H, so the minimum is the least E on V's mask, with no block
    formed. A V over the identity basis spans the basis states of its
    mask, so its block X^dag H X is H[rows][:, rows] for the mask's rows
    in ascending order, gathered, not multiplied out, then solved. The
    phases of H only add a unitary diagonal similarity, which keeps the
    spectrum, so the gather reads its form M (Hamiltonian.block, from e
    and t for a site form). Any other V raises BadPartition.
    """
    if V.dim == 0:
        raise EmptySubspace("minimum energy over an empty subspace")
    W, mask = V.labels
    if H.labels is not None and W.same_as(H.labels[0]):
        return float(H.labels[1][mask].min())
    if not W.identity:
        raise BadPartition("V is labeled over neither the eigenbasis of H nor the identity basis")
    block = H.block(np.flatnonzero(mask))
    return float(np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0])


def _eigensystem(H):
    """Eigensystem of a Hamiltonian, solved only when nothing gives it:
    E and W of H's labels (W, E), with U None for the identity basis;
    else the real diagonal as w and U None when H is diagonal (no
    off-diagonal entry above DIAGONAL_TOL); else H.eigensystem()."""
    if H.labels is not None:
        W, E = H.labels
        return Eigensystem(E, None if W.identity else W.dense(), None)
    if H.is_diagonal:
        return Eigensystem(H.diagonal(), None, None)
    return H.eigensystem()


def spectrum(H):
    """Eigenvalues w and eigenvectors U of a Hamiltonian.

    A check Hamiltonian gives its labels: w = E in label order and U the
    dense label basis W, or None for the identity basis. Any other
    diagonal H (no off-diagonal entry above DIAGONAL_TOL) gives its real
    diagonal as w and U None. Otherwise w is ascending and the columns of
    U are orthonormal eigenvectors, each fixed only up to a phase: D U_r
    for a real form, U_r from np.linalg.eigh, so real when there are no
    phases, and those of numerics.hermitian_eigensystem (complex,
    phase-fixed) for a complex form.
    """
    eig = _eigensystem(H)
    return eig.w, eig.vectors()


class ThermalState(NamedTuple):
    """A Gibbs state in the eigenbasis of its Hamiltonian's form: rho = D U
    diag(p) U^dag D^dag, with U None for the identity (a diagonal
    Hamiltonian). The unit phases D of H are not kept: on the rows of a
    block labeled over the identity basis they are a unitary diagonal
    left factor, which changes no singular value or row norm that
    bottleneck_ratio reads. U is real when the eigensolve ran on a real
    form; its columns are not phase-fixed, since nothing read from the
    state depends on the phase of an eigenvector."""

    p: np.ndarray
    U: np.ndarray | None
    logZ: float


def gibbs_weights(E, beta):
    """Gibbs law p = e^{-beta E} / Z over the energies E, and logZ.

    Weights are shifted by the lowest energy before exponentiating so
    large beta stays finite.
    """
    if beta < 0:
        raise BetaNegative(f"beta = {beta}")
    E = np.asarray(E, dtype=np.float64)
    shifted = np.exp(-beta * (E - E.min()))
    total = shifted.sum()
    return shifted / total, float(np.log(total) - beta * E.min())


def thermal_state(H, beta):
    """Gibbs weights p over the eigenvectors of H, and logZ. The state
    keeps the eigensystem that spectrum(H) reads, with the eigenvectors
    of H's form and without its phases."""
    w, U, _ = _eigensystem(H)
    p, logZ = gibbs_weights(w, beta)
    return ThermalState(p, U, logZ)


def gibbs_state(H, beta):
    """Thermal state, log partition function, and free energy -logZ/beta.

    H must be diagonal in a label basis W: a check Hamiltonian with labels
    (W, E), or a diagonal H over the identity basis, E its diagonal. p =
    e^{-beta E}/Z comes from H.gibbs, with no eigensolve, and rho carries
    (W, p), forming its dense matrix only when read (from_labels). Any
    other H, a perturbed one say, raises NotDiagonal (see thermal_state).
    """
    p, logZ = H.gibbs(beta)
    W = identity_basis(H.n) if H.labels is None else H.labels[0]
    F = -logZ / beta if beta > 0 else -math.inf
    return DensityMatrix.from_labels(W, p), logZ, F


def random_local_perturbation(n, g, seed):
    """One seeded Gaussian Hermitian 2x2 term on every site, rescaled to
    norm g*n and built in its real gauge (_site_gauge) as a site form.

    Terms on distinct sites commute, and the spectrum of their sum is
    every sum of one eigenvalue per term, so ||V|| is the larger of |sum
    of smallest| and |sum of largest| term eigenvalues. Site q's term is
    drawn q-th, its real part before its imaginary part.
    """
    rng = np.random.default_rng(seed)
    terms = []
    lo = hi = 0.0
    for _ in range(n):
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        T = 0.5 * (G + G.conj().T)
        terms.append(T)
        w = np.linalg.eigvalsh(T)
        lo += w[0]
        hi += w[-1]
    scale = 0.0
    if g > 0 and n:
        norm = max(abs(lo), abs(hi))
        scale = (g * n) / norm if norm > 0 else 1.0
    e, t, phases = _site_gauge(n, terms, scale)
    return Hamiltonian(
        e,
        n=n,
        w0=min(n, 1),
        w1=min(n, 1),
        term_supports=tuple((q,) for q in range(n)),
        phases=phases,
        flips=t,
    )


def _site_gauge(n, terms, scale):
    """(e, t, d): the site form diag(e) + sum_q t_q X_q and the phases of
    scale * sum of 2x2 terms, the q-th on site q.

    The term on site q, [[a, b], [conj(b), c]], becomes real with |b| off
    the diagonal under diag(1, phi_q), phi_q = conj(b)/|b| (1 when b = 0);
    so D = diag(d) with d_j the product of phi_q over the sites q whose
    bit is set in j. e_j sums a or c of each site, by the bit of j, in
    site order, and t_q is the rotated off-diagonal entry, both scaled
    last. The dropped imaginary parts have a max row l1 sum of at most
    the scaled sum of their per-term row sums, and max|V| is at least the
    largest scaled |b|, so that sum is checked against GAUGE_REL_TOL *
    max(1, that |b|).
    """
    dim = 1 << n
    e = np.zeros(dim)
    t = np.zeros(n)
    if scale == 0.0:
        return e, t, None
    idx = np.arange(dim)
    d = np.ones(dim, dtype=np.complex128)
    dropped = top = 0.0
    for q, T in enumerate(terms):
        b = T[0, 1]
        phi = b.conj() / abs(b) if b != 0 else 1.0
        D = np.array([1.0, phi])
        G = D.conj()[:, None] * T * D[None, :]
        dropped += np.abs(G.imag).sum(axis=1).max()
        top = max(top, abs(b))
        bit = (idx >> (n - 1 - q)) & 1
        e += G.real[bit, bit]
        t[q] = G.real[1, 0]
        d[bit == 1] *= phi
    e *= scale
    t *= scale
    if scale * dropped > tol.GAUGE_REL_TOL * max(1.0, scale * top):
        raise NonCommutingChecks(
            f"single-site gauge leaves an imaginary part {scale * dropped:.3e}"
        )
    return e, t, d


def perturb(H0, V):
    """H0 + V with locality bookkeeping merged.

    A diagonal H0 is added to a site form V in V's gauge (plus_diagonal),
    so H0 + V stays a real site form; a non-diagonal (CSS) H0, or a V
    given as a dense matrix, is summed with V as dense complex matrices.
    The sum carries no labels.
    """
    supports = H0.term_supports + V.term_supports
    bookkeeping = dict(
        n=H0.n,
        w0=_max_per_qubit(H0.n, supports),
        w1=max(H0.w1, V.w1),
        term_supports=supports,
    )
    if V.flips is not None and H0.is_diagonal:
        return V.plus_diagonal(H0.diagonal(), **bookkeeping)
    return Hamiltonian(H0.mat + V.mat, **bookkeeping)


# ---------------------------------------------------------------------------
# Built-in models


def ising_ring(n):
    """Ferromagnetic ring: one bond check per adjacent pair."""
    return CheckFamily(n, z_checks=tuple((i, (i + 1) % n) for i in range(n)))


def repetition(n):
    """Repetition code with ring-closed parity checks."""
    return ising_ring(n)


def curie_weiss(n):
    """All-to-all pair checks; energy grows quadratically with weight."""
    return CheckFamily(
        n, z_checks=tuple((i, j) for i in range(n) for j in range(i + 1, n))
    )


_STEANE_SUPPORTS = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))


def steane7():
    """Steane code: Hamming(7,4) checks on both bases."""
    return CheckFamily(7, z_checks=_STEANE_SUPPORTS, x_checks=_STEANE_SUPPORTS)


def toric(L=2):
    """Toric code patch on an L x L torus, qubits on edges.

    Horizontal edge (r, c) gets index r*L + c, vertical edge (r, c) gets
    L*L + r*L + c. Stars are X checks, plaquettes Z checks.
    """
    def h(r, c):
        return (r % L) * L + (c % L)

    def v(r, c):
        return L * L + (r % L) * L + (c % L)

    x_checks = []
    z_checks = []
    for r in range(L):
        for c in range(L):
            x_checks.append((h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)))
            z_checks.append((h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)))
    return CheckFamily(2 * L * L, z_checks=tuple(z_checks), x_checks=tuple(x_checks))


def random_ldpc(n, checks, seed):
    """Random weight-3 classical parity checks, deterministic per seed."""
    rng = np.random.default_rng(seed)
    supports = tuple(
        tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        for _ in range(checks)
    )
    return CheckFamily(n, z_checks=supports)


REGISTRY = {
    "ising_ring": ising_ring,
    "repetition": repetition,
    "curie_weiss": curie_weiss,
    "steane7": steane7,
    "toric": toric,
    "random_ldpc": random_ldpc,
}

# Each registry model's config keys in its factory's order, as (least, most,
# default): most None is unbounded (a seed is not a size), and a key with a
# default may be left out. n reaches _LABEL_MAX_BITS, the largest register any
# route holds in 2.5 GB (the label arrays of model-info and barrier-scan); a
# toric star at L = 1 names one edge twice, and at L = 3 its label basis alone
# needs 1.07 GB; a random_ldpc check has weight 3.
_LABEL_MAX_BITS = 24
MODEL_KEYS = {
    "ising_ring": {"n": (1, _LABEL_MAX_BITS, None)},
    "repetition": {"n": (1, _LABEL_MAX_BITS, None)},
    "curie_weiss": {"n": (1, _LABEL_MAX_BITS, None)},
    "steane7": {},
    "toric": {"L": (2, 2, 2)},
    "random_ldpc": {
        "n": (3, _LABEL_MAX_BITS, None),
        "checks": (1, 4096, None),
        "model_seed": (0, None, None),
    },
}

# Registry models whose factory takes the register size n and nothing else.
SIZE_INDEXED = tuple(name for name, keys in MODEL_KEYS.items() if list(keys) == ["n"])


def build_model(name, params, max_bits=_LABEL_MAX_BITS):
    """CheckFamily of a registry model from its MODEL_KEYS params, checked
    before the factory runs: a key the model does not take, a missing key
    without a default, a value outside its bounds or a register n past
    max_bits, the bound of the route that asks, raises ConfigInvalid."""
    if name not in REGISTRY:
        raise ModelNotFound(f"unknown model {name!r}; registry has {sorted(REGISTRY)}")
    keys = MODEL_KEYS[name]
    extra = sorted(set(params) - set(keys))
    if extra:
        raise ConfigInvalid(f"model {name!r} does not take {extra}; its keys are {list(keys)}")
    args = []
    for key, (least, most, default) in keys.items():
        value = params.get(key, default)
        if value is None:
            raise ConfigInvalid(f"model {name!r} needs {key!r}")
        if value < least:
            raise ConfigInvalid(f"model {name!r} needs {key} >= {least}, got {value}")
        if most is not None and value > most:
            raise ConfigInvalid(f"model {name!r} needs {key} <= {most}, got {value}")
        if key == "n" and value > max_bits:
            raise ConfigInvalid(f"this subcommand holds at most {max_bits} bits, got n = {value}")
        args.append(value)
    return REGISTRY[name](*args)


def checks_from_text(text):
    """Parse `Z: 0 1` / `X: 2 3 4` lines; optional `n: 7` header. A line
    of another tag, or with an entry that is not an integer, raises
    NonCommutingChecks."""
    n = None
    z_checks = []
    x_checks = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.partition(":")
        tag = tag.strip().lower()
        try:
            if tag == "n":
                n = int(rest)
            elif tag in ("z", "x"):
                checks = z_checks if tag == "z" else x_checks
                checks.append(tuple(int(q) for q in rest.split()))
            else:
                raise NonCommutingChecks(f"unrecognized check line {line!r}")
        except ValueError:
            raise NonCommutingChecks(f"non-integer entry in check line {line!r}") from None
    if n is None:
        n = 1 + max(
            (q for supp in z_checks + x_checks for q in supp), default=-1
        )
    return CheckFamily(n, tuple(z_checks), tuple(x_checks))
