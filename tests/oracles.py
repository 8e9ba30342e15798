"""Reference forms of computations that the package does by faster routes.

Each oracle follows the definition rather than a data layout, one item at
a time, and only tests call it:

- css_labels and css_eigenstate build CSS eigenstates one label pair at a
  time, by applying X(x) Z(z) to the reference state psi0, the uniform
  superposition over the span of the X checks. They are the oracle for
  model.label_basis.
- barrier_by_label_pairs builds a barrier ball and its boundary shell by a
  loop over label pairs, taking the reduced distance of each pair as a
  minimum over both stabilizer spans, and each pair's energy as its
  syndrome count (pair_energy). It is the oracle for
  model.barrier_subspace. span_distance takes that minimum for every
  column of a label basis, as model.label_distance did; it is the oracle
  for the breadth-first search of subspace.
- shell_projectors builds the energy windows of H0 as dense projectors
  and checks that they resolve the identity without overlapping. It is
  the oracle for stability.shell_decomposition, whose windows are index
  sets of the eigenbasis.
- _embed_on_support adds a term on any support into a dense matrix, and
  gather_embed_on_support builds the same matrix by a gather and a mask.
  On one site they are the oracle for the dense form of a
  model.Hamiltonian site form.
- dense_perturbation draws seeded Gaussian terms on any supports, as
  model.random_local_perturbation draws its one term per site, and
  embeds them into one dense complex V, rescaled to norm g*n.
  dense_perturbed adds it to H0.mat. On one term per site they are the
  oracle for the real forms of model.random_local_perturbation and
  model.perturb; on wider supports they give the perturbations that
  break the shell ladder.
- _gauge_phases and _gauged look for a diagonal unitary D that makes a
  dense Hermitian matrix real, along a breadth-first spanning forest of
  its off-diagonal pattern, and check every entry afterwards.
  gauged_eigensystem solves on that real form when one is found. They
  are the oracle for the gauge that model._site_gauge fixes when a
  perturbation is built.
- dense_gibbs forms the Gibbs state as a dense rho = U diag(p) U^dag from
  the gauged_eigensystem eigenpairs of a dense matrix, dense_log_partition
  takes log Z from the same eigenvalues, and dense_ratio reads Delta from
  the state. They are the oracle for model.gibbs_state on its label
  route, for thermal_gibbs_state after a real solve, and for
  bottleneck_ratio on a model.ThermalState.
- thermal_gibbs_state forms the dense Gibbs state of a Hamiltonian that
  is not diagonal from its eigensystem, U diag(p) U^dag scaled by the
  phases d as d_i rho_ij conj(d_j), as model.gibbs_state did for a
  Hamiltonian without labels. It is the dense state of a perturbed H for
  the tests.
- eigen_ratio reads Delta of a perturbed sweep point by the eigensolve
  route (thermal_state, then bottleneck_ratio), and eigen_columns forms
  columns of e^{-beta (M - lo)} from the eigenpairs of the real form M.
  They are the oracle for the certified Chebyshev route of
  stability.sweep_point and for the columns of numerics._site_form_series.
- dense_min_energy multiplies out the compressed block X^dag H X of any
  orthonormal array X. It is the oracle for the gathered block and the
  label route of model.subspace_min_energy.
- dense_check_hamiltonian sums the check projectors of a family into one
  dense real matrix, checks that every X term commutes with every Z term
  and that the spectrum is non-negative integers, as model did before a
  check Hamiltonian was held as its labels. It is the oracle for the
  labels (W, E) of model.build_hamiltonian, and label_energy_residual
  reads max |H W - W diag(E)| of a dense H over a label basis.
- row_norm_blocks reads the block of every label from the row norms of
  W^dag B for four dense block bases B, as bottleneck._label_blocks did
  for blocks without labels. It is the oracle for the block-label array
  of subspace.partition_from_radius.
- dense_norm is the operator norm of a perturbation from the eigenvalues
  of its full matrix. It is the oracle for the norm that
  model.random_local_perturbation reads from its term spectra.
- dense_collar_weights reads tr(P_V rho) and the commutator norm
  ||[rho, P_shell]|| from dense projectors and a dense commutator. It is
  the oracle for the label form in bottleneck.free_energy_report.
- dense_free_energy_bounds computes the three free-energy bounds with
  scipy.special.logsumexp and dense_collar_weights, as the package did
  before its own logsumexp and label form. It is the oracle for
  bottleneck.free_energy_report.
- PauliString, enumerate_paulis, apply_pauli, apply_pauli_matrix and
  pauli_matrix enumerate Pauli strings and apply them entry by entry.
  A string is P = i^{|x AND z|} X(x) Z(z) in the bit packing of
  bottlenecklab.pauli, so the letter with x = z = 1 is Y = i X Z, and
        P|b> = i^{|x AND z|} (-1)^{|b AND z|} |b XOR x>.
  Enumeration order is weight ascending, supports in lexicographic
  order, letters per site in (X, Y, Z) order.
- Dense spans are plain orthonormal (2^n, k) arrays here, and
  span_projector gives their projectors. neighborhood stacks the images
  of a span under every string of weight at most r and orthonormalizes
  them, and complement and _complement_within take orthogonal
  complements. enumerated_partition splits any span, superposed or not,
  into (V, first r-shell, second r-shell, rest) from them, and
  enumerated_blocks builds the projectors of that split at radius 2r
  from V or r from the first neighborhood, whichever is smaller. They
  are the oracle for the label shells of subspace.partition_from_radius
  and subspace.boundary.
- classical_energy counts the violated Z checks of one bitstring. It is
  the oracle for model.label_energies of a classical family.
- validate_density checks positivity of a DensityMatrix by its smallest
  eigenvalue.
- validate_channel reads the trace-preservation residual and the support
  of every Kraus operator from the dense operators. dense_copy keeps the
  operators of a channel without its monomial form, which sends it down
  the dense path of bottleneck.verify_bottleneck_theorem.
- dense_site_kraus builds the bit-flip Kraus pair of a diagonal
  Hamiltonian as dense matrices, and dense_css_jumps and dense_css_kraus
  build the CSS Kraus list from dense syndrome projectors. They are the
  oracle for the monomial forms of sampler.metropolis_site_channel and
  sampler.css_metropolis_channel.
- per_call_css_form builds the CSS move's rows and coefficients from
  scratch with one scalar amplitude per jump, as the sampler did before
  its move tables. It is the bit-for-bit oracle for the per-beta step
  over a kept move table (whose masks are the rows ^ j, explicit_rows
  inverting them).
- per_call_site_form builds one bit-flip Metropolis form from the energy
  diagonal on every call, through the samplers' one trace and
  fixed-point check, as sampler.metropolis_site_channel did before the
  site move tables: the (2, 1) masks of the flip and then the stay
  operator, in the XOR layout of markov. It is the bit-for-bit oracle for sampler._site_channels,
  which builds every site of a list from one table kept on H.
- per_form_support reads the support of one monomial operator, one
  mask form at a time, as channel._monomial_support did before the
  stacked pass.
  It is the oracle for channel._monomial_supports and for
  channel_locality of a schedule.
- loop_fix_phases rotates one column at a time. It is the oracle for
  numerics.fix_phases.
- stationary_distribution solves M pi = pi by a generic eigensolve: dense
  eig up to 1024 states, ARPACK from a seeded start vector above. It is
  the oracle for the Gibbs weights that verify-classical passes as the
  stationary law. It fails on chains whose spectral gap is below its
  1e-9 test, which the Gibbs route does not.
- dense_glauber builds the Metropolis chain entry by entry. It is the
  oracle for markov.GlauberTable.chain.
- per_beta_glauber builds one Glauber chain's masks and weights from the
  energies on every call, as markov did before its GlauberTable, in the
  entry order of the XOR layout (flips in ascending bit, then the stay
  entry). It is the bit-for-bit oracle for GlauberTable.chain, which
  reads the uphill jumps that the table keeps for every beta.
  explicit_rows gives the (k, dim) rows j ^ moves[k, j] of any form in
  that layout, for the same chain built by StochasticMatrix.from_columns.
- dense_report reads the classical bound from a dense chain and a given
  law. It is the oracle for markov.classical_bottleneck_report.
- glauber_flow reads the lhs 2 Q(A, A^c)/pi(A) of a Glauber chain one
  state of A at a time, from the per_beta_glauber weights of the flips
  that leave A. It is the bit-for-bit oracle for the flow of
  markov.GlauberFlow and of classical_bottleneck_report on a Glauber
  chain.
- exact_glauber_drift takes the one-step drift ||M pi_A - pi_A||_1 of a
  classical family's Glauber chain by its definition, in fractions, at a
  rational e^{-beta}. It is the exact oracle for the classical lhs at
  low temperature, where the stepped form loses the flow to rounding.
- communicating_classes runs scipy's strong-connectivity search on a
  chain's CSC matrix with its stored zeros dropped. It is the oracle for
  StochasticMatrix.single_flip_certified and communicating_classes.
- birth_death_chain builds the nearest-neighbour Metropolis walk on a
  path, entry by entry, as a dense matrix, and column_chain converts a
  dense chain to markov's column form, as StochasticMatrix did on
  construction before it took only that form.
- hamming_shell_labels gives the block labels of the Hamming shells
  about a center from np.bitwise_count distances, as
  markov.hamming_state_partition did. It is the oracle for the split that
  verify-classical builds with subspace.partition_from_radius.
  block_labels writes block labels from index lists, for the chains of
  the markov tests.
- ring_cut_ratio reads pi(B)/pi(A) of a Hamming cut of the Ising ring
  from e^{-beta E} and np.bitwise_count distances, with numpy alone and
  nothing from the package. It is the independent third party in the
  cross-check of the label path's Delta against markov's pi(B)/pi(A).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bottlenecklab.bottleneck import bottleneck_ratio
from bottlenecklab.channel import KrausChannel, _kraus_support, _trace_residual, _trusted_channel
from bottlenecklab.errors import (
    BottleneckLabError,
    DimensionMismatch,
    EmptyBoundary,
    EmptyInput,
    NonCommutingChecks,
    NonUniqueStationary,
    NotClassical,
    NotDiagonal,
    ParametersInadmissible,
    RadiusExceedsN,
)
from bottlenecklab.markov import StochasticMatrix
from bottlenecklab.model import (
    BarrierCertificate,
    Hamiltonian,
    _max_per_qubit,
    label_basis,
    gibbs_weights,
    spectrum,
    subspace_min_energy,
    thermal_state,
)
from bottlenecklab.numerics import (
    GAUGE_REL_TOL,
    DensityMatrix,
    _symmetrized,
    fix_phases,
    max_offdiagonal,
    operator_norm,
)
from bottlenecklab.pauli import gf2_null_space_masks, gf2_span, mask_from_indices, popcount
from bottlenecklab.sampler import DEFAULT_ATTEMPT, _checked
from bottlenecklab.subspace import boundary, identity_basis


class EnumerationTooLarge(BottleneckLabError):
    """Neighborhood enumeration would exceed the memory cap."""


_ENUM_CAP = 2**28
_RANK_REL = 1e-8


def indices_from_mask(n, mask):
    """Qubit indices whose bit is set in an index-space mask, ascending."""
    return tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string identified by its X and Z masks.

    x_bits/z_bits are index-space masks (see module docstring). The
    overall phase convention i^{|x AND z|} is fixed by apply_pauli and
    pauli_matrix; equality and hashing ignore nothing, two strings are
    equal iff (n, x_bits, z_bits) coincide.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.x_bits & ~full or self.z_bits & ~full:
            raise DimensionMismatch("mask has bits outside the register")

    @classmethod
    def from_letters(cls, n, letters):
        """Build from {qubit: 'X'|'Y'|'Z'} (identity elsewhere)."""
        x = z = 0
        for i, w in letters.items():
            bit = 1 << (n - 1 - i)
            if w in ("X", "Y"):
                x |= bit
            if w in ("Z", "Y"):
                z |= bit
            if w not in ("X", "Y", "Z"):
                raise ValueError(f"unknown letter {w!r}")
        return cls(n, x, z)

    def support(self):
        """Set of qubits on which the string acts non-trivially."""
        return set(indices_from_mask(self.n, self.x_bits | self.z_bits))

    def weight(self):
        return int(self.x_bits | self.z_bits).bit_count()

    def letter(self, i):
        bit = 1 << (self.n - 1 - i)
        x, z = bool(self.x_bits & bit), bool(self.z_bits & bit)
        return {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(x, z)]

    def __str__(self):
        return "".join(self.letter(i) for i in range(self.n))


def pauli_count(n, r):
    """Number of Pauli strings of weight at most r on n qubits."""
    return sum(math.comb(n, k) * 3**k for k in range(r + 1))


def enumerate_paulis(n, r):
    """All Pauli strings of weight <= r in deterministic order.

    Order: weight ascending, supports lexicographically, letters per
    support position in X < Y < Z order. Raises RadiusExceedsN when r is
    outside [0, n].
    """
    if not 0 <= r <= n:
        raise RadiusExceedsN(f"radius {r} outside [0, {n}]")
    out = [PauliString(n, 0, 0)]
    for k in range(1, r + 1):
        for supp in itertools.combinations(range(n), k):
            for letters in itertools.product("XYZ", repeat=k):
                out.append(PauliString.from_letters(n, dict(zip(supp, letters))))
    return out


def _phases_and_perm(P, dim):
    idx = np.arange(dim, dtype=np.uint64)
    signs = 1 - 2 * (popcount(idx & np.uint64(P.z_bits)) & 1)
    phase = 1j ** (int(P.x_bits & P.z_bits).bit_count() % 4)
    perm = (idx ^ np.uint64(P.x_bits)).astype(np.int64)
    return phase * signs.astype(np.complex128), perm


def apply_pauli(P, v):
    """Apply a Pauli string to a state vector."""
    v = np.asarray(v, dtype=np.complex128)
    dim = 1 << P.n
    if v.shape[0] != dim:
        raise DimensionMismatch(f"vector has dim {v.shape[0]}, operator needs {dim}")
    coef, perm = _phases_and_perm(P, dim)
    out = np.zeros_like(v)
    out[perm] = (coef * v.T).T if v.ndim > 1 else coef * v
    return out


def apply_pauli_matrix(P, cols):
    """Apply a Pauli string to every column of a (dim, k) matrix at once."""
    cols = np.asarray(cols, dtype=np.complex128)
    dim = 1 << P.n
    if cols.shape[0] != dim:
        raise DimensionMismatch(f"columns have dim {cols.shape[0]}, need {dim}")
    coef, perm = _phases_and_perm(P, dim)
    out = np.zeros_like(cols)
    out[perm, :] = coef[:, None] * cols
    return out


def pauli_matrix(P):
    """Dense matrix of a Pauli string (dim x dim)."""
    dim = 1 << P.n
    coef, perm = _phases_and_perm(P, dim)
    M = np.zeros((dim, dim), dtype=np.complex128)
    M[perm, np.arange(dim)] = coef
    return M


def gf2_rank(masks):
    """Rank over GF(2) of a list of bit masks."""
    by_msb = {}
    rank = 0
    for row in masks:
        cur = int(row)
        while cur:
            msb = cur.bit_length() - 1
            if msb in by_msb:
                cur ^= by_msb[msb]
            else:
                by_msb[msb] = cur
                rank += 1
                break
    return rank


def orthonormal_column_basis(vectors):
    """Orthonormal basis for the span of the given vectors.

    vectors is a sequence of 1d arrays, or a (dim, m) matrix whose
    columns are the vectors. Returns a (dim, k) array with orthonormal
    columns, k the numerical rank: the number of singular values above
    1e-8 times the largest. k = 0 (an empty basis) is returned when every
    vector is numerically zero. Deterministic for a fixed input order.

    A wide stack (m > dim) is reduced first: with A^dag = Q R, A = R^dag
    Q^dag, so A and the dim x dim matrix R^dag share their singular
    values and left singular vectors, and the SVD runs on R^dag (the
    R-SVD; T. F. Chan, ACM TOMS 8:72, 1982).
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        A = vectors.astype(np.complex128, copy=False)
    else:
        vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not vecs:
            raise EmptyInput("no vectors given")
        A = np.column_stack(vecs)
    if A.shape[1] == 0:
        raise EmptyInput("no vectors given")
    if A.shape[1] > A.shape[0]:
        A = np.linalg.qr(A.conj().T, mode="r").conj().T
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return np.zeros((A.shape[0], 0), dtype=np.complex128)
    rank = int(np.sum(s > _RANK_REL * s[0]))
    return fix_phases(U[:, :rank])


def span_projector(X):
    """Dense projector X X^dag onto the span of the orthonormal columns of X."""
    return X @ X.conj().T


def neighborhood(X, r, cap=_ENUM_CAP):
    """Span of all weight-<=r Pauli strings applied to the orthonormal
    columns of X, a (2^n, k) array, as an orthonormal array.

    Stacks S X for every S in the weight-<=r enumeration (fixed order) and
    orthonormalizes with the rank-revealing cutoff. Contains the span of
    X because the identity string is part of the enumeration. Raises
    EnumerationTooLarge when the stacked matrix would exceed the entry cap.
    """
    dim, k = X.shape
    if k == 0:
        return X
    paulis = enumerate_paulis(dim.bit_length() - 1, r)
    entries = len(paulis) * k * dim
    if entries > cap:
        raise EnumerationTooLarge(
            f"{len(paulis)} strings x {k} columns x {dim} rows "
            f"= {entries} entries exceeds cap {cap}"
        )
    return orthonormal_column_basis(np.hstack([apply_pauli_matrix(P, X) for P in paulis]))


def complement(X):
    """Orthonormal basis of the orthogonal complement of the span of X."""
    dim, k = X.shape
    if k == 0:
        return np.eye(dim, dtype=np.complex128)
    if k == dim:
        return np.zeros((dim, 0), dtype=np.complex128)
    U, _, _ = np.linalg.svd(X, full_matrices=True)
    return fix_phases(U[:, k:])


def _complement_within(big, small):
    """Basis of (1 - P_small) restricted to big; assumes small <= big.

    The residual's singular values are 1 on directions of big outside
    small and rounding noise elsewhere, so the rank cutoff is 1e-8
    against the unit norm of big's columns, not against the residual's
    own largest singular value, which is itself noise when small = big.
    """
    if big.shape[1] == 0:
        return big
    resid = big - small @ (small.conj().T @ big)
    U, s, _ = np.linalg.svd(resid, full_matrices=False)
    return fix_phases(U[:, : int(np.sum(s > _RANK_REL))])


def enumerated_partition(X, r):
    """The (V, r) split of subspace.partition_from_radius, for the span V
    of any orthonormal X, superposed or not, as four orthonormal arrays
    (A, B1, B2, C), from the composed neighborhoods B_r = neighborhood(X,
    r) and B_2r = neighborhood(B_r, r)."""
    B_r = neighborhood(X, r)
    B_2r = neighborhood(B_r, r)
    return X, _complement_within(B_r, X), _complement_within(B_2r, B_r), complement(B_2r)


def _coset_reps(n, span):
    """Smallest member of each coset of span among the n-bit strings."""
    idx = np.arange(1 << n, dtype=np.uint64)
    return np.unique(np.bitwise_xor.outer(idx, span).min(axis=1))


def css_labels(checks):
    """Class representatives for CSS eigenstate labels.

    Returns (x_reps, z_reps, gx_span, gxp_span): x labels run modulo the
    span of X-check supports, z labels modulo its orthogonal complement,
    each coset represented by its smallest member.
    """
    n = checks.n
    x_masks = [int(m) for m in checks.x_masks()]
    gx_span = gf2_span(x_masks)
    gxp_span = gf2_span(gf2_null_space_masks(n, x_masks))
    return _coset_reps(n, gx_span), _coset_reps(n, gxp_span), gx_span, gxp_span


def reference_state(n, gx_span):
    """psi0: the uniform superposition over the X-check span."""
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[gx_span.astype(np.int64)] = 1.0 / math.sqrt(gx_span.size)
    return psi


def css_eigenstate(checks, x, z, psi0=None, gx_span=None):
    """The eigenstate X(x) Z(z) |psi0>, phase set so its first nonzero
    entry is positive."""
    n = checks.n
    if gx_span is None:
        gx_span = gf2_span([int(m) for m in checks.x_masks()])
    if psi0 is None:
        psi0 = reference_state(n, gx_span)
    vec = apply_pauli(PauliString(n, int(x), int(z)), psi0)
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    return vec * (abs(lead) / lead)


def joint_reduced_distance(a, b, gx_span, gxp_span):
    """Min weight of supp(a^g) | supp(b^h) over both stabilizer spans."""
    ag = np.uint64(int(a)) ^ gx_span
    bh = np.uint64(int(b)) ^ gxp_span
    return int(popcount(np.bitwise_or.outer(ag, bh)).min())


def span_distance(checks, center):
    """The reduced distance from the center label (x0, z0) to every column
    (x, z) of label_basis(checks), one column at a time: the least
    joint_reduced_distance of (x ^ x0, z ^ z0) over the X-check span and
    its orthogonal complement, the fewest qubits a Pauli string mapping
    one eigenstate to the other touches. For a classical family the
    complement is every z, so it is the Hamming distance |x ^ x0|."""
    x_masks = [int(m) for m in checks.x_masks()]
    spans = gf2_span(x_masks), gf2_span(gf2_null_space_masks(checks.n, x_masks))
    W = label_basis(checks)
    x0, z0 = (int(c) for c in center)
    return np.array(
        [joint_reduced_distance(x ^ x0, z ^ z0, *spans) for x, z in zip(W.x.tolist(), W.z.tolist())]
    )


def pair_energy(checks, x, z):
    """Energy of the eigenstate |x, z>: the Z checks of odd overlap with x
    and the X checks of odd overlap with z."""
    violated = [int(popcount(np.uint64(int(m) & x))) & 1 for m in checks.z_masks()]
    violated += [int(popcount(np.uint64(int(m) & z))) & 1 for m in checks.x_masks()]
    return sum(violated)


def barrier_by_label_pairs(checks, center, inner_radius, boundary_radius):
    """The barrier certificate of model.barrier_subspace for H0 of checks,
    one label pair at a time, with V and boundary the dense arrays of
    their eigenstate columns; center is a pair of integer bitstrings, and
    each minimum energy is the least pair_energy of the pairs."""
    n = checks.n
    x0, z0 = (int(c) for c in center)
    if inner_radius + boundary_radius > n:
        raise EmptyBoundary(f"radii {inner_radius}+{boundary_radius} exceed n={n}")
    x_reps, z_reps, gx_span, gxp_span = css_labels(checks)
    inner_pairs, shell_pairs = [], []
    for xr in x_reps:
        for zr in z_reps:
            d = joint_reduced_distance(int(xr) ^ x0, int(zr) ^ z0, gx_span, gxp_span)
            if d <= inner_radius:
                inner_pairs.append((int(xr), int(zr)))
            elif d <= inner_radius + boundary_radius:
                shell_pairs.append((int(xr), int(zr)))
    if not shell_pairs:
        raise EmptyBoundary("no eigenstates in the boundary shell")
    psi0 = reference_state(n, gx_span)

    def span(pairs):
        return np.column_stack([css_eigenstate(checks, x, z, psi0, gx_span) for x, z in pairs])

    V, shell = span(inner_pairs), span(shell_pairs)
    e_v = float(min(pair_energy(checks, x, z) for x, z in inner_pairs))
    e_b = float(min(pair_energy(checks, x, z) for x, z in shell_pairs))
    return BarrierCertificate(
        V=V,
        boundary_radius=boundary_radius,
        E_min_V=e_v,
        E_min_boundary=e_b,
        kappa=(e_b - e_v) / n,
        boundary=shell,
    )


def shell_projectors(H0, boundaries, delta_E):
    """Dense projectors [Q_<, Q_1..Q_{q*}, Q_>] onto the eigenspaces of H0
    with energy below boundaries[0], in each width-delta_E window, and at
    or above boundaries[-1]."""
    mat = H0.mat
    dim = mat.shape[0]
    if max_offdiagonal(mat) < 1e-12:
        w, U = np.real(np.diag(mat)), None
    else:
        w, U = gauged_eigensystem(mat)
    q_star = len(boundaries) - 1
    bins = np.empty(w.size, dtype=np.int64)
    for i, E in enumerate(w):
        if E < boundaries[0]:
            bins[i] = 0
        elif E >= boundaries[-1]:
            bins[i] = q_star + 1
        else:
            bins[i] = 1 + int((E - boundaries[0]) / delta_E + 1e-12)
    projectors = []
    for b in range(q_star + 2):
        sel = np.flatnonzero(bins == b)
        if U is None:
            Q = np.zeros((dim, dim), dtype=np.complex128)
            Q[sel, sel] = 1.0
        else:
            Q = U[:, sel] @ U[:, sel].conj().T
        projectors.append(Q)
    if np.abs(sum(projectors) - np.eye(dim)).max() > 1e-9:
        raise ParametersInadmissible("shell projectors do not resolve identity")
    for i, Qi in enumerate(projectors):
        for Qj in projectors[i + 1 :]:
            if np.abs(Qi @ Qj).max() > 1e-9:
                raise ParametersInadmissible("shell projectors overlap")
    return projectors


def _embed_on_support(n, support, T, out):
    """Add a 2^k matrix, spread over the full register on the given qubits,
    into the dim x dim array out.

    Column j couples only to the 2^k rows rest_j | s, where rest_j is j
    with the support bits cleared and s runs over the support patterns,
    so only those 2^k * 2^n entries are touched.
    """
    dim = 1 << n
    k = len(support)
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(support):
        bit = (idx >> (n - 1 - q)) & 1
        sub |= bit << (k - 1 - pos)
    rest = idx & ~mask_from_indices(n, support)
    patterns = np.arange(1 << k)
    spread = np.zeros(1 << k, dtype=np.int64)
    for pos, q in enumerate(support):
        spread |= ((patterns >> (k - 1 - pos)) & 1) << (n - 1 - q)
    out[rest[None, :] | spread[:, None], idx[None, :]] += T[patterns[:, None], sub[None, :]]
    return out


def gather_embed_on_support(n, support, T):
    """The term of _embed_on_support as a new matrix, by a gather of T over
    the support bits of every (row, column) pair and a mask that zeroes
    the pairs that differ off the support."""
    dim = 1 << n
    k = len(support)
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(support):
        bit = (idx >> (n - 1 - q)) & 1
        sub |= bit << (k - 1 - pos)
    rest = idx & ~mask_from_indices(n, support)
    full = T[np.ix_(sub, sub)].copy()
    full[rest[:, None] != rest[None, :]] = 0.0
    return full


def dense_perturbation(n, term_supports, g, seed):
    """A seeded Gaussian Hermitian term on each support, in order, embedded
    into one dense complex V and rescaled to norm g*n: from the term
    spectra for disjoint supports, from V's own otherwise. One term per
    site, in site order, is model.random_local_perturbation(n, g, seed)'s
    draw. Returned as a Hamiltonian whose form is V, with the supports'
    bookkeeping and no phases."""
    supports = tuple(tuple(sorted(int(q) for q in s)) for s in term_supports)
    dim = 1 << n
    V = np.zeros((dim, dim), dtype=np.complex128)
    rng = np.random.default_rng(seed)
    lo = hi = 0.0
    for supp in supports:
        k = len(supp)
        G = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal(
            (1 << k, 1 << k)
        )
        T = 0.5 * (G + G.conj().T)
        _embed_on_support(n, supp, T, V)
        w = np.linalg.eigvalsh(T)
        lo += w[0]
        hi += w[-1]
    if g > 0 and supports:
        qubits = [q for supp in supports for q in supp]
        if len(set(qubits)) == len(qubits):
            norm = max(abs(lo), abs(hi))
        else:
            norm = np.abs(np.linalg.eigvalsh(V)).max()
        if norm > 0:
            V *= (g * n) / norm
    else:
        V[:] = 0.0
    return Hamiltonian(
        V,
        n=n,
        w0=_max_per_qubit(n, supports),
        w1=max((len(s) for s in supports), default=0),
        term_supports=supports,
    )


def dense_perturbed(H0, term_supports, g, seed):
    """H0.mat + dense_perturbation(H0.n, term_supports, g, seed), one dense
    complex matrix with no gauge taken."""
    return H0.mat + dense_perturbation(H0.n, term_supports, g, seed).mat


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

    H must already be Hermitian. The phases are set along the spanning
    forest of _gauge_phases (theta_j = theta_i - arg H_ij), so tree
    entries come out real positive; every entry is then checked, not only
    the tree: the imaginary part of D^dag H D that a real solve drops
    must have max row l1 sum (which bounds its operator norm) at most
    1e-12 * max(1, max|H|). A 3-cycle with nonzero flux or a generic
    two-site complex term has no such gauge. A matrix with no imaginary
    part at all is its own gauge (D = I), found without the spanning
    tree.
    """
    if H.size == 0:
        return None, H
    if not H.imag.any():
        return np.ones(H.shape[0]), np.ascontiguousarray(H.real)
    d = _gauge_phases(H)
    G = d.conj()[:, None] * H
    G *= d[None, :]
    dropped = np.abs(G.imag).sum(axis=1).max()
    if dropped > GAUGE_REL_TOL * max(1.0, float(np.abs(H).max())):
        return None, H
    return d, np.ascontiguousarray(G.real)


def gauged_eigensystem(H):
    """Ascending eigenvalues and phase-fixed eigenvectors of a Hermitian
    matrix, solved on its real gauge (_gauged) when one is found, with
    the eigenvectors returned as D U_r, and by the complex solver
    otherwise."""
    d, M = _gauged(_symmetrized(H))
    w, V = np.linalg.eigh(M)
    if d is not None:
        V = d[:, None] * V
    return w, fix_phases(V)


def dense_gibbs(mat, beta):
    """rho = U diag(p) U^dag as a DensityMatrix, from the eigenpairs that
    gauged_eigensystem gives for the dense mat, with p the Gibbs weights
    of its eigenvalues."""
    w, U = gauged_eigensystem(mat)
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return DensityMatrix((U * p[None, :]) @ U.conj().T)


def thermal_gibbs_state(H, beta):
    """(rho, logZ, F) as gibbs_state returns them, with rho dense and
    without labels, from the eigensystem H.eigensystem() of a H that is
    not diagonal, as thermal_state solves it, with H's phases."""
    w, U, phases = H.eigensystem()
    probs, logZ = gibbs_weights(w, beta)
    mat = ((U * probs[None, :]) @ U.conj().T).astype(np.complex128, copy=False)
    if phases is not None:
        mat *= phases[:, None]
        mat *= phases.conj()[None, :]
    F = -logZ / beta if beta > 0 else -math.inf
    return DensityMatrix(mat, H.n), logZ, F


def dense_log_partition(mat, beta):
    """log tr e^{-beta H} from the gauged_eigensystem eigenvalues of the
    dense mat, shifted by the lowest one."""
    w, _ = gauged_eigensystem(mat)
    return float(np.log(np.exp(-beta * (w - w.min())).sum()) - beta * w.min())


def dense_ratio(H, beta, P_A, P_B):
    """(Delta, numerator, denominator) of bottleneck_ratio on the dense rho
    of H.mat (dense_gibbs)."""
    return bottleneck_ratio(dense_gibbs(H.mat, beta), P_A, P_B)


def eigen_ratio(H, beta, cert):
    """Delta of the Gibbs state of H on a barrier certificate by the
    eigensolve route: thermal_state, then bottleneck_ratio on its
    eigen-form. It is the oracle for the certified Chebyshev route of
    stability.sweep_point, which falls back to it."""
    return bottleneck_ratio(thermal_state(H, beta), cert.V, cert.boundary)[0]


def eigen_columns(H, beta, cols, lo):
    """Columns cols of e^{-beta (M - lo)}, M the real form of H, from its
    eigensolve: U diag(e^{-beta (w - lo)}) U^T[:, cols]."""
    w, U = np.linalg.eigh(H.form)
    return (U * np.exp(-beta * (w - lo))[None, :]) @ U[cols].T


def dense_min_energy(X, H):
    """Smallest eigenvalue of X^dag H X for orthonormal columns X."""
    block = X.conj().T @ H.mat @ X
    return float(np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0])


def _parity(indices, mask):
    return (popcount(indices & np.uint64(mask)) & 1).astype(np.int64)


def dense_check_hamiltonian(checks):
    """H0 as a dense real matrix: the violated Z checks on the diagonal,
    plus (1 - X(m))/2 for every X check m.

    Every X term is checked to commute with every Z term (within 1e-10)
    and the spectrum, by eigvalsh, to be non-negative integers (within
    1e-9); NonCommutingChecks otherwise.
    """
    n = checks.n
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    diag = np.zeros(dim)
    for mask in checks.z_masks():
        diag += _parity(idx, mask)
    H = np.diag(diag)
    z_diags = [_parity(idx, m).astype(np.float64) for m in checks.z_masks()]
    for mask in checks.x_masks():
        term = 0.5 * np.eye(dim)
        term[(idx ^ np.uint64(mask)).astype(np.int64), np.arange(dim)] -= 0.5
        for zd in z_diags:
            resid = np.abs(term * zd[None, :] - zd[:, None] * term).max()
            if resid > 1e-10:
                raise NonCommutingChecks(f"term commutator residual {resid:.3e}")
        H += term
    w = np.linalg.eigvalsh(H)
    if np.abs(w - np.round(w)).max() > 1e-9 or w.min() < -1e-9:
        raise NonCommutingChecks("spectrum is not non-negative integers")
    return H


def label_energy_residual(mat, basis, energies):
    """max |H W - W diag(E)| for a dense H: zero when H is diagonal in W
    with energies E."""
    W = basis.dense()
    resid = mat @ W - W * energies[None, :]
    return float(np.abs(resid).max())


def row_norm_blocks(W, blocks):
    """Block (0=A, 1=B1, 2=B2, 3=C) of every label of W, read from the row
    norms of W^dag B for the four dense block bases B, or None unless each
    norm is 0 or 1 within 1e-9 and every label lies in exactly one block."""
    member = np.full(W.dim, -1)
    Wd = W.dense()
    for b, block in enumerate(blocks):
        if block.shape[1] == 0:
            continue
        norms = np.linalg.norm(Wd.conj().T @ block, axis=1)
        inside = norms > 0.5
        if np.abs(norms - inside).max() > 1e-9 or inside.sum() != block.shape[1]:
            return None
        if (member[inside] >= 0).any():
            return None
        member[inside] = b
    return member if (member >= 0).all() else None


def dense_norm(V):
    """Largest |eigenvalue| of the full matrix of a Hermitian operator."""
    return float(np.abs(np.linalg.eigvalsh(V.mat)).max())


def dense_collar_weights(mat, V, shell):
    """(tr(P_V rho), ||rho P_shell - P_shell rho||) from dense projectors."""
    prob_V = float(np.real(np.trace(V.projector() @ mat)))
    P_shell = shell.projector()
    return prob_V, operator_norm(mat @ P_shell - P_shell @ mat)


def dense_free_energy_bounds(H, beta, V, r, rho):
    """(bounds_a, bounds_b, bounds_c, a_applicable, b_applicable) of V and
    its 2r-collar, from scipy's logsumexp and dense projectors."""
    from scipy.special import logsumexp

    shell = boundary(V, 2 * r)
    w, U = spectrum(H)

    def weight(X):
        return (np.abs(X if U is None else U.conj().T @ X) ** 2).sum(axis=1)

    logZ = float(logsumexp(-beta * w))
    log_trV = float(logsumexp(-beta * w, b=weight(V.basis)))
    log_trB = float(logsumexp(-beta * w, b=weight(shell.basis)))
    prob_V, comm = dense_collar_weights(rho.mat, V, shell)
    bounds_c = math.exp(
        0.5 * (log_trB - log_trV) + 0.5 * (logZ + beta * subspace_min_energy(V, H))
    )
    return (
        math.exp(0.5 * log_trB) / prob_V,
        math.exp(log_trB - log_trV),
        bounds_c,
        logZ >= -1e-12 and prob_V > 1e-12,
        comm < 1e-9,
    )


def enumerated_blocks(X, r, cap=_ENUM_CAP):
    """Block projectors {A, B1, B2, C} of the (V, r) split from Pauli
    neighborhoods of the span V of the orthonormal X: P_V, P_{B_r} - P_V,
    P_{B_2r} - P_{B_r} and 1 - P_{B_2r}. By the composition law B_2r is
    both the radius-min(2r, n) neighborhood of V and the radius-r
    neighborhood of B_r; it is enumerated from whichever stacks fewer
    entries, so the oracle runs on every case where either form fits
    under cap. Raises EnumerationTooLarge past cap."""
    dim, k = X.shape
    n = dim.bit_length() - 1
    B_r = neighborhood(X, r, cap=cap)
    if pauli_count(n, 2 * r) * k <= pauli_count(n, r) * B_r.shape[1]:
        B_2r = neighborhood(X, min(2 * r, n), cap=cap)
    else:
        B_2r = neighborhood(B_r, r, cap=cap)
    P_A, P_r, P_2r = span_projector(X), span_projector(B_r), span_projector(B_2r)
    return {"A": P_A, "B1": P_r - P_A, "B2": P_2r - P_r, "C": np.eye(dim) - P_2r}


_EIG_DENSE_CUTOFF = 1024


def stationary_distribution(M):
    """The unique probability vector with M pi = pi.

    Dense eigendecomposition of ``M.toarray()`` up to 1024 states, ARPACK
    on the sparse matrix above, from a fixed seeded start vector so that
    repeated calls return the same bits. Uniqueness of the eigenvalue-1
    space is checked: reducible chains, and chains whose gap is below
    1e-9, raise NonUniqueStationary.
    """
    from scipy import sparse

    # a dense oracle chain may hold a -ulp stay entry, so it is taken as given
    mat = M.mat if isinstance(M, StochasticMatrix) else sparse.csc_array(M)
    dim = mat.shape[0]
    if dim <= _EIG_DENSE_CUTOFF:
        w, V = np.linalg.eig(mat.toarray())
    else:
        from scipy.sparse.linalg import eigs

        # Not the uniform vector: at beta = 0 it is already the answer, and
        # ARPACK cannot grow a Krylov space from an exact eigenvector.
        v0 = np.random.default_rng(0).random(dim)
        w, V = eigs(mat, k=min(6, dim - 2), which="LM", tol=0, v0=v0)
    close = np.flatnonzero(np.abs(w - 1.0) < 1e-9)
    if close.size != 1:
        raise NonUniqueStationary(
            f"found {close.size} eigenvalues within 1e-9 of 1"
        )
    vec = np.real(V[:, close[0]])
    vec = np.where(np.abs(vec) < 1e-15, 0.0, vec)
    if vec.sum() < 0:
        vec = -vec
    vec = np.clip(vec, 0.0, None)
    pi = vec / vec.sum()
    resid = float(np.abs(mat @ pi - pi).sum())
    if resid > 1e-10:
        raise NonUniqueStationary(f"stationary residual {resid:.3e} exceeds 1e-10")
    return pi


def dense_glauber(E, beta, laziness=0.0):
    """Dense Glauber builder, entry by entry."""
    E = np.asarray(E, dtype=np.float64)
    dim = E.shape[0]
    m = dim.bit_length() - 1
    M = np.zeros((dim, dim))
    idx = np.arange(dim)
    for b in range(m):
        flip = idx ^ (1 << b)
        accept = np.minimum(1.0, np.exp(-beta * (E[flip] - E)))
        M[flip, idx] += (1.0 - laziness) / m * accept
    np.fill_diagonal(M, 0.0)
    M[idx, idx] = 1.0 - M.sum(axis=0)
    return M


def per_beta_glauber(E, beta, laziness=0.0):
    """((m + 1, 1) masks, weights) of the Glauber chain, built from the
    energies as one call: gather E over the flips j ^ (1 << b) in
    ascending b, take the uphill jumps, accept, scale, and fill the stay
    entry, mask 0 in the last row, from the flips added in that order."""
    E = np.asarray(E, dtype=np.float64)
    dim = E.shape[0]
    m = dim.bit_length() - 1
    masks = np.concatenate([1 << np.arange(m), [0]])[:, None]
    weights = E[np.arange(dim) ^ masks]
    weights -= E
    np.maximum(weights, 0, out=weights)
    weights *= -beta
    np.exp(weights, out=weights)
    np.minimum(weights, 1.0, out=weights)
    weights *= (1.0 - laziness) / m
    weights[m] = 0.0
    weights[m] = np.maximum(1.0 - weights.sum(axis=0), 0.0)
    return masks, weights


def explicit_rows(moves, dim):
    """The (k, dim) rows j ^ moves[k, j] of a form in markov's XOR layout,
    moves of shape (k, 1) or (k, dim)."""
    return np.arange(dim) ^ np.asarray(moves)


def dense_report(M, label, pi):
    """The classical bound on a dense chain with stationary law pi, for
    one block label per state."""
    A, B, C = (np.flatnonzero(np.isin(label, blk)) for blk in ((0,), (1, 2), (3,)))
    pA, pB, pC = pi[A].sum(), pi[B].sum(), pi[C].sum()
    piA = np.zeros(M.shape[0])
    piA[A] = pi[A] / pA
    lhs = np.abs(M @ piA - piA).sum()
    return {"lhs": lhs, "bound": 2.0 * pB / pA, "pi_A": pA, "pi_B": pB, "pi_C": pC}


def glauber_flow(E, beta, laziness, label, pi):
    """2 Q(A, A^c)/pi(A) of the Glauber chain at beta, one state x of A at
    a time in ascending order: the per_beta_glauber weights of x's flips
    that leave A, added in bit order, then numpy's sum of pi(x) times
    them over A's states, over pi(A) summed as the package sums it."""
    masks, weights = per_beta_glauber(E, beta, laziness)
    A = np.flatnonzero(label == 0)
    out = np.zeros(A.size)
    for i, x in enumerate(A.tolist()):
        for b, mask in enumerate(masks[:-1, 0].tolist()):
            if label[x ^ mask] != 0:
                out[i] += weights[b, x]
    return 2.0 * float((pi[A] * out).sum()) / float(pi[label == 0].sum())


def exact_glauber_drift(checks, center, inner, q, laziness=0):
    """||M pi_A - pi_A||_1 of one Metropolis step of the single-flip chain
    of a classical check family at e^{-beta} = 1/q, A the states within
    Hamming distance inner of center, in exact rationals. pi_A is z^E
    over A's sum, so Z cancels, and a step from A reaches distance
    inner + 1 at most, so the states up to there carry the whole drift."""
    n, masks = checks.n, [int(m) for m in checks.z_masks()]
    z, lazy = Fraction(1, q), Fraction(laziness)
    energy = functools.lru_cache(maxsize=None)(
        lambda x: sum(bin(x & mask).count("1") & 1 for mask in masks)
    )

    def move(x, y):  # propose one of n bits, accept with min(1, z^(E(y) - E(x)))
        return (1 - lazy) / n * z ** max(energy(y) - energy(x), 0)

    states = [
        center ^ sum(1 << b for b in bits)
        for w in range(inner + 2)
        for bits in itertools.combinations(range(n), w)
    ]
    weight = {x: z ** energy(x) if bin(x ^ center).count("1") <= inner else Fraction(0) for x in states}
    total = sum(weight.values())
    pi_A = {x: w / total for x, w in weight.items()}
    lhs = Fraction(0)
    for y in states:
        stay = 1 - sum(move(y, y ^ (1 << b)) for b in range(n))
        into = sum(move(y ^ (1 << b), y) * pi_A.get(y ^ (1 << b), 0) for b in range(n))
        lhs += abs(stay * pi_A[y] + into - pi_A[y])
    return lhs


def communicating_classes(M):
    """Number of strongly connected classes of the graph of a chain's
    strictly positive entries, read from its CSC matrix."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    graph = sparse.csc_array(M.mat if isinstance(M, StochasticMatrix) else M, copy=True)
    graph.eliminate_zeros()
    return connected_components(graph, directed=True, connection="strong")[0]


def hamming_shell_labels(n, center, inner, width):
    """Block labels of the Hamming shells about a center bitstring: A the
    ball of radius inner, B1 and B2 the next two shells of the given
    width, C the rest."""
    d = np.bitwise_count(np.arange(1 << n) ^ center)
    return (d > inner).astype(np.int8) + (d > inner + width) + (d > inner + 2 * width)


def block_labels(A, B1, B2, C):
    """One block label per state (0 for A, 1 for B1, 2 for B2, 3 for C)
    from the index lists of the four blocks; a state that no list names
    keeps -1."""
    label = np.full(sum(len(b) for b in (A, B1, B2, C)), -1, dtype=np.int8)
    for k, block in enumerate((A, B1, B2, C)):
        label[list(block)] = k
    return label


def ring_cut_ratio(n, beta, center, inner, width):
    """pi(B)/pi(A) for the Gibbs law of the n-site Ising ring, E(x) the
    number of neighbouring bits that differ (site n-1 next to site 0),
    with A the states within Hamming distance inner of center and B the
    next 2 * width shells."""
    x = np.arange(1 << n)
    E = np.bitwise_count(x ^ ((x >> 1) | ((x & 1) << (n - 1))))
    w = np.exp(-beta * (E - E.min()))
    d = np.bitwise_count(x ^ center)
    return w[(d > inner) & (d <= inner + 2 * width)].sum() / w[d <= inner].sum()


def birth_death_chain(m, pi):
    """Nearest-neighbour Metropolis walk on {0..m-1} with stationary pi."""
    M = np.zeros((m, m))
    for x in range(m):
        for y in (x - 1, x + 1):
            if 0 <= y < m:
                M[y, x] = 0.5 * min(1.0, pi[y] / pi[x])
        M[x, x] = 1.0 - M[:, x].sum()
    return M


def column_chain(M):
    """The StochasticMatrix of a dense chain: the nonzero entries of each
    column, rows ascending, short columns padded with zero weights on
    their last row."""
    A = np.asarray(M, dtype=np.float64)
    nonzero = A.T != 0
    counts = nonzero.sum(axis=1)
    pos = np.arange(int(counts.max()))[:, None]
    src = (np.cumsum(counts) - counts) + np.minimum(pos, counts - 1)
    rows = np.nonzero(nonzero)[1][src]
    return StochasticMatrix.from_columns(rows, np.where(pos < counts, A.T[nonzero][src], 0.0))


def classical_energy(x, checks):
    """Number of Z checks with odd parity on the bitstring x."""
    if not checks.is_classical:
        raise NotClassical("model has X checks")
    bits = np.asarray(x)
    mask = np.uint64(int(x) if bits.ndim == 0 else mask_from_indices(checks.n, np.flatnonzero(bits)))
    return int(sum(int(popcount(mask & np.uint64(m))) & 1 for m in checks.z_masks()))


def validate_density(rho, floor=-1e-10):
    """Smallest eigenvalue of a DensityMatrix, checked to be >= floor."""
    lo = float(np.linalg.eigvalsh(rho.mat)[0])
    if lo < floor:
        raise ValueError(f"negative eigenvalue {lo:.3e} below floor {floor:.1e}")
    return lo


def loop_fix_phases(columns, tol=1e-12):
    """Each column rotated so its first entry above tol is real positive,
    one column at a time."""
    out = np.array(columns, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        out[:, j] = col * (abs(pivot) / pivot)
    return out


@dataclass
class ChannelReport:
    residual: float
    supports: list
    passes: bool


def validate_channel(C):
    """Trace-preservation residual plus detected per-Kraus supports."""
    resid = _trace_residual(C.kraus, C.dim)
    supports = [_kraus_support(K, C.n) for K in C.kraus]
    return ChannelReport(resid, supports, resid < 1e-10)


def dense_copy(chan):
    """The same operators without a monomial form, which forces the dense path."""
    return KrausChannel(chan.n, chan.kraus)


def dense_site_kraus(H, beta, site, q=DEFAULT_ATTEMPT):
    """The bit-flip Kraus pair built as dense matrices."""
    n = H.n
    dim = 1 << n
    E = np.real(np.diag(H.mat))
    idx = np.arange(dim)
    flip = idx ^ (1 << (n - 1 - site))
    accept = q * np.minimum(1.0, np.exp(-beta * (E[flip] - E)))
    K_flip = np.zeros((dim, dim), dtype=np.complex128)
    K_flip[flip, idx] = np.sqrt(accept)
    return [K_flip, np.diag(np.sqrt(1.0 - accept).astype(np.complex128))]


def dense_css_jumps(fam, site, flavor):
    """sigma P_omega and P_omega per jump omega, from dense syndrome projectors."""
    n = fam.n
    dim = 1 << n
    opposing = fam.z_checks if flavor == "X" else fam.x_checks
    opposing = [s for s in opposing if site in s]
    other = "Z" if flavor == "X" else "X"
    check_mats = [
        pauli_matrix(PauliString.from_letters(n, {s: other for s in supp}))
        for supp in opposing
    ]
    sigma = pauli_matrix(PauliString.from_letters(n, {site: flavor}))
    projectors = {}
    for pattern in range(1 << len(opposing)):
        P = np.eye(dim, dtype=np.complex128)
        omega = 0
        for k, C in enumerate(check_mats):
            violated = (pattern >> k) & 1
            P = P @ (0.5 * (np.eye(dim) + (-1.0 if violated else 1.0) * C))
            omega += -1 if violated else 1
        if np.abs(P).max() < 1e-14:
            continue
        projectors[omega] = projectors.get(omega, 0) + P
    return [(omega, sigma @ P, P) for omega, P in sorted(projectors.items())]


def dense_css_kraus(jumps, beta, q=DEFAULT_ATTEMPT):
    """The CSS Kraus list: one jump per omega in ascending order, then stay."""
    kraus = []
    stay = 0
    for omega, sigma_P, P in jumps:
        a = q * min(1.0, np.exp(-beta * omega))
        kraus.append(np.sqrt(a) * sigma_P)
        stay = stay + np.sqrt(1.0 - a) * P
    return kraus + [stay]


def per_call_css_form(H0, beta, site, flavor, q=DEFAULT_ATTEMPT):
    """(rows, coef) of the CSS Metropolis move built from scratch on every
    call, as sampler.css_metropolis_channel did before its move tables:
    the image and the jumps omega are worked out again, and every
    distinct omega, ascending, gets its own scalar amplitude, then the
    stay operator. The oracle, bit for bit, for the per-beta step over a
    kept move table."""
    fam = H0.checks
    n = fam.n
    W = H0.labels[0]
    bit = 1 << (n - 1 - site)
    if flavor == "X":
        col, phase = W.pauli_image(bit, 0)
        opposing, labels = fam.z_checks, W.x
    else:
        col, phase = W.pauli_image(0, bit)
        opposing, labels = fam.x_checks, W.z
    omega = np.zeros(W.dim, dtype=np.int64)
    for supp in opposing:
        if site in supp:
            mask = np.uint64(mask_from_indices(n, supp))
            omega += 1 - 2 * (popcount(labels & mask) & 1)
    rows, coef = [], []
    stay = np.zeros(W.dim)
    for w in np.unique(omega):
        a = q * min(1.0, np.exp(-beta * max(w, 0)))
        jumps = omega == w
        rows.append(col)
        coef.append(np.where(jumps, np.sqrt(a) * phase, 0.0))
        stay[jumps] = np.sqrt(1.0 - a)
    rows.append(np.arange(W.dim))
    coef.append(stay)
    return np.asarray(rows, dtype=np.int64), np.asarray(coef, dtype=np.complex128)


def per_call_site_form(H, beta, site, q=DEFAULT_ATTEMPT):
    """The MonomialKraus form of the bit-flip Metropolis move at one site,
    built from scratch, as sampler.metropolis_site_channel did before the
    site move tables, with complex coefficients and checked by the
    samplers' one check: Kraus pair {K_flip, K_stay}, the flip with
    amplitude sqrt(q min(1, e^{-beta dE})) and the stay operator
    completing the diagonal."""
    if not H.is_diagonal:
        raise NotDiagonal("site Metropolis needs a diagonal Hamiltonian")
    n = H.n
    E = H.diagonal()
    idx = np.arange(1 << n)
    bit = 1 << (n - 1 - site)
    accept = q * np.minimum(1.0, np.exp(-beta * np.maximum(E[idx ^ bit] - E, 0)))
    coef = np.array([np.sqrt(accept), np.sqrt(1.0 - accept)], dtype=np.complex128)
    chan = _trusted_channel(identity_basis(n), np.array([[bit], [0]]), coef, np.abs(coef) ** 2)
    return _checked(chan, H.gibbs(beta)[0], f"site {site}").monomial


def per_form_support(rows, coef, n):
    """_kraus_support of K = sum_j coef[j] |rows[j]><j|, rows j ^ c for
    one mask c, read from one form in O(n dim), as
    channel._monomial_support did: q is in the support when c holds its
    bit b and some entry passes 1e-9, or when c lacks it and some
    |coef[j] - coef[j ^ b]| does."""
    if not coef.imag.any():
        coef = coef.real
    (mask,) = np.unique(rows ^ np.arange(rows.size))
    big = bool((np.abs(coef) > 1e-9).any())
    support = []
    for q in range(n):
        b = 1 << (n - 1 - q)
        e = coef.reshape(1 << q, 2, b)
        hit = big if mask & b else np.abs(e[:, 0] - e[:, 1]).max() > 1e-9
        if hit:
            support.append(q)
    return tuple(support)
