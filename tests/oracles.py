"""Reference forms of computations that the package does by faster routes.

Each oracle follows the definition rather than a data layout, one item at
a time, and only tests call it:

- css_labels and css_eigenstate build CSS eigenstates one label pair at a
  time, by applying X(x) Z(z) to the reference state psi0, the uniform
  superposition over the span of the X checks. They are the oracle for
  model.label_basis.
- barrier_by_label_pairs builds a barrier ball and its boundary shell by a
  loop over label pairs, taking the reduced distance of each pair as a
  minimum over both stabilizer spans. It is the oracle for
  model.barrier_subspace.
- shell_projectors builds the energy windows of H0 as dense projectors
  and checks that they resolve the identity without overlapping. It is
  the oracle for stability.shell_decomposition, whose windows are index
  sets of the eigenbasis.
- dense_ratio forms the Gibbs state as a dense rho and reads Delta from
  it. It is the oracle for bottleneck_ratio on a model.ThermalState.
- dense_min_energy multiplies out the compressed block X^dag H X. It is
  the oracle for the gathered block of model.subspace_min_energy.
- dense_norm is the operator norm of a perturbation from the eigenvalues
  of its full matrix. It is the oracle for the disjoint-support norm of
  model.random_local_perturbation.
- dense_collar_weights reads tr(P_V rho) and the commutator norm
  ||[rho, P_shell]|| from dense projectors and a dense commutator. It is
  the oracle for the label form in bottleneck.free_energy_report.
- dense_free_energy_bounds computes the three free-energy bounds with
  scipy.special.logsumexp and dense_collar_weights, as the package did
  before its own logsumexp and label form. It is the oracle for
  bottleneck.free_energy_report.
- enumerated_blocks builds the block projectors of the local-theorem
  split (V, first r-shell, second r-shell, rest) from the Pauli
  enumeration of subspace.neighborhood, at radius 2r from V or r from
  the first neighborhood, whichever is smaller. It is the oracle for the
  label shells of subspace.partition_from_radius.
- stationary_distribution solves M pi = pi by a generic eigensolve: dense
  eig up to 1024 states, ARPACK from a seeded start vector above. It is
  the oracle for the Gibbs weights that verify-classical passes as the
  stationary law. It fails on chains whose spectral gap is below its
  1e-9 test, which the Gibbs route does not.
- dense_glauber builds the Metropolis chain entry by entry. It is the
  oracle for markov.glauber_chain.
- dense_report reads the classical bound from a dense chain and a given
  law. It is the oracle for markov.classical_bottleneck_report.
"""

import math

import numpy as np

from bottlenecklab.bottleneck import bottleneck_ratio
from bottlenecklab.errors import EmptyBoundary, NonUniqueStationary, ParametersInadmissible
from bottlenecklab.markov import StochasticMatrix
from bottlenecklab.model import BarrierCertificate, gibbs_state, spectrum, subspace_min_energy
from bottlenecklab.numerics import hermitian_eigensystem, max_offdiagonal, operator_norm
from bottlenecklab.pauli import (
    PauliString,
    apply_pauli,
    gf2_null_space_masks,
    gf2_span,
    popcount,
)
from bottlenecklab.subspace import Subspace, boundary, neighborhood


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


def barrier_by_label_pairs(checks, center, inner_radius, boundary_radius, H):
    """The barrier certificate of model.barrier_subspace, one label pair at
    a time; center is a pair of integer bitstrings."""
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

    def span(pairs, label):
        cols = [css_eigenstate(checks, x, z, psi0, gx_span) for x, z in pairs]
        return Subspace(n, np.column_stack(cols), label=label)

    V = span(inner_pairs, f"ball r<={inner_radius}")
    shell = span(shell_pairs, f"shell {inner_radius}<d<={inner_radius + boundary_radius}")
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


def shell_projectors(H0, boundaries, delta_E):
    """Dense projectors [Q_<, Q_1..Q_{q*}, Q_>] onto the eigenspaces of H0
    with energy below boundaries[0], in each width-delta_E window, and at
    or above boundaries[-1]."""
    mat = H0.mat
    dim = mat.shape[0]
    if max_offdiagonal(mat) < 1e-12:
        w, U = np.real(np.diag(mat)), None
    else:
        w, U = hermitian_eigensystem(mat)
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


def dense_ratio(H, beta, P_A, P_B):
    """(Delta, numerator, denominator) of bottleneck_ratio on the dense rho
    of gibbs_state(H, beta)."""
    rho, _, _ = gibbs_state(H, beta)
    return bottleneck_ratio(rho, P_A, P_B)


def dense_min_energy(V, H):
    """Smallest eigenvalue of X^dag H X for the basis X of V."""
    block = V.basis.conj().T @ H.mat @ V.basis
    return float(np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0])


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


def _string_count(n, r):
    """Number of Pauli strings of weight <= r on n qubits."""
    return sum(math.comb(n, k) * 3**k for k in range(min(r, n) + 1))


def enumerated_blocks(V, r, cap=2**28):
    """Block projectors {A, B1, B2, C} of the (V, r) split from Pauli
    neighborhoods: P_V, P_{B_r} - P_V, P_{B_2r} - P_{B_r} and 1 - P_{B_2r}.
    By the composition law B_2r is both the radius-min(2r, n)
    neighborhood of V and the radius-r neighborhood of B_r; it is
    enumerated from whichever stacks fewer entries, so the oracle runs
    on every case where either form fits under cap. Raises
    EnumerationTooLarge past cap."""
    B_r = neighborhood(V, r, cap=cap)
    if _string_count(V.n, 2 * r) * V.dim <= _string_count(V.n, r) * B_r.dim:
        B_2r = neighborhood(V, min(2 * r, V.n), cap=cap)
    else:
        B_2r = neighborhood(B_r, r, cap=cap)
    P_A, P_r, P_2r = V.projector(), B_r.projector(), B_2r.projector()
    return {"A": P_A, "B1": P_r - P_A, "B2": P_2r - P_r, "C": np.eye(1 << V.n) - P_2r}


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


def dense_report(M, part, pi):
    """The classical bound on a dense chain with stationary law pi."""
    A, B, C = list(part.A), list(part.B), list(part.C)
    pA, pB, pC = pi[A].sum(), pi[B].sum(), pi[C].sum()
    piA = np.zeros(M.shape[0])
    piA[A] = pi[A] / pA
    lhs = np.abs(M @ piA - piA).sum()
    return {"lhs": lhs, "bound": 2.0 * pB / pA, "pi_A": pA, "pi_B": pB, "pi_C": pC}
