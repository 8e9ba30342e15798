import numpy as np
import pytest

from bottlenecklab.errors import EmptyInput
from bottlenecklab.numerics import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    """Random full(ish)-rank density matrix via a Wishart draw."""
    rank = rank or dim
    A = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = A @ A.conj().T
    return rho / rho.trace()


def random_unitary(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_pi(rng, dim):
    pi = rng.dirichlet(np.ones(dim))
    pi = np.maximum(pi, 1e-9)
    return pi / pi.sum()


def random_projector(rng, dim, k):
    U = random_unitary(rng, dim)
    return U[:, :k] @ U[:, :k].conj().T


def pure_state_density(vec, n=None):
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise EmptyInput("zero vector has no associated state")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()), n)


def flux_triangle(phi):
    """A Hermitian 3-cycle whose loop carries the phase e^{i phi}: a
    diagonal gauge makes it real only at phi = 0."""
    H = np.array([[0.3, 1.0, 1.0], [1.0, -0.2, np.exp(1j * phi)], [1.0, 0.0, 0.5]], dtype=complex)
    H[2, 1] = np.conj(H[1, 2])
    return H


def gauge_block_diagonal(rng):
    """Two gauge-real blocks (a complex 4-cycle with zero flux and a real
    chain) plus isolated diagonal entries: three kinds of component."""
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    cycle = np.diag(rng.normal(size=4)).astype(complex)
    for i in range(4):
        j = (i + 1) % 4
        cycle[i, j] = rng.uniform(0.5, 1.5) * phases[i] * np.conj(phases[j])
        cycle[j, i] = np.conj(cycle[i, j])
    chain = np.diag(rng.normal(size=3)) + np.diag([-0.7, 0.4], 1) + np.diag([-0.7, 0.4], -1)
    H = np.zeros((10, 10), dtype=complex)
    H[:4, :4] = cycle
    H[5:8, 5:8] = chain
    H[4, 4], H[8, 8], H[9, 9] = 2.0, -1.0, 2.0
    return H
