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
