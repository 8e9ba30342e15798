"""Numerical bottleneck bounds for quantum channels and classical chains.

Modules:
    numerics     dense linear-algebra kernels, the tolerance table
    pauli        qubit bit masks, Hamming distances, GF(2) spans
    subspace     label bases, subspaces, label-shell partitions
    channel      Kraus channels, locality, quasi-local mixtures
    markov       stochastic chains held op-major (the one label-chain kernel), the classical bound
    model        parity-check Hamiltonians, barriers, Gibbs states
    sampler      Metropolis-type channels with engineered fixed points
    bottleneck   the bottleneck theorem verifiers, free-energy and quasi-local bounds
    stability    shell decompositions, tail bounds, stability sweeps
    cli          config-driven experiment runner
"""

__version__ = "0.1.0"
