"""Exception types raised across the package.

Everything derives from BottleneckLabError so callers can catch broadly.
Names follow the failure they signal, not the place they come from; a few
are shared between modules (EmptyBoundary is raised by both the subspace
builders and the free-energy report, for instance).
"""

__all__ = [
    "BottleneckLabError",
    "NonSquare",
    "NotHermitian",
    "EmptyInput",
    "RadiusExceedsN",
    "DimensionMismatch",
    "GroupTooLarge",
    "BadPartition",
    "NotStochastic",
    "NonUniqueStationary",
    "ConditionViolated",
    "EmptyA",
    "ZeroDelta",
    "NotClassical",
    "NonCommutingChecks",
    "EmptyBoundary",
    "EmptySubspace",
    "CenterOutsideSpace",
    "BetaNegative",
    "NotDiagonal",
    "NotCommuting",
    "EmptySchedule",
    "NotFixedPoint",
    "NotTracePreserving",
    "LocalityInsufficient",
    "BoundViolated",
    "ParametersInadmissible",
    "PerturbationTooLarge",
    "ConfigInvalid",
    "ModelNotFound",
]


class BottleneckLabError(Exception):
    """Base class for every error raised by this package."""


class NonSquare(BottleneckLabError):
    """A matrix that must be square is not."""


class NotHermitian(BottleneckLabError):
    """Hermiticity check failed beyond tolerance."""


class EmptyInput(BottleneckLabError):
    """An operation got an empty collection where at least one item is required."""


class RadiusExceedsN(BottleneckLabError):
    """Pauli-weight radius outside [0, n]."""


class DimensionMismatch(BottleneckLabError):
    """Operator and state dimensions disagree."""


class GroupTooLarge(BottleneckLabError):
    """Brute-force coset enumeration would exceed the hard cap."""


class BadPartition(BottleneckLabError):
    """A block-label array or subspace mask is malformed, or a subspace is
    not labeled over the basis an operation needs."""


class NotStochastic(BottleneckLabError):
    """Matrix is not column-stochastic within tolerance."""


class NonUniqueStationary(BottleneckLabError):
    """A law cannot be certified as a chain's unique stationary law: the
    chain is reducible, or the law is not a stationary probability vector."""


class ConditionViolated(BottleneckLabError):
    """The structural bottleneck condition does not hold."""


class EmptyA(BottleneckLabError):
    """The A block carries (numerically) zero weight, the ratio is undefined."""


class ZeroDelta(BottleneckLabError):
    """Bottleneck ratio is zero; the mixing lower bound diverges."""


class NotClassical(BottleneckLabError):
    """Operation requires a purely classical (diagonal) model."""


class NonCommutingChecks(BottleneckLabError):
    """Check operators fail to commute (odd X/Z support overlap)."""


class EmptyBoundary(BottleneckLabError):
    """Requested boundary region contains no states."""


class EmptySubspace(BottleneckLabError):
    """Operation needs a subspace of dimension at least one."""


class CenterOutsideSpace(BottleneckLabError):
    """Ball center does not describe a state of the given system."""


class BetaNegative(BottleneckLabError):
    """Inverse temperature must be non-negative."""


class NotDiagonal(BottleneckLabError):
    """Hamiltonian must be diagonal in the computational basis."""


class NotCommuting(BottleneckLabError):
    """Hamiltonian terms must commute for this construction."""


class EmptySchedule(BottleneckLabError):
    """A schedule must contain at least one channel application."""


class NotFixedPoint(BottleneckLabError):
    """Purported steady state moves under the channel beyond tolerance."""


class NotTracePreserving(BottleneckLabError):
    """Kraus operators do not sum to the identity under K†K."""


class LocalityInsufficient(BottleneckLabError):
    """Partition radius is below the channel locality."""


class BoundViolated(BottleneckLabError):
    """A theorem inequality failed numerically; carries the diagnostics."""

    def __init__(self, message, **data):
        super().__init__(message)
        self.data = dict(data)


class ParametersInadmissible(BottleneckLabError):
    """Shell/window parameters violate the admissibility constraints."""


class PerturbationTooLarge(BottleneckLabError):
    """Perturbation norm exceeds the declared g*n budget."""


class ConfigInvalid(BottleneckLabError):
    """Run configuration failed schema validation."""


class ModelNotFound(BottleneckLabError):
    """Requested model name is not in the registry."""
