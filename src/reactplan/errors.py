"""Exception types shared across the package, and the checks for count and
weight fields."""
import math
import numbers


def check_counts(minimum: int = 1, /, **counts) -> None:
    """Raise ValueError unless every keyword's value is an integer (not a
    bool) >= ``minimum``."""
    for name, value in counts.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_weights(positive: bool = False, /, **weights) -> None:
    """Raise ValueError unless every keyword's value is finite and >= 0, or
    > 0 with ``positive``."""
    for name, value in weights.items():
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            bound = "> 0" if positive else ">= 0"
            raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


class ReactplanError(Exception):
    """Base class for all package-specific errors."""


class InsufficientHistory(ReactplanError):
    """A past trajectory is too short to estimate a kinematic state."""


class HorizonMismatch(ReactplanError):
    """Trajectories that must share length and time step do not."""


class DimensionMismatch(ReactplanError):
    """A weight vector does not hold one entry per feature."""


class NumericalFailure(ReactplanError):
    """A non-finite value appeared where the computation requires finite ones."""


class StateSpaceTooLarge(ReactplanError):
    """Exact enumeration was requested on an instance with too many joint states."""


class InvalidSetSize(ReactplanError):
    """Interpolated objective requested with a set size outside [1, K]."""


class InvalidIgnoreSize(ReactplanError):
    """Ignore set size must be strictly smaller than the candidate count."""


class DivergenceError(ReactplanError):
    """Training loss exceeded the divergence threshold."""


class InvalidScenario(ReactplanError):
    """Scenario violates a load-time invariant (overlapping actors, bad route)."""


class InfeasiblePerturbation(ReactplanError):
    """Could not draw a non-overlapping perturbed scenario within the retry budget."""
