"""Exception and warning types shared across the package."""


class BeamlabError(Exception):
    """Base class for all package-specific errors."""


class ContractViolationError(BeamlabError):
    """An operation was called with arguments violating its preconditions
    (mismatched spaces, non-Hermitian generator, missing state, ...)."""


class DomainError(BeamlabError, ValueError):
    """A value is outside the mathematical domain of the operation
    (Stokes constraint violated, non-PSD matrix, n outside (0, N), ...)."""


class UnsupportedOperatorError(BeamlabError):
    """The requested operator does not exist on the given space
    (single ladder operators on a fixed-total-number sector)."""


class ResourceLimitError(BeamlabError):
    """Constructing the object would exceed a configured resource limit."""


class NormalizationUndefinedError(DomainError):
    """A normalization denominator vanishes (e.g. a vacuum beam)."""


class IntegrationFailureError(BeamlabError):
    """A time integration cannot meet its accuracy contract: the initial
    state is off the product family, or the run missed an invariant's
    tolerance (norm drift, product fidelity)."""


class FitError(BeamlabError):
    """Not enough data points for the requested fit."""


class ChargeRegimeWarning(UserWarning):
    """Parameters are outside the regime where both electrodes hold a
    macroscopic pair number; derived two-level-style constants are then
    only indicative."""
