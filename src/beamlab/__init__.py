"""Numerical laboratory for bosonic two-beam polarization and
Josephson-junction dynamics: truncated Fock spaces, Stokes calculus,
negativity bounds, and the exact-vs-self-consistent model dichotomy.

The package root loads only the error classes; each submodule is
imported where it is used (``from beamlab import entanglement``), so a
process pays only for the layers it runs.
"""

from .errors import (
    BeamlabError,
    ChargeRegimeWarning,
    ContractViolationError,
    DomainError,
    FitError,
    IntegrationFailureError,
    NormalizationUndefinedError,
    ResourceLimitError,
    UnsupportedOperatorError,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
