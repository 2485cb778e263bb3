"""Numerical laboratory for bosonic two-beam polarization and
Josephson-junction dynamics: truncated Fock spaces, Stokes calculus,
negativity bounds, and the exact-vs-self-consistent model dichotomy."""

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
from .fock import (
    FockSpace,
    LinearOperator,
    StateVector,
    basis_state,
    boundary_weight,
    evolve_unitary,
    evolve_unitary_sampled,
    expectation,
    hopping_operator,
    ladder_operator,
    variance,
)
from .polarization import (
    CorrelationMatrix2,
    DeviceMap,
    StokesVector,
    TomographyResult,
    additive_expectation,
    apply_device_map,
    mueller_matrix,
    omega_from_state,
    stokes_omega_convert,
    tomography_simulate,
)
from .entanglement import (
    BoundReport,
    TwoBeamCorrelation,
    bound_report,
    check_bound,
    gamma_from_mixture,
    gamma_from_state,
    haar_state,
    negativity,
    partial_transpose,
)
from .jj import (
    DerivedConstants,
    JJParams,
    best_fit_product,
    derived_constants,
    product_state,
)
from .dynamics import (
    ComparisonRecord,
    FluctuationReport,
    Trajectory,
    evolve_exact,
    evolve_meanfield,
    fluctuation_scan,
    meanfield_matched_omega,
    model_compare,
    pendulum_trajectory,
)
from .seeding import child_seed, rng_for

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
