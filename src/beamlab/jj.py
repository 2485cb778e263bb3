"""Two-electrode Josephson junction models on the fixed total-pair sector.

Both Hamiltonians share the tunneling term (lam/2)(a1 a2+ + a1+ a2) and
differ in the charging part:

* ``bose_hubbard``:  E_C (n1 - nbar1)^2            (quadratic, state-independent)
* ``mean_field``:    E_C (<n1> - nbar1)(n1 - nbar1) (Hartree, state-dependent)

Everything is tridiagonal in the sector basis k = n1, which the builders
expose so evolution can use specialized solvers at large N.

E_C is taken directly as an input energy; nbar1 may be non-integer (it is
an average).  With lam > 0 the phase-locked configuration of the tunneling
term sits at relative phase pi (the two-mode ground state is the
antisymmetric combination); lam < 0 moves it to phase 0.  All derived
constants use the magnitude of the tunneling energy.

The coherent product configuration with n pairs (on average) on electrode
1 and relative phase label phi distributes each of N pairs over the two
electrode modes; its number statistics are binomial, Var(n1) = N p (1-p)
with p = n/N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock
from .errors import ChargeRegimeWarning, ContractViolationError, DomainError


@dataclass(frozen=True)
class JJParams:
    """Charging energy, tunneling amplitude, total pairs, background pairs."""

    e_c: float
    lam: float
    n_total: int
    n_bar1: float

    def __post_init__(self):
        if self.n_total < 1 or int(self.n_total) != self.n_total:
            raise DomainError(f"n_total must be a positive integer, got {self.n_total}")
        if not 0.0 < self.n_bar1 < self.n_total:
            raise DomainError(
                f"n_bar1 must lie strictly inside (0, {self.n_total}), got {self.n_bar1}")
        if self.e_c < 0.0:
            raise DomainError(f"charging energy must be >= 0, got {self.e_c}")
        if not self.charge_qubit_regime:
            warnings.warn(
                f"n_bar1 = {self.n_bar1}, N = {self.n_total}: at least one electrode "
                "holds fewer than ~10 background pairs; two-level-style derived "
                "constants are only indicative here",
                ChargeRegimeWarning, stacklevel=3)

    @property
    def charge_qubit_regime(self) -> bool:
        """Both electrodes macroscopically occupied (>= 10 background pairs)."""
        return min(self.n_bar1, self.n_total - self.n_bar1) >= 10.0


@dataclass(frozen=True)
class DerivedConstants:
    """Tunneling energy e_j = lam * sqrt(nbar1 (N - nbar1)) and the plasma
    frequency omega = sqrt(2 e_c |e_j|) (hbar = 1)."""

    e_j: float
    omega: float


def derived_constants(params: JJParams) -> DerivedConstants:
    e_j = params.lam * np.sqrt(params.n_bar1 * (params.n_total - params.n_bar1))
    omega = float(np.sqrt(2.0 * params.e_c * abs(e_j)))
    return DerivedConstants(e_j=float(e_j), omega=omega)


def sector_space(params: JJParams) -> fock.FockSpace:
    return fock.FockSpace.fixed_sector(params.n_total)


def binomial_weights(n_total: int, p: float) -> np.ndarray:
    """Binomial pmf over k = 0..N, built by the multiplicative recurrence
    from the mode in extended precision.

    Accurate to ~N*eps_longdouble relatively, so the number moments of the
    product configuration reproduce the binomial identities to ~1e-12 even
    at N of a few thousand (a log-gamma construction loses four orders).
    """
    w = np.zeros(n_total + 1, dtype=np.longdouble)
    k0 = min(int(p * (n_total + 1)), n_total)
    w[k0] = 1.0
    ratio = np.longdouble(p) / np.longdouble(1.0 - p)
    for k in range(k0, n_total):        # upward: w_{k+1}/w_k
        w[k + 1] = w[k] * ratio * np.longdouble(n_total - k) / np.longdouble(k + 1)
    for k in range(k0, 0, -1):          # downward: w_{k-1}/w_k
        w[k - 1] = w[k] / ratio * np.longdouble(k) / np.longdouble(n_total - k + 1)
    w /= w.sum()
    return w.astype(float)


def product_state(n_total: int, n: float, phi: float,
                  space: fock.FockSpace) -> fock.StateVector:
    """Coherent product configuration |n, phi> on the sector basis.

    Amplitude on |k, N-k> is sqrt(binom(N, k) p^k (1-p)^(N-k)) e^{i k phi}
    with p = n/N.  The global phase is fixed so every amplitude is positive
    at phi = 0.  Endpoints n = 0, N are the exact Fock states (phi
    irrelevant there).
    """
    if space.kind != "fixed_sector" or space.n_total != n_total:
        raise ContractViolationError(
            f"space must be the fixed sector with N = {n_total}")
    if not 0.0 <= n <= n_total:
        raise DomainError(f"n must lie in [0, {n_total}], got {n}")
    if n == 0.0:
        return fock.basis_state(space, (0, n_total))
    if n == float(n_total):
        return fock.basis_state(space, (n_total, 0))
    k = np.arange(n_total + 1)
    weights = binomial_weights(n_total, n / n_total)
    amps = np.sqrt(weights) * np.exp(1j * k * phi)
    return fock.StateVector(space, amps, normalize=True)


def tunneling_offdiagonal(n_total: int, lam: float) -> np.ndarray:
    """Off-diagonal of (lam/2)(a1 a2+ + a1+ a2) in the sector basis."""
    kk = np.arange(n_total, dtype=float)
    return 0.5 * lam * np.sqrt((kk + 1.0) * (n_total - kk))


def charging_diagonal(params: JJParams, kind: str, n1: float | None = None
                      ) -> np.ndarray:
    """Diagonal of the charging term in the sector basis.

    For the mean-field kind `n1` is the instantaneous quantum average of
    n1 that multiplies the linear term.
    """
    k = np.arange(params.n_total + 1, dtype=float)
    if kind == "bose_hubbard":
        return params.e_c * (k - params.n_bar1) ** 2
    if kind == "mean_field":
        if n1 is None:
            raise ContractViolationError("mean_field charging needs <n1>")
        return params.e_c * (n1 - params.n_bar1) * (k - params.n_bar1)
    raise ContractViolationError(f"unknown Hamiltonian kind {kind!r}")


def build_jj_hamiltonian(params: JJParams, space: fock.FockSpace, kind: str,
                         state: fock.StateVector | None = None) -> fock.LinearOperator:
    """Tridiagonal sector Hamiltonian of either charging model.

    The mean-field kind evaluates <n1> on the supplied state; pass the
    instantaneous state when integrating self-consistently.
    """
    if space.kind != "fixed_sector" or space.n_total != params.n_total:
        raise ContractViolationError(
            f"space must be the fixed sector with N = {params.n_total}")
    n1 = None
    if kind == "mean_field":
        if state is None:
            raise ContractViolationError("mean_field requires the instantaneous state")
        if state.space != space:
            raise ContractViolationError("state lives on a different space")
        n1 = mean_n1(state)
    diag = charging_diagonal(params, kind, n1)
    off = tunneling_offdiagonal(params.n_total, params.lam)
    matrix = sp.diags([off.astype(complex), diag.astype(complex), off.astype(complex)],
                      [-1, 0, 1], format="csr")
    return fock.LinearOperator(space, matrix, hermitian=True,
                               tridiagonal=(diag, off), _skip_check=True)


def coherence(state: fock.StateVector) -> complex:
    """<a1+ a2> on a sector state; its argument is the extracted relative phase."""
    space = state.space
    if space.kind != "fixed_sector":
        raise ContractViolationError("coherence() expects a sector state")
    n_tot = space.n_total
    k = np.arange(n_tot, dtype=float)
    amp = np.sqrt((k + 1.0) * (n_tot - k))
    psi = state.amplitudes
    # <a1+ a2> = sum_k conj(psi_{k+1}) psi_k sqrt((k+1)(N-k))
    return complex(np.sum(np.conj(psi[1:]) * psi[:-1] * amp))


def mean_n1(state: fock.StateVector) -> float:
    k = np.arange(state.space.n_total + 1, dtype=float)
    return float(k @ state.probabilities())


def best_fit_product(state: fock.StateVector) -> tuple[float, float, float]:
    """Moment-matched member of the product family and the squared overlap.

    Returns (n_fit, phi_fit, fidelity).  For an exact product state the
    match is exact: n_fit = <n1> and phi_fit = -arg<a1+ a2> recover the
    construction labels and the fidelity is 1 up to roundoff.
    """
    space = state.space
    n_tot = space.n_total
    n_fit = min(max(mean_n1(state), 0.0), float(n_tot))
    z = coherence(state)
    phi_fit = -float(np.angle(z)) if abs(z) > 1e-12 else 0.0
    fit = product_state(n_tot, n_fit, phi_fit, space)
    fid = abs(fit.overlap(state)) ** 2
    return n_fit, phi_fit, float(min(fid, 1.0))
