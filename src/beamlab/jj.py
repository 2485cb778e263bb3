"""Two-electrode Josephson junction models on the fixed total-pair sector.

Both Hamiltonians share the tunneling term (lam/2)(a1 a2+ + a1+ a2) and
differ in the charging part:

* ``bose_hubbard``:  E_C (n1 - nbar1)^2            (quadratic, state-independent)
* ``mean_field``:    E_C (<n1> - nbar1)(n1 - nbar1) (Hartree, state-dependent)

Everything is tridiagonal in the sector basis k = n1: the exact model
is the pair of arrays `charging_diagonal` and `tunneling_offdiagonal`,
which it hands to the tridiagonal eigensolver on a window of rows, with
no matrix built.  The self-consistent flow needs no matrix either: it
turns the Bloch vector of a product state, the Stokes vector of a
polarized beam, and stays on the product family.  Nothing here loads
scipy.

E_C is taken directly as an input energy; nbar1 may be non-integer (it is
an average).  With lam > 0 the phase-locked configuration of the tunneling
term sits at relative phase pi (the two-mode ground state is the
antisymmetric combination); lam < 0 moves it to phase 0.  All derived
constants use the magnitude of the tunneling energy.

The coherent product configuration with n pairs (on average) on electrode
1 and relative phase label phi distributes each of N pairs over the two
electrode modes; its number statistics are binomial, Var(n1) = N p (1-p)
with p = n/N.

Trajectories are measured a block of states at a time, one state per
column (`sector_moments`, `product_fit`); `mean_n1`, `coherence` and
`best_fit_product` are their calls on a single state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ChargeRegimeWarning, ContractViolationError, DomainError

# |<a1+ a2>| at or below which a state carries no relative phase.
COHERENCE_FLOOR = 1e-12


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


def binomial_weights(n_total: int, p) -> np.ndarray:
    """Binomial pmf over k = 0..N for a scalar p, or one column per entry of
    a vector p, shape (N + 1, len(p)).

    Each column is built outward from its mode in extended precision, by a
    masked cumulative product of the recurrence ratios up and down, so it
    stays inside the longdouble range for N up to 1e6 and is accurate to
    ~N*eps_longdouble relatively: the number moments of the product
    configuration reproduce the binomial identities to ~1e-12 even at N of
    a few thousand (a log-gamma construction loses four orders).  Every sum
    runs along one column alone, so a column is the same whatever else is
    in the batch.  p = 0 and p = 1 give the Fock states.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    k = np.arange(n_total, dtype=np.longdouble)        # the step k -> k + 1
    above = k >= np.minimum((ps * (n_total + 1)).astype(int), n_total)[:, None]
    w = np.ones((len(ps), n_total + 1), dtype=np.longdouble)
    with np.errstate(divide="ignore"):
        ratio = (ps.astype(np.longdouble) / (1.0 - ps).astype(np.longdouble))[:, None]
        f = ratio * (n_total - k)
        f /= k + 1                                     # w[k + 1] / w[k]
        f[~above] = 1
        np.cumprod(f, axis=1, out=w[:, 1:])
        np.multiply(ratio, n_total - k, out=f)
        np.divide(k + 1, f, out=f)                     # w[k] / w[k + 1]
    f[above] = 1
    w[:, :-1] *= np.cumprod(f[:, ::-1], axis=1)[:, ::-1]
    w /= w.sum(axis=1, keepdims=True)
    w[w < np.longdouble(2) ** -1075] = 0   # casts to 0.0 anyway, but slowly
    return w[0].astype(float) if np.ndim(p) == 0 else w.astype(float).T


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


def charging_diagonal(params: JJParams) -> np.ndarray:
    """Diagonal E_C (k - nbar1)^2 of the quadratic charging term in the
    sector basis."""
    k = np.arange(params.n_total + 1, dtype=float)
    return params.e_c * (k - params.n_bar1) ** 2


def sector_moments(psi: np.ndarray, n_total: int | None = None, first: int = 0
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Norm, <n1> and <a1+ a2> of every column of a (rows, columns) block
    of sector states, each measured on the column as it is given.

    The rows are k = first, first + 1, ... of the sector with `n_total`
    pairs (by default the whole sector, rows - 1 pairs); a state held on
    such a window is taken to be 0 on the other rows.  Each column is
    summed on its own, as a contiguous row, in one order whatever the
    block width.
    """
    rows = np.ascontiguousarray(psi.T)
    n_tot = rows.shape[1] - 1 if n_total is None else n_total
    k = first + np.arange(rows.shape[1], dtype=float)
    prob = np.abs(rows) ** 2
    # <a1+ a2> = sum_k conj(psi_{k+1}) psi_k sqrt((k+1)(N-k))
    amp = np.sqrt((k[:-1] + 1.0) * (n_tot - k[:-1]))
    return (np.sqrt(np.sum(prob, axis=1)), np.sum(prob * k, axis=1),
            np.sum(np.conj(rows[:, 1:]) * rows[:, :-1] * amp, axis=1))


def product_fit(psi: np.ndarray, n1: np.ndarray, z: np.ndarray,
                n_total: int | None = None, first: int = 0
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment-matched member of the product family for every column of a
    (rows, columns) block, given the columns' <n1> and <a1+ a2>; the rows
    are those of :func:`sector_moments`.

    Returns arrays (n_fit, phi_fit, fidelity): n_fit is <n1> clamped to
    [0, N] (an endpoint is the Fock state), phi_fit = -arg<a1+ a2> (0 where
    |<a1+ a2>| <= COHERENCE_FLOOR), and fidelity the squared overlap with the
    normalized product state |n_fit, phi_fit>, at most 1.  Like the
    moments, a column's result does not depend on the rest of the block.
    """
    rows = np.ascontiguousarray(psi.T)
    n_tot = rows.shape[1] - 1 if n_total is None else n_total
    n_fit = np.clip(n1, 0.0, float(n_tot))
    phi_fit = np.where(np.abs(z) > COHERENCE_FLOOR, -np.angle(z), 0.0)
    weights = binomial_weights(n_tot, n_fit / max(n_tot, 1)).T
    window = slice(first, first + rows.shape[1])
    fit = np.sqrt(weights[:, window]) * np.exp(
        1j * np.outer(phi_fit, np.arange(window.start, window.stop)))
    overlap = np.sum(np.conj(fit) * rows, axis=1)
    fid = np.abs(overlap) ** 2 / np.sum(weights, axis=1)
    return n_fit, phi_fit, np.minimum(fid, 1.0)


def _sector_column(state: fock.StateVector, what: str) -> np.ndarray:
    if state.space.kind != "fixed_sector":
        raise ContractViolationError(f"{what}() expects a sector state")
    return state.amplitudes[:, None]


def coherence(state: fock.StateVector) -> complex:
    """<a1+ a2> on a sector state; its argument is the extracted relative phase."""
    return complex(sector_moments(_sector_column(state, "coherence"))[2][0])


def mean_n1(state: fock.StateVector) -> float:
    return float(sector_moments(_sector_column(state, "mean_n1"))[1][0])


def best_fit_product(state: fock.StateVector) -> tuple[float, float, float]:
    """Moment-matched member of the product family and the squared overlap:
    :func:`product_fit` of the one state.

    Returns (n_fit, phi_fit, fidelity).  For an exact product state the
    match is exact: n_fit = <n1> and phi_fit = -arg<a1+ a2> recover the
    construction labels and the fidelity is 1 up to roundoff.
    """
    psi = _sector_column(state, "best_fit_product")
    n_fit, phi_fit, fid = product_fit(psi, *sector_moments(psi)[1:])
    return float(n_fit[0]), float(phi_fit[0]), float(fid[0])
