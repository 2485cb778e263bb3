"""Stokes-parameter calculus for two-mode beams.

A beam's second-order coherence is the 2x2 matrix Omega with entries
``Omega[mu, nu] = <a_nu+ a_mu>``; it is Hermitian, positive semidefinite,
and its trace is the mean photon number.  The equivalent real
parameterization is the Stokes vector (I, M, C, S) through

    Omega = (I*s0 + M*sx + C*sy + S*sz) / 2

with the Pauli assignment M <-> sigma_x, C <-> sigma_y, S <-> sigma_z kept
exactly as above even though optics texts often permute the components;
the mode basis itself is the sigma_z eigenbasis.  The physical constraint
I >= sqrt(M^2 + C^2 + S^2) is equivalent to Omega >= 0.

Linear optical elements act in operator-sum form, Omega -> sum_i K_i
Omega K_i+, completely positive and trace non-increasing.  Nonlinear maps
(e.g. from photon-photon scattering) are out of scope.

This module is the 2x2 calculus alone: it takes Omega as given and loads
no Fock space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

STOKES_TOL = 1e-12


@dataclass(frozen=True)
class StokesVector:
    """Intensity I and the three polarization components, all in mean photon
    number units."""

    i: float
    m: float
    c: float
    s: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.i, self.m, self.c, self.s)):
            raise DomainError(f"Stokes components must be finite, got {self}")
        if self.i < 0:
            raise DomainError(f"intensity must be >= 0, got {self.i}")
        # tolerance reads at unit intensity; scaled so bright beams are not
        # rejected on eigenvalue roundoff
        if self.polarized_part() > self.i + STOKES_TOL * max(1.0, self.i):
            raise DomainError(
                "Stokes constraint I >= sqrt(M^2 + C^2 + S^2) violated: "
                f"I = {self.i}, sqrt(M^2+C^2+S^2) = {self.polarized_part()}")

    def polarized_part(self) -> float:
        return math.hypot(self.m, self.c, self.s)

    def as_array(self) -> np.ndarray:
        return np.array([self.i, self.m, self.c, self.s], dtype=float)


class CorrelationMatrix2:
    """2x2 Hermitian PSD matrix of <a_nu+ a_mu>."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        defect = np.max(np.abs(m - m.conj().T))
        if defect > 1e-12 * scale:
            raise DomainError(f"matrix is not Hermitian (defect {defect:.2e})")
        m = 0.5 * m + 0.5 * m.conj().T        # halves first: no overflow
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -1e-12 * scale:
            raise DomainError(f"matrix is not PSD (lowest eigenvalue {lo:.2e})")
        self.matrix = m

    def __repr__(self):
        return f"CorrelationMatrix2({self.matrix.tolist()})"


def stokes_to_omega(stokes: StokesVector) -> CorrelationMatrix2:
    comps = stokes.as_array()
    m = sum(0.5 * c * p for c, p in zip(comps, PAULIS))
    return CorrelationMatrix2(m)


def omega_to_stokes(omega: CorrelationMatrix2) -> StokesVector:
    m = omega.matrix
    vals = [float(np.real(np.trace(p @ m))) for p in PAULIS]
    return StokesVector(*vals)


@dataclass(frozen=True)
class DeviceMap:
    """Operator-sum (Kraus) form of a linear optical element.

    Completely positive by construction; trace non-increasing is enforced:
    sum_i K_i+ K_i <= identity.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise DomainError("a device map needs at least one Kraus element")
        if any(k.shape != (2, 2) for k in ks):
            raise DomainError("Kraus elements must be 2x2")
        object.__setattr__(self, "kraus", ks)
        total = sum(k.conj().T @ k for k in ks)
        excess = float(np.linalg.eigvalsh(total - np.eye(2))[-1])
        if excess > 1e-12:
            raise DomainError(
                f"map increases trace: max eigenvalue of sum K+K - 1 is {excess:.2e}")


def apply_device_map(omega: CorrelationMatrix2, device: DeviceMap) -> CorrelationMatrix2:
    out = sum(k @ omega.matrix @ k.conj().T for k in device.kraus)
    return CorrelationMatrix2(out)


@dataclass(frozen=True)
class TomographyResult:
    """Stokes estimates with their standard errors; estimates are raw
    measurement combinations and may sit slightly outside the physical cone."""

    estimate: tuple[float, float, float, float]
    standard_errors: tuple[float, float, float, float]
    true_values: tuple[float, float, float, float]


def tomography_simulate(omega_true: CorrelationMatrix2, shots_per_basis: int,
                        seed: int, noise: bool = True) -> TomographyResult:
    """Simulated Stokes tomography.

    One total-intensity measurement plus the transmitted intensity through
    the +1 projector of each Pauli basis.  Shot noise is additive Gaussian
    with variance (measured intensity)/shots, a stand-in for counting
    statistics; the estimator is unbiased and its reported standard errors
    shrink as 1/sqrt(shots).  Fixed seed => bit-identical output.  Sums
    are taken of halves and quarters, so a bright scene does not overflow
    on the way; one whose estimates or errors exceed the float range
    raises DomainError.
    """
    if shots_per_basis < 1:
        raise DomainError("shots_per_basis must be >= 1")
    true = omega_to_stokes(omega_true)
    i_t, m_t, c_t, s_t = true.as_array()
    ports = np.array([i_t, *(0.5 * i_t + 0.5 * np.array([m_t, c_t, s_t]))])
    if noise:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(np.maximum(ports, 0.0) / shots_per_basis)
        measured = ports + rng.standard_normal(4) * sigma
    else:
        measured = ports.copy()
    i_est = measured[0]
    comps = 2.0 * (measured[1:] - 0.5 * i_est)
    se_i = float(np.sqrt(max(measured[0], 0.0) / shots_per_basis))
    se_comps = [2.0 * float(np.sqrt((max(m, 0.0) + 0.25 * max(measured[0], 0.0))
                                    / shots_per_basis)) for m in measured[1:]]
    estimate = (float(i_est), float(comps[0]), float(comps[1]), float(comps[2]))
    errors = (se_i, se_comps[0], se_comps[1], se_comps[2])
    if not all(map(math.isfinite, estimate + errors)):
        raise DomainError("the tomography estimates of this scene overflow "
                          "the float range")
    return TomographyResult(estimate=estimate, standard_errors=errors,
                            true_values=(float(i_t), float(m_t), float(c_t), float(s_t)))
