"""Two-beam correlation matrices, negativity, and the 1/n entanglement bound.

For beams a and b, each with two polarization modes, the 4x4 correlation
matrix is

    Gamma[(mu, mu'), (nu, nu')] = <a_nu+ a_mu b_nu'+ b_mu'>

with the frozen index layout row = 2*mu + mu', column = 2*nu + nu' (mu is
the beam-a polarization index, the slower one).  Gamma is the Gram matrix
of the lowering products a_mu b_mu', hence Hermitian PSD, and its trace is
the photon-number product moment <n_a n_b>.  The normalized matrix
Gamma~ = Gamma / <n_a n_b> plays the role of a two-qubit density matrix.

Negativity of Gamma~ is bounded by min(2 n_a, 2 n_b) / <n_a n_b>, which for
uncorrelated beams is approximately 2 / max(n_a, n_b): macroscopically
bright beams can carry at most O(1/photon number) entanglement.  The
intermediate trace inequality Tr|Gamma~^PT| <= 1 + 4 n_a / <n_a n_b> is
recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import (
    ContractViolationError,
    DomainError,
    NormalizationUndefinedError,
)
from .seeding import rng_for

BOUND_TOL = 1e-9


class TwoBeamCorrelation:
    """Unnormalized Gamma plus the photon-number moments of the same state.

    Construction enforces the correlation-matrix invariants: Hermitian PSD
    to 1e-10, trace equal to <n_a n_b> to 1e-10 (both relative to the
    moment scale).
    """

    def __init__(self, gamma: np.ndarray, n_a: float, n_b: float, n_ab: float):
        g = np.asarray(gamma, dtype=complex)
        if g.shape != (4, 4):
            raise DomainError(f"gamma must be 4x4, got {g.shape}")
        if n_ab <= 0.0:
            raise NormalizationUndefinedError(
                "<n_a n_b> must be positive to normalize gamma")
        scale = max(1.0, float(n_ab))
        if np.max(np.abs(g - g.conj().T)) > 1e-10 * scale:
            raise DomainError("gamma is not Hermitian")
        g = 0.5 * (g + g.conj().T)
        if float(np.linalg.eigvalsh(g)[0]) < -1e-10 * scale:
            raise DomainError("gamma is not positive semidefinite")
        if abs(float(np.trace(g).real) - n_ab) > 1e-10 * scale:
            raise DomainError("trace(gamma) must equal <n_a n_b>")
        self.gamma = g
        self.n_a = float(n_a)
        self.n_b = float(n_b)
        self.n_ab = float(n_ab)

    @property
    def gamma_tilde(self) -> np.ndarray:
        return self.gamma / self.n_ab


def _lowering_products(space: fock.FockSpace, beam_a: tuple[int, int],
                       beam_b: tuple[int, int]):
    """The four sparse matrices a_mu b_mu', ordered by row index 2*mu + mu'."""
    ops = []
    for mu in beam_a:
        a_low = fock.ladder_operator(space, mu, "annihilate").matrix
        for mup in beam_b:
            b_low = fock.ladder_operator(space, mup, "annihilate").matrix
            ops.append((a_low @ b_low).tocsr())
    return ops


def gamma_from_state(state: fock.StateVector, beam_a: tuple[int, int] = (0, 1),
                     beam_b: tuple[int, int] = (2, 3)) -> TwoBeamCorrelation:
    """Gamma and the moments (mean photon numbers, <n_a n_b>) of one state."""
    modes = (*beam_a, *beam_b)
    if len(set(modes)) != 4:
        raise ContractViolationError("the four beam modes must be distinct")
    space = state.space
    if space.kind != "truncated" or any(m >= space.mode_count for m in modes):
        raise ContractViolationError("beams must address modes of a truncated space")
    psi = state.amplitudes
    probs = np.abs(psi) ** 2
    na_diag = space.number_diagonal(beam_a[0]) + space.number_diagonal(beam_a[1])
    nb_diag = space.number_diagonal(beam_b[0]) + space.number_diagonal(beam_b[1])
    n_a = float(na_diag @ probs)
    n_b = float(nb_diag @ probs)
    n_ab = float((na_diag * nb_diag) @ probs)
    lowered = [op @ psi for op in _lowering_products(space, beam_a, beam_b)]
    gamma = np.empty((4, 4), dtype=complex)
    for r in range(4):
        for c in range(4):
            gamma[r, c] = np.vdot(lowered[c], lowered[r])
    return TwoBeamCorrelation(gamma, n_a, n_b, n_ab)


def gamma_from_mixture(components: list[tuple[float, TwoBeamCorrelation]]
                       ) -> TwoBeamCorrelation:
    """Gamma of a statistical mixture: both Gamma and the moments are affine
    in the density matrix, so they combine with the mixture weights."""
    if not components:
        raise DomainError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise DomainError("mixture weights must be >= 0 and sum to 1")
    gamma = sum(w * t.gamma for w, t in components)
    n_a = sum(w * t.n_a for w, t in components)
    n_b = sum(w * t.n_b for w, t in components)
    n_ab = sum(w * t.n_ab for w, t in components)
    return TwoBeamCorrelation(gamma, n_a, n_b, n_ab)


def partial_transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose the second-subsystem indices: (mu mu'),(nu nu') -> (mu nu'),(nu mu').

    Trace- and Hermiticity-preserving involution.
    """
    m = np.asarray(mat)
    if m.shape != (4, 4):
        raise DomainError(f"partial transpose expects a 4x4 matrix, got {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(sigma: np.ndarray) -> float:
    """N(sigma) = (Tr|sigma^PT| - 1)/2 for a Hermitian trace-1 4x4 matrix."""
    s = np.asarray(sigma, dtype=complex)
    if s.shape != (4, 4):
        raise ContractViolationError("negativity expects a 4x4 matrix")
    if np.max(np.abs(s - s.conj().T)) > 1e-10:
        raise ContractViolationError("negativity expects a Hermitian matrix")
    if abs(np.trace(s).real - 1.0) > 1e-10:
        raise ContractViolationError("negativity expects a trace-1 matrix")
    lam = np.linalg.eigvalsh(partial_transpose(s))
    val = 0.5 * (np.sum(np.abs(lam)) - 1.0)
    if val < -1e-12:
        raise ContractViolationError(f"negativity evaluated to {val}, below -1e-12")
    return float(max(val, 0.0))


@dataclass(frozen=True)
class BoundReport:
    """Negativity of Gamma~ against its moment bound for one state/mixture."""

    negativity: float
    bound_exact: float        # min(2 n_a, 2 n_b) / <n_a n_b>
    bound_approx: float       # 2 / max(n_a, n_b), exact for uncorrelated beams
    satisfied: bool
    pt_eigenvalues: tuple[float, float, float, float]
    trace_abs_pt: float       # Tr |Gamma~^PT|
    trace_abs_bound: float    # 1 + 4 n_a / <n_a n_b>
    trace_bound_satisfied: bool


def bound_report(corr: TwoBeamCorrelation) -> BoundReport:
    tilde = corr.gamma_tilde
    lam = np.linalg.eigvalsh(partial_transpose(tilde))
    trace_abs = float(np.sum(np.abs(lam)))
    neg = max(0.5 * (trace_abs - 1.0), 0.0)
    bound_exact = min(2.0 * corr.n_a, 2.0 * corr.n_b) / corr.n_ab
    bound_approx = 2.0 / max(corr.n_a, corr.n_b)
    trace_abs_bound = 1.0 + 4.0 * corr.n_a / corr.n_ab
    return BoundReport(
        negativity=float(neg),
        bound_exact=float(bound_exact),
        bound_approx=float(bound_approx),
        satisfied=bool(neg <= bound_exact + BOUND_TOL),
        pt_eigenvalues=tuple(float(x) for x in lam),
        trace_abs_pt=trace_abs,
        trace_abs_bound=float(trace_abs_bound),
        trace_bound_satisfied=bool(trace_abs <= trace_abs_bound + BOUND_TOL),
    )


def check_bound(state: fock.StateVector, beam_a: tuple[int, int] = (0, 1),
                beam_b: tuple[int, int] = (2, 3)) -> BoundReport:
    return bound_report(gamma_from_state(state, beam_a, beam_b))


# -- random-state sampling ----------------------------------------------------


def haar_state(space: fock.FockSpace, rng: np.random.Generator) -> fock.StateVector:
    """Complex-Gaussian amplitudes normalized to 1 (Haar on the truncated space)."""
    z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
    return fock.StateVector(space, z, normalize=True)


def sector_state(space: fock.FockSpace, beam_a: tuple[int, int],
                 beam_b: tuple[int, int], k_a: int, k_b: int,
                 rng: np.random.Generator) -> fock.StateVector:
    """Haar-random state with exactly k_a photons in beam a and k_b in beam b."""
    na = space.number_diagonal(beam_a[0]) + space.number_diagonal(beam_a[1])
    nb = space.number_diagonal(beam_b[0]) + space.number_diagonal(beam_b[1])
    idx = np.nonzero((na == k_a) & (nb == k_b))[0]
    if idx.size == 0:
        raise DomainError(f"no basis states with beam photon numbers ({k_a}, {k_b})")
    z = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    amps = np.zeros(space.dimension, dtype=complex)
    amps[idx] = z
    return fock.StateVector(space, amps, normalize=True)


class BeamSampler:
    """Batched Gamma/negativity evaluation over many sampled states.

    Precomputes the four lowering products and the diagonal moments for one
    (space, beam assignment), then processes whole sample batches with dense
    linear algebra.  Per-sample randomness comes from the fan-out seeds, so
    results do not depend on batching or scheduling.
    """

    def __init__(self, cutoff: int, beam_a: tuple[int, int] = (0, 1),
                 beam_b: tuple[int, int] = (2, 3)):
        self.space = fock.FockSpace.truncated([cutoff] * 4)
        self.beam_a = beam_a
        self.beam_b = beam_b
        self.lowering = _lowering_products(self.space, beam_a, beam_b)
        self.na_diag = (self.space.number_diagonal(beam_a[0])
                        + self.space.number_diagonal(beam_a[1]))
        self.nb_diag = (self.space.number_diagonal(beam_b[0])
                        + self.space.number_diagonal(beam_b[1]))
        self._sector_cache: dict[tuple[int, int], np.ndarray] = {}

    def _sector_indices(self, k_a: int, k_b: int) -> np.ndarray:
        key = (k_a, k_b)
        if key not in self._sector_cache:
            idx = np.nonzero((self.na_diag == k_a) & (self.nb_diag == k_b))[0]
            self._sector_cache[key] = idx
        return self._sector_cache[key]

    def sample_states(self, master_seed: int, indices: range,
                      photons_per_beam: int | None = None) -> np.ndarray:
        """Columns of normalized amplitudes, one per task index."""
        dim = self.space.dimension
        psi = np.empty((dim, len(indices)), dtype=complex)
        for col, i in enumerate(indices):
            rng = rng_for(master_seed, i)
            if photons_per_beam is None:
                z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                psi[:, col] = z / np.linalg.norm(z)
            else:
                idx = self._sector_indices(photons_per_beam, photons_per_beam)
                z = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
                v = np.zeros(dim, dtype=complex)
                v[idx] = z / np.linalg.norm(z)
                psi[:, col] = v
        return psi

    def gammas_and_moments(self, psi: np.ndarray):
        """(n_samples, 4, 4) Gamma stack plus moment arrays for state columns.

        All reductions run per column in a fixed order (einsum, not BLAS
        matmul), so values are bit-identical regardless of batch width.
        """
        probs = np.abs(psi) ** 2
        n_a = np.einsum("d,ds->s", self.na_diag, probs)
        n_b = np.einsum("d,ds->s", self.nb_diag, probs)
        n_ab = np.einsum("d,ds->s", self.na_diag * self.nb_diag, probs)
        lowered = np.stack([op @ psi for op in self.lowering])  # (4, dim, ns)
        gammas = np.einsum("cds,rds->src", lowered.conj(), lowered)
        return gammas, n_a, n_b, n_ab

    @staticmethod
    def pt_eigenvalues(gammas: np.ndarray, n_ab: np.ndarray) -> np.ndarray:
        tilde = gammas / n_ab[:, None, None]
        pt = tilde.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
        return np.linalg.eigvalsh(pt)


def bound_rows(master_seed: int, indices: range, cutoff: int,
               photons_per_beam: int | None = None) -> list[dict]:
    """Report rows (one per sampled state) for the bound-checking sweeps."""
    sampler = BeamSampler(cutoff)
    psi = sampler.sample_states(master_seed, indices, photons_per_beam)
    gammas, n_a, n_b, n_ab = sampler.gammas_and_moments(psi)
    if np.any(n_ab <= 0.0):
        raise NormalizationUndefinedError("sampled state with <n_a n_b> = 0")
    lam = sampler.pt_eigenvalues(gammas, n_ab)
    trace_abs = np.sum(np.abs(lam), axis=1)
    neg = np.maximum(0.5 * (trace_abs - 1.0), 0.0)
    bound_exact = np.minimum(2.0 * n_a, 2.0 * n_b) / n_ab
    bound_approx = 2.0 / np.maximum(n_a, n_b)
    rows = []
    for col, i in enumerate(indices):
        rows.append({
            "seed": int(i),
            "cutoff": int(cutoff),
            "n_a": float(n_a[col]),
            "n_b": float(n_b[col]),
            "n_ab": float(n_ab[col]),
            "negativity": float(neg[col]),
            "bound_exact": float(bound_exact[col]),
            "bound_approx": float(bound_approx[col]),
            "satisfied": bool(neg[col] <= bound_exact[col] + BOUND_TOL),
        })
    return rows


def mixture_rows(master_seed: int, indices: range, cutoff: int) -> list[dict]:
    """Report rows for two-component mixtures of Haar-random states, one per
    index; each draws both components and the weight from its own RNG."""
    space = fock.FockSpace.truncated([cutoff] * 4)
    rows = []
    for i in indices:
        rng = rng_for(master_seed, i)
        g1 = gamma_from_state(haar_state(space, rng))
        g2 = gamma_from_state(haar_state(space, rng))
        w = float(rng.uniform())
        mix = gamma_from_mixture([(w, g1), (1.0 - w, g2)])
        rep = bound_report(mix)
        rows.append({
            "seed": int(i), "cutoff": int(cutoff),
            "n_a": mix.n_a, "n_b": mix.n_b, "n_ab": mix.n_ab,
            "negativity": rep.negativity, "bound_exact": rep.bound_exact,
            "bound_approx": rep.bound_approx, "satisfied": rep.satisfied,
        })
    return rows
