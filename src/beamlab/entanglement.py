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

from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import fock
from .errors import (
    ContractViolationError,
    DomainError,
    NormalizationUndefinedError,
)
from .seeding import rng_for

BOUND_TOL = 1e-9

# Work budget in sampled states x basis dimension.
SAMPLE_WORK_LIMIT = 10_000_000
# bound_rows evaluates samples in chunks of about this many states x
# dimension: the Gamma step holds about 150 bytes per entry, so a chunk
# peaks near 80 MB.  A chunk holds at least two states, because einsum sums
# a single column in another order; from two on, rows do not depend on it.
CHUNK_WORK = 2 ** 19


def check_sample_work(samples: int, cutoff: int) -> None:
    """Refuse `samples` states at `cutoff` beyond SAMPLE_WORK_LIMIT."""
    fock.check_work(samples * (cutoff + 1) ** 4, SAMPLE_WORK_LIMIT,
                    "samples x dimension")


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


def _lowered(space: fock.FockSpace, beam_a: tuple[int, int],
             beam_b: tuple[int, int], psi: np.ndarray) -> np.ndarray:
    """The four a_mu b_mu' psi (row 2*mu + mu') for state columns psi: index
    shifts by stride_mu + stride_mu' weighted sqrt(n_mu) * sqrt(n_mu'), the
    two roots as a product of ladder matrices forms them, bit for bit."""
    strides = space._strides()
    out = np.zeros((4, *psi.shape), dtype=complex)
    for row, (mu, mup) in enumerate(product(beam_a, beam_b)):
        n_mu, n_mup = space.number_diagonal(mu), space.number_diagonal(mup)
        src = np.nonzero((n_mu > 0) & (n_mup > 0))[0]
        weight = np.sqrt(n_mu[src]) * np.sqrt(n_mup[src])
        out[row, src - strides[mu] - strides[mup]] = weight[:, None] * psi[src]
    return out


def _gammas_and_moments(space: fock.FockSpace, beam_a: tuple[int, int],
                        beam_b: tuple[int, int], psi: np.ndarray):
    """(n_samples, 4, 4) Gamma stack plus moment arrays for the state columns
    psi (dimension, n_samples) of `space`.  Reductions run per column in a
    fixed order (einsum, not BLAS), so values do not depend on batch width
    from two columns on; einsum sums a single column in another order.
    """
    na_diag = space.number_diagonal(beam_a[0]) + space.number_diagonal(beam_a[1])
    nb_diag = space.number_diagonal(beam_b[0]) + space.number_diagonal(beam_b[1])
    probs = np.abs(psi) ** 2
    n_a = np.einsum("d,ds->s", na_diag, probs)
    n_b = np.einsum("d,ds->s", nb_diag, probs)
    n_ab = np.einsum("d,ds->s", na_diag * nb_diag, probs)
    lowered = _lowered(space, beam_a, beam_b, psi)
    gammas = np.einsum("cds,rds->src", lowered.conj(), lowered)
    return gammas, n_a, n_b, n_ab


def gamma_from_state(state: fock.StateVector, beam_a: tuple[int, int] = (0, 1),
                     beam_b: tuple[int, int] = (2, 3)) -> TwoBeamCorrelation:
    """Gamma and the moments (mean photon numbers, <n_a n_b>) of one state."""
    modes = (*beam_a, *beam_b)
    if len(set(modes)) != 4:
        raise ContractViolationError("the four beam modes must be distinct")
    space = state.space
    if space.kind != "truncated" or any(m >= space.mode_count for m in modes):
        raise ContractViolationError("beams must address modes of a truncated space")
    gammas, n_a, n_b, n_ab = _gammas_and_moments(space, beam_a, beam_b,
                                                 state.amplitudes[:, None])
    return TwoBeamCorrelation(gammas[0], n_a[0], n_b[0], n_ab[0])


def gamma_from_mixture(components: list[tuple[float, TwoBeamCorrelation]]
                       ) -> TwoBeamCorrelation:
    """Gamma of a statistical mixture: both Gamma and the moments are affine
    in the density matrix, so they combine with the mixture weights."""
    if not components:
        raise DomainError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise DomainError("mixture weights must be >= 0 and sum to 1")
    return TwoBeamCorrelation(*(sum(w * getattr(t, key) for w, t in components)
                                for key in ("gamma", "n_a", "n_b", "n_ab")))


def partial_transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose the second-subsystem indices: (mu mu'),(nu nu') -> (mu nu'),(nu mu').

    Accepts a (..., 4, 4) stack.  Trace- and Hermiticity-preserving involution.
    """
    m = np.asarray(mat)
    if m.shape[-2:] != (4, 4):
        raise DomainError(f"partial transpose expects 4x4 matrices, got {m.shape}")
    lead = m.shape[:-2]
    return m.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


# Bound statistics of a batch of states, one array entry per state; excess
# is (Tr |Gamma~^PT| - 1)/2 before it is clipped at 0 into negativity.
_BoundStats = namedtuple("_BoundStats", [
    "pt_eigenvalues", "trace_abs", "excess", "negativity", "bound_exact",
    "bound_approx", "trace_abs_bound", "satisfied"])


def _bound_stats(gammas: np.ndarray, n_a: np.ndarray, n_b: np.ndarray,
                 n_ab: np.ndarray) -> _BoundStats:
    lam = BeamSampler.pt_eigenvalues(gammas, n_ab)
    trace_abs = np.sum(np.abs(lam), axis=-1)
    excess = 0.5 * (trace_abs - 1.0)
    neg = np.maximum(excess, 0.0)
    bound_exact = np.minimum(2.0 * n_a, 2.0 * n_b) / n_ab
    return _BoundStats(lam, trace_abs, excess, neg, bound_exact,
                       2.0 / np.maximum(n_a, n_b), 1.0 + 4.0 * n_a / n_ab,
                       neg <= bound_exact + BOUND_TOL)


def negativity(sigma: np.ndarray) -> float:
    """N(sigma) = (Tr|sigma^PT| - 1)/2 for a Hermitian trace-1 4x4 matrix,
    which is its own Gamma~ at unit moments."""
    s = np.asarray(sigma, dtype=complex)
    if s.shape != (4, 4):
        raise ContractViolationError("negativity expects a 4x4 matrix")
    if np.max(np.abs(s - s.conj().T)) > 1e-10:
        raise ContractViolationError("negativity expects a Hermitian matrix")
    if abs(np.trace(s).real - 1.0) > 1e-10:
        raise ContractViolationError("negativity expects a trace-1 matrix")
    stats = _bound_stats(s[None], *np.ones((3, 1)))
    if stats.excess[0] < -1e-12:
        raise ContractViolationError(
            f"negativity evaluated to {stats.excess[0]}, below -1e-12")
    return float(stats.negativity[0])


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
    moments = (np.array([m]) for m in (corr.n_a, corr.n_b, corr.n_ab))
    s = _BoundStats(*(field[0] for field in _bound_stats(corr.gamma[None], *moments)))
    return BoundReport(
        negativity=float(s.negativity), bound_exact=float(s.bound_exact),
        bound_approx=float(s.bound_approx), satisfied=bool(s.satisfied),
        pt_eigenvalues=tuple(float(x) for x in s.pt_eigenvalues),
        trace_abs_pt=float(s.trace_abs), trace_abs_bound=float(s.trace_abs_bound),
        trace_bound_satisfied=bool(s.trace_abs <= s.trace_abs_bound + BOUND_TOL))


def check_bound(state: fock.StateVector, beam_a: tuple[int, int] = (0, 1),
                beam_b: tuple[int, int] = (2, 3)) -> BoundReport:
    return bound_report(gamma_from_state(state, beam_a, beam_b))


# -- random-state sampling ----------------------------------------------------


def haar_state(space: fock.FockSpace, rng: np.random.Generator) -> fock.StateVector:
    """Complex-Gaussian amplitudes normalized to 1 (Haar on the truncated space)."""
    z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
    return fock.StateVector(space, z, normalize=True)


def _sector_indices(space: fock.FockSpace, beam_a: tuple[int, int],
                    beam_b: tuple[int, int], k_a: int, k_b: int) -> np.ndarray:
    """Basis indices with exactly k_a photons in beam a and k_b in beam b."""
    na = space.number_diagonal(beam_a[0]) + space.number_diagonal(beam_a[1])
    nb = space.number_diagonal(beam_b[0]) + space.number_diagonal(beam_b[1])
    return np.nonzero((na == k_a) & (nb == k_b))[0]


def sector_state(space: fock.FockSpace, beam_a: tuple[int, int],
                 beam_b: tuple[int, int], k_a: int, k_b: int,
                 rng: np.random.Generator) -> fock.StateVector:
    """Haar-random state with exactly k_a photons in beam a and k_b in beam b."""
    idx = _sector_indices(space, beam_a, beam_b, k_a, k_b)
    if idx.size == 0:
        raise DomainError(f"no basis states with beam photon numbers ({k_a}, {k_b})")
    z = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    amps = np.zeros(space.dimension, dtype=complex)
    amps[idx] = z
    return fock.StateVector(space, amps, normalize=True)


class BeamSampler:
    """Batched Gamma/negativity evaluation over many sampled states.

    Holds one (space, beam assignment) and processes whole sample batches
    with dense linear algebra.  Per-sample randomness comes from the
    fan-out seeds, so results do not depend on batching or scheduling.
    """

    def __init__(self, cutoff: int, beam_a: tuple[int, int] = (0, 1),
                 beam_b: tuple[int, int] = (2, 3)):
        self.space = fock.FockSpace.truncated([cutoff] * 4)
        self.beam_a = beam_a
        self.beam_b = beam_b

    def sample_states(self, master_seed: int, indices: range,
                      photons_per_beam: int | None = None) -> np.ndarray:
        """Columns of normalized amplitudes, one per task index."""
        dim = self.space.dimension
        support = (np.arange(dim) if photons_per_beam is None else _sector_indices(
            self.space, self.beam_a, self.beam_b, photons_per_beam, photons_per_beam))
        n = support.size
        psi = np.zeros((dim, len(indices)), dtype=complex)
        for col, i in enumerate(indices):
            rng = rng_for(master_seed, i)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi[support, col] = z / np.linalg.norm(z)
        return psi

    def gammas_and_moments(self, psi: np.ndarray):
        """(n_samples, 4, 4) Gamma stack plus moment arrays for state columns."""
        return _gammas_and_moments(self.space, self.beam_a, self.beam_b, psi)

    @staticmethod
    def pt_eigenvalues(gammas: np.ndarray, n_ab: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(partial_transpose(gammas / n_ab[:, None, None]))


def bound_rows(master_seed: int, indices: range, cutoff: int,
               photons_per_beam: int | None = None) -> list[dict]:
    """Report rows (one per sampled state) for the bound-checking sweeps."""
    check_sample_work(len(indices), cutoff)
    sampler = BeamSampler(cutoff)
    n = len(indices)
    count = min(-(-n * sampler.space.dimension // CHUNK_WORK), n // 2) or 1
    bounds = np.linspace(0, n, count + 1, dtype=int)
    rows = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        chunk = indices[start:stop]
        psi = sampler.sample_states(master_seed, chunk, photons_per_beam)
        gammas, n_a, n_b, n_ab = sampler.gammas_and_moments(psi)
        if np.any(n_ab <= 0.0):
            raise NormalizationUndefinedError("sampled state with <n_a n_b> = 0")
        stats = _bound_stats(gammas, n_a, n_b, n_ab)
        rows += [{
            "seed": int(i), "cutoff": int(cutoff),
            "n_a": float(n_a[col]), "n_b": float(n_b[col]), "n_ab": float(n_ab[col]),
            "negativity": float(stats.negativity[col]),
            "bound_exact": float(stats.bound_exact[col]),
            "bound_approx": float(stats.bound_approx[col]),
            "satisfied": bool(stats.satisfied[col]),
        } for col, i in enumerate(chunk)]
    return rows


def mixture_rows(master_seed: int, indices: range, cutoff: int) -> list[dict]:
    """Report rows for two-component mixtures of Haar-random states, one per
    index; each draws both components and the weight from its own RNG."""
    check_sample_work(len(indices), cutoff)
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
