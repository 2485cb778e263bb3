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
from functools import lru_cache
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
# peaks near 80 MB.
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


# Index shifts of the four lowering products and the beam-number diagonals
# of one (space, beam a, beam b); every array is read-only.
_Plan = namedtuple("_Plan", ["shifts", "n_a", "n_b", "n_ab"])


def _plan(space: fock.FockSpace, beam_a, beam_b) -> _Plan:
    return _cached_plan(space, tuple(beam_a), tuple(beam_b))


@lru_cache(maxsize=4)       # a run works on one space at a time
def _cached_plan(space: fock.FockSpace, beam_a: tuple[int, int],
                 beam_b: tuple[int, int]) -> _Plan:
    """a_mu b_mu' (row 2*mu + mu') moves the amplitude at src to dst =
    src - stride_mu - stride_mu', weighted sqrt(n_mu) * sqrt(n_mu'), the two
    roots as a product of ladder matrices forms them, bit for bit."""
    strides = space._strides()
    shifts = []
    for mu, mup in product(beam_a, beam_b):
        n_mu, n_mup = space.number_diagonal(mu), space.number_diagonal(mup)
        src = np.nonzero((n_mu > 0) & (n_mup > 0))[0]
        shifts.append((src, src - strides[mu] - strides[mup],
                       np.sqrt(n_mu[src]) * np.sqrt(n_mup[src])))
    n_a, n_b = (sum(map(space.number_diagonal, beam)) for beam in (beam_a, beam_b))
    plan = _Plan(tuple(shifts), n_a, n_b, n_a * n_b)
    for array in (*(a for shift in shifts for a in shift), *plan[1:]):
        array.flags.writeable = False
    return plan


def _lowered(space: fock.FockSpace, beam_a: tuple[int, int],
             beam_b: tuple[int, int], psi: np.ndarray) -> np.ndarray:
    """The four a_mu b_mu' psi (row 2*mu + mu') for state columns psi."""
    out = np.zeros((4, *psi.shape), dtype=complex)
    for row, (src, dst, weight) in enumerate(_plan(space, beam_a, beam_b).shifts):
        out[row, dst] = weight[:, None] * psi[src]
    return out


def _gammas_and_moments(space: fock.FockSpace, beam_a: tuple[int, int],
                        beam_b: tuple[int, int], psi: np.ndarray):
    """(n_samples, 4, 4) Gamma stack plus moment arrays for the state columns
    psi (dimension, n_samples) of `space`.  Reductions run per column in a
    fixed order (einsum and a running sum over the basis, not BLAS), so a
    state gets the same values alone and in a batch of any width; only the
    last row of each running sum is kept."""
    plan = _plan(space, beam_a, beam_b)
    probs = np.abs(psi) ** 2
    n_a, n_b, n_ab = (np.add.accumulate(w[:, None] * probs, axis=0)[-1].copy()
                      for w in (plan.n_a, plan.n_b, plan.n_ab))
    lowered = _lowered(space, beam_a, beam_b, psi)
    return np.einsum("cds,rds->src", lowered.conj(), lowered), n_a, n_b, n_ab


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


def _draw(rng: np.random.Generator, support: np.ndarray, dimension: int) -> np.ndarray:
    """Complex-Gaussian amplitudes on the basis indices `support`, normalized
    over the support and zero elsewhere in a vector of `dimension`."""
    z = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    amps = np.zeros(dimension, dtype=complex)
    amps[support] = z / np.linalg.norm(z)
    return amps


def haar_state(space: fock.FockSpace, rng: np.random.Generator) -> fock.StateVector:
    """Complex-Gaussian amplitudes normalized to 1 (Haar on the truncated space)."""
    return fock.StateVector(space, _draw(rng, np.arange(space.dimension), space.dimension))


def _sector_indices(space: fock.FockSpace, beam_a: tuple[int, int],
                    beam_b: tuple[int, int], k_a: int, k_b: int) -> np.ndarray:
    """Basis indices with exactly k_a photons in beam a and k_b in beam b."""
    plan = _plan(space, beam_a, beam_b)
    idx = np.nonzero((plan.n_a == k_a) & (plan.n_b == k_b))[0]
    if idx.size == 0:
        raise DomainError(f"no basis states with beam photon numbers ({k_a}, {k_b})")
    return idx


def sector_state(space: fock.FockSpace, beam_a: tuple[int, int],
                 beam_b: tuple[int, int], k_a: int, k_b: int,
                 rng: np.random.Generator) -> fock.StateVector:
    """Haar-random state with exactly k_a photons in beam a and k_b in beam b."""
    idx = _sector_indices(space, beam_a, beam_b, k_a, k_b)
    return fock.StateVector(space, _draw(rng, idx, space.dimension))


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
        draws = [_draw(rng_for(master_seed, i), support, dim) for i in indices]
        return np.reshape(draws, (len(indices), dim)).T

    def gammas_and_moments(self, psi: np.ndarray):
        """(n_samples, 4, 4) Gamma stack plus moment arrays for state columns."""
        return _gammas_and_moments(self.space, self.beam_a, self.beam_b, psi)

    @staticmethod
    def pt_eigenvalues(gammas: np.ndarray, n_ab: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(partial_transpose(gammas / n_ab[:, None, None]))


def prepare_bound_rows(cutoff: int) -> None:
    """Load numpy.random, which numpy loads on first use, and build the plan
    that `bound_rows` reads at `cutoff`; a process forked afterwards starts
    with both."""
    import numpy.random  # noqa: F401
    sampler = BeamSampler(cutoff)
    _plan(sampler.space, sampler.beam_a, sampler.beam_b)


def _rows(indices: range, cutoff: int, gammas: np.ndarray, n_a: np.ndarray,
          n_b: np.ndarray, n_ab: np.ndarray) -> list[dict]:
    """Report rows, one per index, from a Gamma stack and its moments."""
    if np.any(n_ab <= 0.0):
        raise NormalizationUndefinedError("sampled state with <n_a n_b> = 0")
    stats = _bound_stats(gammas, n_a, n_b, n_ab)
    columns = [c.tolist() for c in (n_a, n_b, n_ab, stats.negativity, stats.bound_exact,
                                     stats.bound_approx, stats.satisfied)]
    return [{"seed": int(i), "cutoff": int(cutoff), "n_a": a, "n_b": b, "n_ab": ab,
             "negativity": neg, "bound_exact": exact, "bound_approx": approx, "satisfied": ok}
            for i, a, b, ab, neg, exact, approx, ok in zip(indices, *columns)]


def bound_rows(master_seed: int, indices: range, cutoff: int,
               photons_per_beam: int | None = None) -> list[dict]:
    """Report rows (one per sampled state) for the bound-checking sweeps."""
    check_sample_work(len(indices), cutoff)
    sampler = BeamSampler(cutoff)
    n = len(indices)
    count = min(-(-n * sampler.space.dimension // CHUNK_WORK), n) or 1
    bounds = np.linspace(0, n, count + 1, dtype=int)
    rows = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        psi = sampler.sample_states(master_seed, indices[start:stop], photons_per_beam)
        rows += _rows(indices[start:stop], cutoff, *sampler.gammas_and_moments(psi))
    return rows


def mixture_rows(master_seed: int, indices: range, cutoff: int) -> list[dict]:
    """Report rows for two-component mixtures of Haar-random states, one per
    index; each draws both components and the weight from its own RNG."""
    check_sample_work(len(indices), cutoff)
    space = fock.FockSpace.truncated([cutoff] * 4)
    mixes = []
    for i in indices:
        rng = rng_for(master_seed, i)
        g1 = gamma_from_state(haar_state(space, rng))
        g2 = gamma_from_state(haar_state(space, rng))
        w = float(rng.uniform())
        mixes.append(gamma_from_mixture([(w, g1), (1.0 - w, g2)]))
    moments = (np.array([getattr(m, key) for m in mixes]) for key in ("n_a", "n_b", "n_ab"))
    return _rows(indices, cutoff, np.reshape([m.gamma for m in mixes], (-1, 4, 4)), *moments)
