"""Two-beam correlation matrices, negativity, and the 1/n entanglement bound.

For two beams, each a pair of polarization modes, the 4x4 correlation
matrix is

    Gamma[(mu, mu'), (nu, nu')] = <a_nu+ a_mu b_nu'+ b_mu'>

with the frozen index layout row = 2*mu + mu', column = 2*nu + nu' (mu is
the beam-a polarization index, the slower one).  The layout of the modes
is fixed: beam a is modes 0 (x) and 1 (y) of a truncated space, beam b is
modes 2 and 3 (BEAM_A, BEAM_B).  Gamma is the Gram matrix of the lowering
products a_mu b_mu', hence Hermitian PSD, and its trace is the
photon-number product moment <n_a n_b>.  The normalized matrix
Gamma~ = Gamma / <n_a n_b> plays the role of a two-qubit density matrix.
Each lowered state a_mu b_mu' psi is a weighted slice of the amplitudes
viewed as an array of one axis per mode (`_layout`), so Gamma takes no
index arrays, only the four lowered states of the states at hand.

Negativity of Gamma~ is bounded by min(2 n_a, 2 n_b) / <n_a n_b>, which for
uncorrelated beams is approximately 2 / max(n_a, n_b): macroscopically
bright beams can carry at most O(1/photon number) entanglement.  The
intermediate trace inequality Tr|Gamma~^PT| <= 1 + 4 n_a / <n_a n_b> is
recorded alongside.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

import numpy as np

from . import fock
from .errors import (
    ContractViolationError,
    DomainError,
    NormalizationUndefinedError,
    ResourceLimitError,
)
from .seeding import rng_for

BOUND_TOL = 1e-9

# Work budget in sampled states x basis dimension.
SAMPLE_WORK_LIMIT = 10_000_000
# A chunk's four lowered states (4 x dimension x width amplitudes, the
# largest arrays of its Gamma step) hold at most this many 16-byte entries,
# 2 MB, unless one state's alone hold more: bound_rows sizes its chunks by
# them.  Measured peak RSS: 42.8 MB for the benchmark's beam workload, 0.10
# GB for neg-sweep --samples 20 --k-max 24 and 0.15 GB for --samples 1
# --k-max 30, whose chunks hold one state.
OPERAND_WORK = 2 ** 17


def check_sample_work(samples: int, cutoff: int) -> None:
    """Refuse `samples` states at `cutoff` beyond SAMPLE_WORK_LIMIT, and a
    four-mode space of `cutoff` beyond fock's dimension limit."""
    dimension = (cutoff + 1) ** 4
    fock.check_work(samples * dimension, SAMPLE_WORK_LIMIT, "samples x dimension")
    if dimension > fock.DEFAULT_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"dimension {dimension}+ exceeds the limit {fock.DEFAULT_DIMENSION_LIMIT}")


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


BEAM_A, BEAM_B = (0, 1), (2, 3)

# The four lowered states as slices of the state block, which
# _lowered_states views as its occupation box (cutoff + 1 per mode, then
# the states).  Entry j of `lowered`, j = 2*mu + mu' (Gamma's row), writes
# a_mu b_mu' psi at dst: the block's amplitudes at src (occupations 1 to
# cutoff on modes mu and mu', all on the others) times weight,
# sqrt(n_mu + 1) * sqrt(n_mu' + 1) at the occupations of dst = src - 1 on
# both.  n_a, n_b and n_ab are the beam-number diagonals.  Every array is
# read-only.
_Layout = namedtuple("_Layout", ["lowered", "n_a", "n_b", "n_ab"])


@lru_cache(maxsize=1)
def _layout(cutoffs: tuple[int, ...]) -> _Layout:
    """The layout of the truncated space of these cutoffs, built once for
    the space a run works on; its arrays take 24 bytes per basis state."""
    box = [c + 1 for c in cutoffs]

    def occupation(mode, count):
        """0 .. count - 1 along `mode`'s axis of the box."""
        return np.arange(count).reshape([count if m == mode else 1 for m in range(len(box))])

    lowered = []
    for mu, mup in product(BEAM_A, BEAM_B):
        src = tuple(slice(1, None) if m in (mu, mup) else slice(None) for m in range(len(box)))
        dst = tuple(slice(0, -1) if m in (mu, mup) else slice(None) for m in range(len(box)))
        weight = (np.sqrt(occupation(mu, cutoffs[mu]) + 1.0)
                  * np.sqrt(occupation(mup, cutoffs[mup]) + 1.0))[..., None]
        weight.flags.writeable = False
        lowered.append((weight, src, dst))
    n_a, n_b = (np.broadcast_to(sum(occupation(m, box[m]) for m in beam) + 0.0, box).ravel()
                for beam in (BEAM_A, BEAM_B))
    layout = _Layout(tuple(lowered), n_a, n_b, n_a * n_b)
    for array in layout[1:]:
        array.flags.writeable = False
    return layout


def _lowered_states(space: fock.FockSpace, psi: np.ndarray) -> np.ndarray:
    """The four lowered states a_mu b_mu' psi (row 2*mu + mu' of Gamma) of
    the state columns psi (dimension, n_samples), one zeroed (4, dimension,
    n_samples) array with each written as a weighted slice of the state
    block (`_layout`)."""
    box = psi.reshape(*(c + 1 for c in space.cutoffs), psi.shape[1])
    low = np.zeros((4, *psi.shape), dtype=complex)
    for out, (weight, src, dst) in zip(low, _layout(space.cutoffs).lowered):
        np.multiply(weight, box[src], out=out.reshape(box.shape)[dst])
    return low


def _gammas_and_moments(space: fock.FockSpace, psi: np.ndarray):
    """(n_samples, 4, 4) Gamma stack plus moment arrays for the state columns
    psi (dimension, n_samples) of `space`.

    Reductions run per column in a fixed order (einsum and a running sum
    over the basis, not BLAS), so a state gets the same values alone and in
    a batch of any width; only the last row of each running sum is kept.

    Entry (r, c) sums conj(a_c b_c' psi) a_r b_r' psi over the basis,
    ascending, on the lowered states of `_lowered_states`: one einsum per
    column c, on one conjugate buffer, at every width.  It keeps the
    (state, row) axes, so each entry is one running sum even for a lone
    state; einsum sums a reduction that keeps no other axis in chunks (at
    12,100 rows, not at 8,193).  A row that a lowered state does not reach
    adds an exact zero to a running sum that starts at +0, which leaves its
    bits as they are.  Beside the amplitudes, the step holds five arrays of
    their size: the four lowered states and the conjugate."""
    layout = _layout(space.cutoffs)
    probs = np.abs(psi)
    np.square(probs, out=probs)
    weighted = np.empty_like(probs)
    n_a, n_b, n_ab = (np.add.accumulate(np.multiply(w[:, None], probs, out=weighted),
                                        axis=0, out=weighted)[-1].copy()
                      for w in (layout.n_a, layout.n_b, layout.n_ab))
    del probs, weighted         # freed before the lowered states are built
    low = _lowered_states(space, psi)
    gammas = np.empty((psi.shape[1], 4, 4), dtype=complex)
    conj_c = np.empty_like(low[0])  # one buffer: an array per c left the heap higher
    for c in range(4):
        np.conjugate(low[c], out=conj_c)
        gammas[:, :, c] = np.einsum("ds,rds->sr", conj_c, low)
    return gammas, n_a, n_b, n_ab


def gamma_from_state(state: fock.StateVector) -> TwoBeamCorrelation:
    """Gamma and the moments (mean photon numbers, <n_a n_b>) of one state
    of a truncated space of at least 4 modes, in the BEAM_A, BEAM_B layout."""
    space = state.space
    if space.kind != "truncated" or space.mode_count < 4:
        raise ContractViolationError("the two beams need modes 0-3 of a truncated space")
    gammas, n_a, n_b, n_ab = _gammas_and_moments(space, state.amplitudes[:, None])
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


# Bound statistics, arrays of one entry per state (`_bound_stats`) or the
# built-in values of one state (`bound_report`).  excess, (Tr|Gamma~^PT| - 1)/2,
# is clipped at 0 into negativity; the bounds are min(2 n_a, 2 n_b) / <n_a n_b>,
# 2 / max(n_a, n_b) and, on Tr|Gamma~^PT|, 1 + 4 n_a / <n_a n_b>.
BoundReport = namedtuple("BoundReport", [
    "pt_eigenvalues", "trace_abs_pt", "excess", "negativity", "bound_exact",
    "bound_approx", "trace_abs_bound", "satisfied", "trace_bound_satisfied"])


def _bound_stats(gammas: np.ndarray, n_a: np.ndarray, n_b: np.ndarray,
                 n_ab: np.ndarray) -> BoundReport:
    lam = BeamSampler.pt_eigenvalues(gammas, n_ab)
    trace_abs = np.sum(np.abs(lam), axis=-1)
    excess = 0.5 * (trace_abs - 1.0)
    neg = np.maximum(excess, 0.0)
    bound_exact = np.minimum(2.0 * n_a, 2.0 * n_b) / n_ab
    trace_abs_bound = 1.0 + 4.0 * n_a / n_ab
    return BoundReport(lam, trace_abs, excess, neg, bound_exact,
                       2.0 / np.maximum(n_a, n_b), trace_abs_bound,
                       neg <= bound_exact + BOUND_TOL,
                       trace_abs <= trace_abs_bound + BOUND_TOL)


def bound_report(corr: TwoBeamCorrelation) -> BoundReport:
    """The bound statistics of one state or mixture, as floats and bools."""
    moments = (np.array([m]) for m in (corr.n_a, corr.n_b, corr.n_ab))
    lam, *rest = (field[0].tolist() for field in _bound_stats(corr.gamma[None], *moments))
    return BoundReport(tuple(lam), *rest)


def check_bound(state: fock.StateVector) -> BoundReport:
    return bound_report(gamma_from_state(state))


# -- random-state sampling ----------------------------------------------------


def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` complex-Gaussian amplitudes normalized to 1."""
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def haar_state(space: fock.FockSpace, rng: np.random.Generator) -> fock.StateVector:
    """Complex-Gaussian amplitudes normalized to 1 (Haar on the truncated space)."""
    return fock.StateVector(space, _draw(rng, space.dimension))


def _sector_indices(space: fock.FockSpace, k_a: int, k_b: int) -> np.ndarray:
    """Basis indices with exactly k_a photons in beam a and k_b in beam b."""
    layout = _layout(space.cutoffs)
    idx = np.nonzero((layout.n_a == k_a) & (layout.n_b == k_b))[0]
    if idx.size == 0:
        raise DomainError(f"no basis states with beam photon numbers ({k_a}, {k_b})")
    return idx


class BeamSampler:
    """Batched Gamma/negativity evaluation over many sampled states.

    Holds the four-mode space of one cutoff, beams in the BEAM_A, BEAM_B
    layout, and processes whole sample batches with dense linear algebra.
    Per-sample randomness comes from the fan-out seeds, so results do not
    depend on batching or scheduling.
    """

    def __init__(self, cutoff: int):
        self.space = fock.FockSpace.truncated([cutoff] * 4)

    def sample_states(self, master_seed: int, indices: range,
                      photons_per_beam: int | None = None) -> np.ndarray:
        """Columns of normalized amplitudes, one per task index, drawn
        straight into one C-ordered (dimension, n_samples) block."""
        dim = self.space.dimension
        if photons_per_beam is None:
            support, size = slice(None), dim
        else:
            support = _sector_indices(self.space, photons_per_beam, photons_per_beam)
            size = support.size
        # allocated after the layout (which _sector_indices builds and which
        # outlives the block), so that the layout never sits above a chunk's
        # block and keeps the heap from shrinking after it
        psi = np.zeros((dim, len(indices)), dtype=complex)
        for column, i in enumerate(indices):
            psi[support, column] = _draw(rng_for(master_seed, i), size)
        return psi

    def gammas_and_moments(self, psi: np.ndarray):
        """(n_samples, 4, 4) Gamma stack plus moment arrays for state columns."""
        return _gammas_and_moments(self.space, psi)

    @staticmethod
    def pt_eigenvalues(gammas: np.ndarray, n_ab: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(partial_transpose(gammas / n_ab[:, None, None]))


def prepare_bound_rows(cutoff: int) -> None:
    """Load numpy.random, which numpy loads on first use, and build the
    layout that `bound_rows` reads at `cutoff`; a process forked afterwards
    starts with both."""
    import numpy.random  # noqa: F401
    _layout(BeamSampler(cutoff).space.cutoffs)


# A report row of the bound-checking sweeps, 65 bytes: its fields are the
# report's columns, in order.
ROW = np.dtype([("seed", np.int64), ("cutoff", np.int64),
                *((name, np.float64) for name in ("n_a", "n_b", "n_ab", "negativity",
                                                  "bound_exact", "bound_approx")),
                ("satisfied", np.bool_)])


def _rows(indices: range, cutoff: int, gammas: np.ndarray, n_a: np.ndarray,
          n_b: np.ndarray, n_ab: np.ndarray) -> np.ndarray:
    """Report rows, one ROW record per index, from a Gamma stack and its
    moments."""
    if np.any(n_ab <= 0.0):
        raise NormalizationUndefinedError("sampled state with <n_a n_b> = 0")
    stats = _bound_stats(gammas, n_a, n_b, n_ab)
    rows = np.empty(len(indices), ROW)
    for name, column in zip(ROW.names, (indices, cutoff, n_a, n_b, n_ab, stats.negativity,
                                        stats.bound_exact, stats.bound_approx,
                                        stats.satisfied)):
        rows[name] = column
    return rows


def bound_rows(master_seed: int, indices: range, cutoff: int,
               photons_per_beam: int | None = None, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Report rows (ROW records, one per sampled state) for the
    bound-checking sweeps, written into `out`, a ROW array of one record
    per index, when it is given.

    The states are drawn and reduced in chunks of one width, the last
    chunk narrower, as wide as keeps their four lowered states, 4 x
    dimension x width amplitudes, within OPERAND_WORK, or one state wide
    where one state's are past it.  A run grows with the number of states
    only by its 65-byte records."""
    check_sample_work(len(indices), cutoff)
    sampler = BeamSampler(cutoff)
    n = len(indices)
    width = max(OPERAND_WORK // (4 * sampler.space.dimension), 1)
    rows = np.empty(n, ROW) if out is None else out
    for start in range(0, n, width):
        chunk = indices[start:start + width]
        psi = sampler.sample_states(master_seed, chunk, photons_per_beam)
        gammas_and_moments = sampler.gammas_and_moments(psi)
        del psi                 # freed before the next chunk's states are drawn
        rows[start:start + width] = _rows(chunk, cutoff, *gammas_and_moments)
    return rows


def mixture_rows(master_seed: int, indices: range, cutoff: int) -> np.ndarray:
    """Report rows (ROW records) for two-component mixtures of Haar-random
    states, one per index; each draws both components and the weight from
    its own RNG."""
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
