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

Negativity of Gamma~ is bounded by min(2 n_a, 2 n_b) / <n_a n_b>, which for
uncorrelated beams is approximately 2 / max(n_a, n_b): macroscopically
bright beams can carry at most O(1/photon number) entanglement.  The
intermediate trace inequality Tr|Gamma~^PT| <= 1 + 4 n_a / <n_a n_b> is
recorded alongside.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations_with_replacement, product

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
# A chunk's state block (its amplitudes, dimension x width) and each of its
# Gamma operands (the lowered states of a group of Gamma entries) hold at
# most this many 16-byte entries, 2 MB, unless a chunk's least width, two
# states, forces more: bound_rows sizes its chunks by the state block, which
# outgrows every operand since (c + 1)^4 > c^2 (c + 1)^2 rows, and
# _pair_groups packs entries up to it.  Measured peak RSS: 44 MB for the
# benchmark's beam workload, 0.20 GB for neg-sweep --samples 20 --k-max 24
# and 0.69 GB for --samples 1 --k-max 30, whose lone state gathers all ten
# entries at once.
OPERAND_WORK = 2 ** 17


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


BEAM_A, BEAM_B = (0, 1), (2, 3)

# The ten upper-triangle Gamma entries (r, c), r <= c, most rows first.
# Entry p of `pairs` sums conj(weight[0, p] psi[src[0, p]]) (a_c b_c' psi)
# times weight[1, p] psi[src[1, p]] (a_r b_r' psi) over the rows[p] basis
# rows that both lowered states reach, ascending; beyond rows[p] (padding)
# src is 0 and weight is 0.  n_a, n_b and n_ab are the beam-number
# diagonals.  Every array is read-only.
_Plan = namedtuple("_Plan", ["pairs", "rows", "src", "weight", "n_a", "n_b", "n_ab"])


class _OneSpaceCache:
    """`build(space)` cached for the last space it was called with.  A run
    works on one space at a time, and unlike lru_cache(maxsize=1) this lets
    the held result go before it builds the next one, so a sweep over
    cutoffs never holds two plans."""

    def __init__(self, build):
        self.build = build
        self.cache_clear()

    def cache_clear(self) -> None:
        self.space = self.value = None
        self.misses = 0

    def __call__(self, space: fock.FockSpace):
        if space != self.space:
            self.space = self.value = None
            self.misses += 1
            self.value, self.space = self.build(space), space
        return self.value


@_OneSpaceCache
def _plan(space: fock.FockSpace) -> _Plan:
    """a_mu b_mu' (row 2*mu + mu') moves the amplitude at src = dst +
    stride_mu + stride_mu' to dst, weighted sqrt(n_mu) * sqrt(n_mu') at src,
    the two roots as a product of ladder matrices forms them, bit for bit.

    The rows that both a_r b_r' and a_c b_c' reach form a box: occupations
    0 to cutoff - 1 on each lowered mode and 0 to cutoff on the others.
    Its index grid, raveled in C order, lists them ascending."""
    strides, cutoffs = space._strides(), space.cutoffs
    lowered = list(product(BEAM_A, BEAM_B))

    def box(pair):
        reached = lowered[pair[0]] + lowered[pair[1]]
        return [cut + (mode not in reached) for mode, cut in enumerate(cutoffs)]

    pairs = sorted(combinations_with_replacement(range(4), 2),
                   key=lambda pair: -math.prod(box(pair)))
    rows = np.array([math.prod(box(pair)) for pair in pairs])
    src = np.zeros((2, len(pairs), max(rows)), dtype=np.intp)
    weight = np.zeros(src.shape)    # np.multiply casts it to complex, bits kept
    for p, (r, c) in enumerate(pairs):
        extents = box((r, c))
        n = np.ix_(*map(np.arange, extents))    # the occupations at dst
        dst = sum(n_m * stride for n_m, stride in zip(n, strides))
        for side, (mu, mup) in enumerate((lowered[c], lowered[r])):
            src[side, p, :rows[p]] = np.ravel(dst + strides[mu] + strides[mup])
            roots = np.sqrt(n[mu] + 1.0) * np.sqrt(n[mup] + 1.0)
            weight[side, p, :rows[p]] = np.broadcast_to(roots, extents).ravel()
    n_a, n_b = (sum(map(space.number_diagonal, beam)) for beam in (BEAM_A, BEAM_B))
    plan = _Plan(np.array(pairs), rows, src, weight, n_a, n_b, n_a * n_b)
    for array in plan:
        array.flags.writeable = False
    return plan


def _pair_groups(plan: _Plan, width: int):
    """Runs of consecutive pairs whose operands, `width` columns each and
    padded to the first pair's rows, hold at most OPERAND_WORK entries
    (2 MB) each; a pair alone may hold more.  An operand is gathered,
    weighted and read by einsum in turn, so a small one stays in cache: on
    a 2-core Xeon with 2 MB of L2 per core, a 200-state chunk at k = 4 took
    7 ms in groups of this size and 13 ms in groups four times as large.

    A single state's pairs form one group.  einsum sums one pair of one
    state, which keeps no axis but the summed one, in chunks (at 12,100
    rows, not at 8,193) rather than as one running sum."""
    if width == 1:
        yield slice(0, len(plan.pairs))
        return
    start = 0
    while start < len(plan.pairs):
        count = max(1, OPERAND_WORK // max(1, plan.rows[start] * width))
        yield slice(start, start + count)
        start += count


def _pair_operands(plan: _Plan, psi: np.ndarray, group: slice):
    """The conjugate of a_c b_c' psi and a_r b_r' psi on the rows of each
    pair of `group`, each (pairs, rows, n_samples), zero in the padding."""
    rows = plan.rows[group.start]
    operands = []
    for src, weight in zip(plan.src, plan.weight):
        operand = psi.take(src[group, :rows], axis=0)
        np.multiply(weight[group, :rows, None], operand, out=operand)
        operands.append(operand)
    np.conjugate(operands[0], out=operands[0])
    return operands


def _gammas_and_moments(space: fock.FockSpace, psi: np.ndarray):
    """(n_samples, 4, 4) Gamma stack plus moment arrays for the state columns
    psi (dimension, n_samples) of `space`.

    Reductions run per column in a fixed order (einsum and a running sum
    over the basis, not BLAS), so a state gets the same values alone and in
    a batch of any width; only the last row of each running sum is kept.

    Only the ten upper-triangle entries are summed: each over the rows that
    both of its lowered states reach, ascending, then over its padding, one
    einsum per group of entries (`_pair_groups`; a single state is one
    einsum).  Every sum keeps the order, and so the bits, of the full sum
    over the basis: the rows left out are structural zeros (a factor that no
    state can fill), and the padding's exact zeros come after the last
    term.  The lower triangle is written as the exact conjugate."""
    plan = _plan(space)
    probs = np.abs(psi)
    np.square(probs, out=probs)
    weighted = np.empty_like(probs)
    n_a, n_b, n_ab = (np.add.accumulate(np.multiply(w[:, None], probs, out=weighted),
                                        axis=0, out=weighted)[-1].copy()
                      for w in (plan.n_a, plan.n_b, plan.n_ab))
    del probs, weighted         # freed before the pair operands are built
    width = psi.shape[1]
    upper = np.empty((width, len(plan.pairs)), dtype=complex)
    for group in _pair_groups(plan, width):
        upper[:, group] = np.einsum("pds,pds->sp", *_pair_operands(plan, psi, group))
    gammas = np.empty((width, 4, 4), dtype=complex)
    r, c = plan.pairs.T
    # a sum from +0 is never -0, so + 0.0 turns the conjugate's -0 into +0
    gammas[:, c, r] = upper.conj() + 0.0
    gammas[:, r, c] = upper         # second, so the diagonal keeps its own bits
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
    plan = _plan(space)
    idx = np.nonzero((plan.n_a == k_a) & (plan.n_b == k_b))[0]
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
        # allocated after the plan (which _sector_indices builds and which
        # outlives the block): a plan built above the first chunk's block
        # pinned the heap, and a bright sweep peaked 2 MB higher
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
    """Load numpy.random, which numpy loads on first use, and build the plan
    that `bound_rows` reads at `cutoff`; a process forked afterwards starts
    with both."""
    import numpy.random  # noqa: F401
    _plan(BeamSampler(cutoff).space)


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
               photons_per_beam: int | None = None) -> np.ndarray:
    """Report rows (ROW records, one per sampled state) for the
    bound-checking sweeps.

    The states are drawn and reduced in chunks as wide as keeps the state
    block, dimension x width amplitudes, within OPERAND_WORK, and so every
    Gamma operand too; a chunk holds two states at least unless the call
    has one, since a lone state gathers all ten entries at once
    (_pair_groups).  A run grows with the number of states only by its
    65-byte records."""
    check_sample_work(len(indices), cutoff)
    sampler = BeamSampler(cutoff)
    n = len(indices)
    width = max(OPERAND_WORK // sampler.space.dimension, 2)
    count = max(min(-(-n // width), n // 2), 1)
    rows = np.empty(n, ROW)
    for start, stop in ((i * n // count, (i + 1) * n // count) for i in range(count)):
        psi = sampler.sample_states(master_seed, indices[start:stop], photons_per_beam)
        gammas_and_moments = sampler.gammas_and_moments(psi)
        del psi                 # freed before the next chunk's states are drawn
        rows[start:stop] = _rows(indices[start:stop], cutoff, *gammas_and_moments)
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
