"""Oracles that the tests check beamlab's shortcuts against: the pair
hopping operator and the expectation <psi| O |psi>, built from
`fock.ladder_operator`'s CSR matrices the slow, obvious way; the Gamma
lowering plan, built by matching row sets with `np.intersect1d`; and the
number variance and phase half-width of a product state, measured on its
amplitudes."""

import math
from itertools import combinations_with_replacement, product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

import beamlab.fock as fock
import beamlab.jj as jj
from beamlab.entanglement import BEAM_A, BEAM_B
from beamlab.errors import ContractViolationError


def hopping_operator(space, dest, source):
    """The pair product (create on `dest`) @ (annihilate on `source`), a
    CSR matrix.

    Available on both space kinds; on a fixed sector it is the only
    off-diagonal primitive (it conserves the total quantum number).
    """
    if dest == source:
        return fock.ladder_operator(space, dest, "number")
    if space.kind == "fixed_sector":
        if {dest, source} != {0, 1}:
            raise ContractViolationError("sector spaces have modes 0 and 1 only")
        k = np.arange(space.n_total, dtype=float)      # transition k <-> k+1
        amp = np.sqrt((k + 1.0) * (space.n_total - k))
        offset = 1 if dest == 0 else -1                # dest 0 raises n_1 = k
        return sp.diags(amp.astype(complex), -offset, shape=(space.dimension,) * 2,
                        format="csr")
    return (fock.ladder_operator(space, dest, "create")
            @ fock.ladder_operator(space, source, "annihilate"))


def expectation(state, op) -> complex:
    """<psi| O |psi> for a matrix O on the state's basis."""
    dim = state.space.dimension
    if op.shape != (dim, dim):
        raise ContractViolationError("state and operator live on different spaces")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def lowering_plan(space):
    """The seven arrays of `entanglement._plan(space)`, built by matching the
    destination rows of each pair of lowered states with `np.intersect1d`.

    a_mu b_mu' (row 2*mu + mu') moves the amplitude at src to dst = src -
    stride_mu - stride_mu', weighted sqrt(n_mu) * sqrt(n_mu').  The ten
    (r, c), r <= c, are ordered by the number of rows both lowered states
    reach, most first; side 0 is a_c b_c', side 1 a_r b_r', padded with
    zeros to the first pair's rows.
    """
    strides = space._strides()
    lowered = []
    for mu, mup in product(BEAM_A, BEAM_B):
        n_mu, n_mup = space.number_diagonal(mu), space.number_diagonal(mup)
        src = np.nonzero((n_mu > 0) & (n_mup > 0))[0]
        lowered.append((src - strides[mu] - strides[mup], src,
                        np.sqrt(n_mu[src]) * np.sqrt(n_mup[src])))
    shared = {(r, c): np.intersect1d(lowered[c][0], lowered[r][0], assume_unique=True,
                                     return_indices=True)[1:]
              for r, c in combinations_with_replacement(range(4), 2)}
    pairs = sorted(shared, key=lambda pair: -shared[pair][0].size)
    rows = np.array([shared[pair][0].size for pair in pairs])
    src = np.zeros((2, len(pairs), max(rows)), dtype=np.intp)
    weight = np.zeros(src.shape)
    for p, (r, c) in enumerate(pairs):
        for side, (row, at) in enumerate(zip((c, r), shared[r, c])):
            src[side, p, :at.size] = lowered[row][1][at]
            weight[side, p, :at.size] = lowered[row][2][at]
    n_a, n_b = (sum(map(space.number_diagonal, beam)) for beam in (BEAM_A, BEAM_B))
    return np.array(pairs), rows, src, weight, n_a, n_b, n_a * n_b


def product_fluctuations(n_total, n_bar1):
    """(Var(n1), phase half-width) of `jj.product_state(n_total, n_bar1)`,
    measured on the state: the compensated variance of its probabilities
    p_k, and the offset delta at which the overlap |sum_k p_k e^{i k delta}|
    drops to 1/2, by `brentq` on (0, pi)."""
    space = fock.FockSpace.fixed_sector(n_total)
    probs = jj.product_state(n_total, n_bar1, 0.0, space).probabilities()
    k = np.arange(len(probs), dtype=float)
    mean = math.fsum(k * probs)
    var = math.fsum((k - mean) ** 2 * probs)

    def overlap_above_half(delta):
        return abs(np.sum(probs * np.exp(1j * k * delta))) - 0.5

    width = brentq(overlap_above_half, 0.0, math.pi, xtol=1e-300)
    return var, width
