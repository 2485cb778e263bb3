"""Oracles that the tests check beamlab's shortcuts against: the pair
hopping operator, the expectation <psi| O |psi> and the four lowered
states of Gamma, built from `fock.ladder_operator`'s CSR matrices the
slow, obvious way; and the number variance and phase half-width of a
product state, measured on its amplitudes.

Four more are reference code that beamlab itself never runs:
`omega_from_state`, Omega of two modes of a Fock-space state by an index
shift (the junction's Stokes view); `sector_state`, a Haar-random state
with fixed beam photon numbers, drawn as `bound_rows` draws its sector
samples; `mueller_matrix`, the linear 4x4 action of a device map on
(I, M, C, S); and `polarizer_map`, an ideal, possibly lossy, polarizer."""

import math
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

import beamlab.fock as fock
import beamlab.jj as jj
from beamlab.entanglement import BEAM_A, BEAM_B, _draw, _sector_indices
from beamlab.errors import ContractViolationError, DomainError
from beamlab.polarization import PAULIS, CorrelationMatrix2, DeviceMap


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


def lowered_states(space, psi):
    """The four lowered states a_mu b_mu' psi (row 2*mu + mu' of Gamma) of
    the state columns psi, (4, dimension, n_samples): products of
    `fock.ladder_operator`'s annihilators applied to psi."""
    ann = [fock.ladder_operator(space, m, "annihilate") for m in range(space.mode_count)]
    return np.stack([(ann[mu] @ ann[mup]) @ psi for mu, mup in product(BEAM_A, BEAM_B)])


def product_fluctuations(n_total, n_bar1):
    """(Var(n1), phase half-width) of `jj.product_state(n_total, n_bar1)`,
    measured on the state: the compensated variance of its probabilities
    p_k, and the offset delta at which the overlap |sum_k p_k e^{i k delta}|
    drops to 1/2, by `brentq` on (0, pi)."""
    space = fock.FockSpace.fixed_sector(n_total)
    probs = np.abs(jj.product_state(n_total, n_bar1, 0.0, space).amplitudes) ** 2
    k = np.arange(len(probs), dtype=float)
    mean = math.fsum(k * probs)
    var = math.fsum((k - mean) ** 2 * probs)

    def overlap_above_half(delta):
        return abs(np.sum(probs * np.exp(1j * k * delta))) - 0.5

    width = brentq(overlap_above_half, 0.0, math.pi, xtol=1e-300)
    return var, width


def omega_from_state(state: fock.StateVector) -> CorrelationMatrix2:
    """Correlation matrix of modes 0 and 1 of a Fock-space state (the two
    polarization modes of a beam, or the sector pair).

    The trace equals <n_0> + <n_1>.  <a_1+ a_0> is an index shift on the
    amplitudes: a_1+ a_0 takes row s, where n_0 >= 1 and n_1 is below its
    cutoff, to row s - stride_0 + stride_1 (row k to k - 1 on a sector)
    with the weight sqrt(n_0 (n_1 + 1)).
    """
    space, psi = state.space, state.amplitudes
    n0, n1 = space.number_diagonal(0), space.number_diagonal(1)
    if space.kind == "fixed_sector":
        shift, rows = -1, np.nonzero(n0 >= 1)[0]
    else:
        strides = space._strides()
        shift = strides[1] - strides[0]
        rows = np.nonzero((n0 >= 1) & (n1 < space.cutoffs[1]))[0]
    prob = np.abs(psi) ** 2
    # row mu, column nu holds <a_nu+ a_mu>: Omega[0, 1] = <a_1+ a_0>
    cross = np.vdot(psi[rows + shift], np.sqrt(n0[rows] * (n1[rows] + 1)) * psi[rows])
    mat = np.array([[prob @ n0, cross], [np.conj(cross), prob @ n1]], dtype=complex)
    return CorrelationMatrix2(mat)


def sector_state(space: fock.FockSpace, k_a: int, k_b: int,
                 rng: np.random.Generator) -> fock.StateVector:
    """Haar-random state with exactly k_a photons in beam a and k_b in beam b."""
    idx = _sector_indices(space, k_a, k_b)
    amps = np.zeros(space.dimension, dtype=complex)
    amps[idx] = _draw(rng, idx.size)
    return fock.StateVector(space, amps)


def polarizer_map(mode: int = 0, transmission: float = 1.0) -> DeviceMap:
    """Ideal (possibly lossy) projector onto one basis mode."""
    if mode not in (0, 1):
        raise DomainError("mode must be 0 or 1")
    if not 0.0 <= transmission <= 1.0:
        raise DomainError("transmission must be in [0, 1]")
    k = np.zeros((2, 2), dtype=complex)
    k[mode, mode] = np.sqrt(transmission)
    return DeviceMap((k,))


def mueller_matrix(device: DeviceMap) -> np.ndarray:
    """Real 4x4 action of the map on (I, M, C, S)."""
    cols = []
    for p in PAULIS:
        image = sum(k @ p @ k.conj().T for k in device.kraus)
        cols.append([0.5 * np.real(np.trace(q @ image)) for q in PAULIS])
    return np.array(cols, dtype=float).T
