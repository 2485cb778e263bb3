"""Sparse-matrix oracles that the tests check beamlab's index-shift moments
against: the pair hopping operator and the expectation <psi| O |psi>,
built from `fock.ladder_operator`'s CSR matrices the slow, obvious way."""

import numpy as np
import scipy.sparse as sp

import beamlab.fock as fock
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
