"""Bosonic Fock spaces, their states, and exact unitary evolution.

Two kinds of spaces are supported:

* ``truncated`` -- one cutoff per mode, basis states are all occupation
  tuples ``(n_0, ..., n_{M-1})`` with ``n_m <= cutoff_m``.  The basis is
  enumerated row-major with mode 0 as the slowest-varying index; this
  ordering is frozen for reproducibility.
* ``fixed_sector`` -- the two-mode subspace with a fixed total quantum
  number N.  Basis index k corresponds to the occupation ``(k, N - k)``
  with k ascending; single ladder operators leave the sector and are
  therefore unavailable, only number operators and the paired hopping
  products exist.

Either kind holds at most DEFAULT_DIMENSION_LIMIT basis states.  Any
amplitude an operator would push above a truncation cutoff is dropped;
:func:`boundary_weight` reports the population sitting on the cutoff
boundary so simulations can verify the drop is negligible.

An operator is a plain matrix on a space's basis; beamlab reads every
moment it reports by an index shift on the amplitudes instead.
:func:`ladder_operator` gives one mode's operator as a scipy CSR matrix,
and :func:`evolve_unitary_sampled` and :func:`tridiagonal_expm_apply`
eigendecompose a Hermitian matrix, numpy or scipy sparse, on every call.
Nothing in beamlab calls these three: the tests build oracles from them,
and the benchmark's span list wraps them by name.

:func:`propagate` turns eigenpairs to the output times, a block of
OUTPUT_CHUNK_WORK entries at a time; the exact junction model runs it on
its own tridiagonal arrays.  :func:`tridiagonal_expm_apply` turns every
column of a block through its own time, by dot products of contiguous
rows that give a column the same bits in any block and at any BLAS
thread count.  hbar = 1: times are inverse energies in the caller's unit.

scipy is imported where a sparse matrix is built or read, and where a
tridiagonal eigensolve has more than DENSE_EIGH_LIMIT rows, not when this
module loads; so the beam subcommands and both junction models up to that
size never load it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    ResourceLimitError,
    UnsupportedOperatorError,
)

DEFAULT_DIMENSION_LIMIT = 1_000_000
HERMITIAN_TOL = 1e-12
# Work budget of one eigendecomposition in dimension^2: it holds 8 to 16
# bytes per entry for the eigenvectors, plus a dense copy unless tridiagonal.
EIG_WORK_LIMIT = 25_000_000
# Entries (dimension x output times) of one propagated block; a block holds
# 16 bytes per entry, so 1 MB, whatever the number of outputs.
OUTPUT_CHUNK_WORK = 2 ** 16
# Rows up to which eigh_tridiagonal solves the dense matrix with numpy.  On
# 2 cores a dense solve of 1,200 rows takes 0.2 to 0.3 s, about what
# importing scipy.linalg takes; above it scipy's tridiagonal stevd is the
# cheaper (0.3 s at 2,000 rows, where the dense solve takes 0.8 s).  The
# limit moves no report: on windows of the exact model's matrix (301 to
# 2,000 rows) both solvers give the same bits, eigenvectors included.
DENSE_EIGH_LIMIT = 1_200


def check_work(work, limit: float, what: str) -> None:
    """Raise ResourceLimitError unless `work` is within `limit`; callers check
    before they allocate anything.  An infinite count fails too.  Six
    significant digits tell a count just over the limit from the limit."""
    if not work <= limit:
        shown = f"{work:.6g}" if work < 1e300 else "more than 1e300"
        raise ResourceLimitError(f"{what} {shown} exceeds the limit {limit:.6g}")


class FockSpace:
    """Immutable basis description. Use :meth:`truncated` or :meth:`fixed_sector`."""

    def __init__(self, kind: str, cutoffs: tuple[int, ...] | None, n_total: int | None,
                 dimension: int):
        self.kind = kind
        self.cutoffs = cutoffs
        self.n_total = n_total
        self.dimension = dimension
        self.mode_count = len(cutoffs) if cutoffs is not None else 2

    @classmethod
    def truncated(cls, cutoffs: Sequence[int]) -> "FockSpace":
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) == 0:
            raise ContractViolationError("a Fock space needs at least one mode")
        if any(c < 0 for c in cutoffs):
            raise ContractViolationError(f"cutoffs must be non-negative, got {cutoffs}")
        dim = 1
        for c in cutoffs:
            dim *= c + 1
            if dim > DEFAULT_DIMENSION_LIMIT:
                raise ResourceLimitError(
                    f"dimension {dim}+ exceeds the limit {DEFAULT_DIMENSION_LIMIT}")
        return cls("truncated", cutoffs, None, dim)

    @classmethod
    def fixed_sector(cls, n_total: int) -> "FockSpace":
        n_total = int(n_total)
        if n_total < 0:
            raise ContractViolationError("total quantum number must be >= 0")
        if n_total + 1 > DEFAULT_DIMENSION_LIMIT:
            raise ResourceLimitError(
                f"dimension {n_total + 1} exceeds the limit {DEFAULT_DIMENSION_LIMIT}")
        return cls("fixed_sector", None, n_total, n_total + 1)

    # -- basis bookkeeping -------------------------------------------------

    def _strides(self) -> tuple[int, ...]:
        assert self.cutoffs is not None
        strides = []
        acc = 1
        for c in reversed(self.cutoffs):
            strides.append(acc)
            acc *= c + 1
        return tuple(reversed(strides))

    def index_of(self, occupation: Sequence[int]) -> int:
        occ = tuple(int(n) for n in occupation)
        if self.kind == "fixed_sector":
            if len(occ) != 2 or occ[0] + occ[1] != self.n_total or occ[0] < 0:
                raise ContractViolationError(
                    f"occupation {occ} is not in the N={self.n_total} sector")
            return occ[0]
        if len(occ) != self.mode_count:
            raise ContractViolationError("occupation length != mode count")
        if any(n < 0 or n > c for n, c in zip(occ, self.cutoffs)):
            raise ContractViolationError(f"occupation {occ} outside cutoffs {self.cutoffs}")
        return sum(n * s for n, s in zip(occ, self._strides()))

    def number_diagonal(self, mode: int) -> np.ndarray:
        """Occupation of `mode` for every basis state, as a float vector."""
        if not 0 <= mode < self.mode_count:
            raise ContractViolationError(f"mode {mode} out of range")
        if self.kind == "fixed_sector":
            k = np.arange(self.dimension, dtype=float)
            return k if mode == 0 else self.n_total - k
        idx = np.arange(self.dimension)
        s = self._strides()[mode]
        return ((idx // s) % (self.cutoffs[mode] + 1)).astype(float)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockSpace)
                and self.kind == other.kind
                and self.cutoffs == other.cutoffs
                and self.n_total == other.n_total)

    def __hash__(self):
        return hash((self.kind, self.cutoffs, self.n_total))

    def __repr__(self):
        if self.kind == "truncated":
            return f"FockSpace.truncated({list(self.cutoffs)})"
        return f"FockSpace.fixed_sector({self.n_total})"


class StateVector:
    """Normalized complex amplitude vector over a space's basis.

    Immutable after construction: the amplitude array is copied and frozen.
    """

    def __init__(self, space: FockSpace, amplitudes: np.ndarray, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex, copy=True)
        if amps.shape != (space.dimension,):
            raise ContractViolationError(
                f"amplitude vector has shape {amps.shape}, expected ({space.dimension},)")
        if not np.all(np.isfinite(amps)):
            raise ContractViolationError("amplitudes must be finite")
        nrm = np.linalg.norm(amps)
        if normalize:
            if not 0.0 < nrm < np.inf:
                raise ContractViolationError(f"cannot normalize a vector of norm {nrm!r}")
            amps = amps / nrm
        elif not abs(nrm - 1.0) <= 1e-12:
            raise ContractViolationError(f"state norm {nrm!r} deviates from 1 by > 1e-12")
        amps.flags.writeable = False
        self.space = space
        self.amplitudes = amps

    def __repr__(self):
        return f"StateVector(dim={self.space.dimension})"


def basis_state(space: FockSpace, occupation: Sequence[int]) -> StateVector:
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of(occupation)] = 1.0
    return StateVector(space, amps)


def boundary_weight(state: StateVector) -> float:
    """Population on the truncation boundary (any mode at its cutoff).

    This upper-bounds (per application, times the boundary matrix elements)
    the norm an operator can silently drop above the cutoff.  Zero for
    fixed-sector spaces, which are closed under their operators.
    """
    space = state.space
    if space.kind == "fixed_sector":
        return 0.0
    mask = np.zeros(space.dimension, dtype=bool)
    for m, c in enumerate(space.cutoffs):
        mask |= space.number_diagonal(m) == c
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def ladder_operator(space: FockSpace, mode: int, kind: str):
    """annihilate / create / number operator for one mode, as a scipy CSR
    matrix on the space's basis.

    annihilate: |..., n, ...> -> sqrt(n) |..., n-1, ...>; create is its exact
    adjoint, so raising off the top of the truncation drops the amplitude.
    On fixed-sector spaces only "number" is available.
    """
    import scipy.sparse as sp
    if not 0 <= mode < space.mode_count:
        raise ContractViolationError(f"mode {mode} out of range")
    if kind not in ("annihilate", "create", "number"):
        raise ContractViolationError(f"unknown ladder kind {kind!r}")

    if space.kind == "fixed_sector" and kind != "number":
        raise UnsupportedOperatorError(
            "single ladder operators leave the fixed-total-number sector; "
            "only number operators exist on it")
    if kind == "number":
        return sp.diags(space.number_diagonal(mode).astype(complex), format="csr")

    occ_m = space.number_diagonal(mode).astype(int)
    stride = space._strides()[mode]
    src = np.nonzero(occ_m > 0)[0]           # columns with n_m >= 1
    dst = src - stride                       # n_m -> n_m - 1
    amp = np.sqrt(occ_m[src]).astype(complex)
    lower = sp.csr_matrix((amp, (dst, src)),
                          shape=(space.dimension, space.dimension))
    if kind == "annihilate":
        return lower
    return lower.conjugate().transpose().tocsr()


# -- evolution ---------------------------------------------------------------


def evolve_unitary_sampled(state: StateVector, hamiltonian,
                           times: Iterable[float]) -> list[StateVector]:
    """States exp(-i H t)|psi> at the given non-decreasing, finite times, H
    a Hermitian matrix (numpy or scipy sparse) on the state's basis.

    Every output comes from t = 0 through the eigendecomposition of H, the
    outputs of a :func:`propagate` block in one matrix product, so no error
    accumulates from step to step.  Raises ResourceLimitError when
    dimension^2 exceeds EIG_WORK_LIMIT.
    """
    _require_hermitian(hamiltonian, state.space.dimension)
    times = np.array(list(times), dtype=float)
    if not np.all(np.isfinite(times)):
        raise ContractViolationError("output times must be finite")
    if np.any(np.diff(times) < 0):
        raise ContractViolationError("output times must be non-decreasing")
    blocks = propagate(*_eigendecomposition(hamiltonian), state.amplitudes, times)
    return [StateVector(state.space, psi[:, j])
            for _, psi in blocks for j in range(psi.shape[1])]


def propagate(w: np.ndarray, v: np.ndarray, psi0: np.ndarray, times: np.ndarray
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(times, psi) blocks in time order, psi[:, j] = V exp(-i w times[j])
    V^H psi0 for the eigenpairs (w, V) of a Hermitian H, a block holding
    about OUTPUT_CHUNK_WORK entries (at least one output)."""
    c0 = _real_or_complex_matmul(v.conj().T, psi0[:, None])
    width = max(OUTPUT_CHUNK_WORK // len(psi0), 1)
    blocks = (times[i:i + width] for i in range(0, len(times), width))
    return ((t, _real_or_complex_matmul(v, np.exp(-1j * np.outer(w, t)) * c0))
            for t in blocks)


def _real_or_complex_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for complex columns z; a real m multiplies the interleaved real
    and imaginary parts, so it is never copied to complex."""
    if np.iscomplexobj(m):
        return m @ z
    return (m @ np.ascontiguousarray(z).view(float)).view(complex)


def _require_hermitian(h, dimension: int) -> None:
    shape = getattr(h, "shape", None)
    if shape != (dimension, dimension):
        raise ContractViolationError(
            f"Hamiltonian has shape {shape}, expected ({dimension}, {dimension})")
    if not abs(h - h.conj().T).max() <= HERMITIAN_TOL:
        raise ContractViolationError("Hamiltonian is not Hermitian")


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, real orthonormal eigenvectors as columns) of
    the real symmetric tridiagonal matrix of diagonal d and off-diagonal e.

    Up to DENSE_EIGH_LIMIT rows numpy's eigh solves the dense matrix, which
    loads no scipy; above it scipy.linalg.eigh_tridiagonal does, scipy
    imported on the first such call.  The choice depends on len(d) alone.
    """
    if len(d) > DENSE_EIGH_LIMIT:
        from scipy.linalg import eigh_tridiagonal as solve
        return solve(d, e)
    dense = np.diag(np.asarray(d, dtype=float))
    rows = np.arange(len(e))
    dense[rows + 1, rows] = e           # eigh reads the lower triangle
    return np.linalg.eigh(dense)


def _eigendecomposition(h) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix; a real matrix of
    bandwidth <= 1 goes to :func:`eigh_tridiagonal`, so its eigenvectors
    stay real."""
    import scipy.sparse as sp
    dim = h.shape[0]
    check_work(float(dim) * dim, EIG_WORK_LIMIT, "eigendecomposition dimension^2")
    m = sp.coo_matrix(h)
    if np.any((np.abs(m.row - m.col) > 1) & (m.data != 0)) or np.any(m.data.imag):
        return np.linalg.eigh(m.toarray())
    return eigh_tridiagonal(m.diagonal(0).real, m.diagonal(-1).real)


def tridiagonal_expm_apply(h, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i times[j] H) psi[:, j] for every column of a (dimension,
    columns) block, H a Hermitian matrix, through its eigendecomposition:
    one time per column.

    Both basis changes are :func:`_row_dots`, so, given the
    eigendecomposition, a column comes out with the same bits in a block of
    any width and at any BLAS thread count.  Any Hermitian H works.
    """
    _require_hermitian(h, psi.shape[0])
    w, v = _eigendecomposition(h)
    # psi + V (exp(-i t w) - 1) V^H psi, so a column with t = 0 comes back
    # unchanged; V^T and conj(V) are the rows the dot products run along
    c = np.expm1(-1j * np.outer(w, times)) * _row_dots(np.ascontiguousarray(v.T), psi)
    return psi + _row_dots(np.ascontiguousarray(v.conj()), c)


def _row_dots(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """conj(a) @ z for complex columns z, every entry one dot product of a
    row of the C-contiguous `a` with a contiguous copy of a column (of its
    real and imaginary parts apart when `a` is real).  OpenBLAS sums such a
    dot product in an order fixed by its length, on one thread below 10,000
    entries (EIG_WORK_LIMIT keeps the dimension at 5,000 or less); a matrix
    product's order also depends on the block width and the thread count."""
    if np.iscomplexobj(a):
        return np.vecdot(a[:, None], np.ascontiguousarray(z.T))
    parts = np.ascontiguousarray(np.stack([z.real.T, z.imag.T], axis=1))
    return np.ascontiguousarray(np.vecdot(a[:, None], parts.reshape(-1, z.shape[0]))
                                ).view(complex)
