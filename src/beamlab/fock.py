"""Bosonic Fock spaces, ladder operators, and exact unitary evolution.

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

Evolution under a fixed Hamiltonian (:func:`evolve_unitary_sampled`)
uses one exact Hermitian eigendecomposition, cached on the operator, and
batched propagation to the output times, a block of OUTPUT_CHUNK_WORK
entries at a time (:func:`propagate`, which the exact junction model also
runs on its own tridiagonal arrays).  :func:`tridiagonal_expm_apply`
turns every column of a block through its own time, by dot products of
contiguous rows that give a column the same bits in any block and at any
BLAS thread count; nothing in beamlab calls it, but the benchmark's span
list wraps it by name.
hbar = 1 throughout: times are inverse energies in the caller's unit.

scipy is imported where a sparse matrix is built, and where a tridiagonal
eigensolve has more than DENSE_EIGH_LIMIT rows, not when this module
loads; so the beam subcommands and both junction models up to that size
never load it.
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
# cheaper (0.3 s at 2,000 rows, where the dense solve takes 0.8 s).
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

    def occupation_of(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index (inverse of :meth:`index_of`)."""
        if not 0 <= index < self.dimension:
            raise ContractViolationError(f"basis index {index} out of range")
        if self.kind == "fixed_sector":
            return (index, self.n_total - index)
        occ = []
        rem = index
        for s, c in zip(self._strides(), self.cutoffs):
            n, rem = divmod(rem, s)
            occ.append(n)
        return tuple(occ)

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.space != other.space:
            raise ContractViolationError("overlap of states on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

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


class LinearOperator:
    """Square operator on a space, stored dense or sparse.

    Its structure is read from the matrix: :attr:`tridiagonal` is set for
    a real matrix of bandwidth <= 1, and evolution then uses the
    tridiagonal eigensolver, whichever way the operator was built.
    """

    def __init__(self, space: FockSpace, matrix, hermitian: bool = False,
                 _skip_check: bool = False):
        self.space = space
        self.matrix = matrix
        self.hermitian = hermitian
        self._eig = None
        self._rows = None
        if hermitian and not _skip_check:
            if self.hermiticity_defect() > HERMITIAN_TOL:
                raise ContractViolationError("operator marked hermitian is not")

    def hermiticity_defect(self) -> float:
        import scipy.sparse as sp
        d = self.matrix - _adjoint_matrix(self.matrix)
        if sp.issparse(d):
            return float(np.max(np.abs(d.data))) if d.nnz else 0.0
        return float(np.max(np.abs(d))) if d.size else 0.0

    @property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(diagonal, lower off-diagonal) as real vectors when the matrix is
        real with bandwidth <= 1, else None."""
        import scipy.sparse as sp
        m = sp.coo_matrix(self.matrix)
        if np.any((np.abs(m.row - m.col) > 1) & (m.data != 0)) or np.any(m.data.imag):
            return None
        return m.diagonal(0).real, m.diagonal(-1).real

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def to_dense(self) -> np.ndarray:
        import scipy.sparse as sp
        if sp.issparse(self.matrix):
            return np.asarray(self.matrix.todense(), dtype=complex)
        return np.asarray(self.matrix, dtype=complex)

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, _adjoint_matrix(self.matrix),
                              hermitian=self.hermitian, _skip_check=True)

    def is_hermitian_numerically(self) -> bool:
        return self.hermiticity_defect() <= HERMITIAN_TOL

    def _binary(self, other, f):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        if self.space != other.space:
            raise ContractViolationError("operators live on different spaces")
        return LinearOperator(self.space, f(self.matrix, other.matrix))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __matmul__(self, other):
        return self._binary(other, lambda a, b: a @ b)

    def __mul__(self, scalar):
        return LinearOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def marked_hermitian(self) -> "LinearOperator":
        """Same matrix, with the hermitian contract asserted and flagged."""
        return LinearOperator(self.space, self.matrix, hermitian=True)


def _adjoint_matrix(m):
    import scipy.sparse as sp
    if sp.issparse(m):
        return m.conjugate().transpose().tocsr()
    return np.conjugate(np.asarray(m)).T


def ladder_operator(space: FockSpace, mode: int, kind: str) -> LinearOperator:
    """annihilate / create / number operator for one mode.

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
            "use number operators or hopping_operator")
    if kind == "number":
        diag = space.number_diagonal(mode)
        return LinearOperator(space, sp.diags(diag.astype(complex), format="csr"),
                              hermitian=True, _skip_check=True)

    occ_m = space.number_diagonal(mode).astype(int)
    stride = space._strides()[mode]
    src = np.nonzero(occ_m > 0)[0]           # columns with n_m >= 1
    dst = src - stride                       # n_m -> n_m - 1
    amp = np.sqrt(occ_m[src]).astype(complex)
    lower = sp.csr_matrix((amp, (dst, src)),
                          shape=(space.dimension, space.dimension))
    if kind == "annihilate":
        return LinearOperator(space, lower)
    return LinearOperator(space, _adjoint_matrix(lower))


def hopping_operator(space: FockSpace, dest: int, source: int) -> LinearOperator:
    """The pair product (create on `dest`) @ (annihilate on `source`).

    Available on both space kinds; on a fixed sector it is the only
    off-diagonal primitive (it conserves the total quantum number).
    """
    import scipy.sparse as sp
    if dest == source:
        return ladder_operator(space, dest, "number")
    if space.kind == "fixed_sector":
        if {dest, source} != {0, 1}:
            raise ContractViolationError("sector spaces have modes 0 and 1 only")
        k = np.arange(space.n_total, dtype=float)      # transition k <-> k+1
        amp = np.sqrt((k + 1.0) * (space.n_total - k))
        offset = 1 if dest == 0 else -1                # dest 0 raises n_1 = k
        mat = sp.diags(amp.astype(complex), -offset, shape=(space.dimension,) * 2,
                       format="csr")
        return LinearOperator(space, mat)
    create = ladder_operator(space, dest, "create")
    annihilate = ladder_operator(space, source, "annihilate")
    return create @ annihilate


def expectation(state: StateVector, op: LinearOperator) -> complex:
    """<psi| O |psi>. Imaginary part is within 1e-12 for Hermitian O."""
    if state.space != op.space:
        raise ContractViolationError("state and operator live on different spaces")
    val = complex(np.vdot(state.amplitudes, op.apply(state.amplitudes)))
    return val


# -- evolution ---------------------------------------------------------------


def evolve_unitary_sampled(state: StateVector, hamiltonian: LinearOperator,
                           times: Iterable[float]) -> list[StateVector]:
    """States exp(-i H t)|psi> at the given non-decreasing, finite times.

    Every output comes from t = 0 through the eigendecomposition of H, the
    outputs of a :func:`propagate` block in one matrix product, so no error
    accumulates from step to step.  Raises ResourceLimitError when
    dimension^2 exceeds EIG_WORK_LIMIT.
    """
    _require_hermitian(hamiltonian)
    if state.space != hamiltonian.space:
        raise ContractViolationError("state and Hamiltonian live on different spaces")
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


def _require_hermitian(op: LinearOperator):
    if not op.hermitian:
        if op.is_hermitian_numerically():
            raise ContractViolationError(
                "Hamiltonian must be marked hermitian (use marked_hermitian())")
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


def _eigendecomposition(op: LinearOperator):
    """(eigenvalues, eigenvectors) of a Hermitian operator, cached on it;
    the eigenvectors of a real tridiagonal matrix stay real."""
    if op._eig is None:
        dim = op.space.dimension
        check_work(float(dim) * dim, EIG_WORK_LIMIT, "eigendecomposition dimension^2")
        tri = op.tridiagonal
        op._eig = eigh_tridiagonal(*tri) if tri is not None else np.linalg.eigh(op.to_dense())
    return op._eig


def tridiagonal_expm_apply(op: LinearOperator, psi: np.ndarray,
                           times: np.ndarray) -> np.ndarray:
    """exp(-i times[j] H) psi[:, j] for every column of a (dimension,
    columns) block, H the Hermitian `op`, through its cached
    eigendecomposition: one time per column.

    Both basis changes are :func:`_row_dots`, so, given the
    eigendecomposition, a column comes out with the same bits in a block of
    any width and at any BLAS thread count.  Any Hermitian H works.  Nothing
    in beamlab calls it; it stays because the benchmark's span list
    (perfbench/spans.py) wraps this kernel by name.
    """
    _require_hermitian(op)
    w, v = _eigendecomposition(op)
    if op._rows is None:        # V^T and conj(V): the rows the dot products run along
        op._rows = np.ascontiguousarray(v.T), np.ascontiguousarray(v.conj())
    columns, rows = op._rows
    # psi + V (exp(-i t w) - 1) V^H psi, so a column with t = 0 comes back
    # unchanged
    c = np.expm1(-1j * np.outer(w, times)) * _row_dots(columns, psi)
    return psi + _row_dots(rows, c)


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
