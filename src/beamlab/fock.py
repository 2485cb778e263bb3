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

Any amplitude an operator would push above a truncation cutoff is dropped;
:func:`boundary_weight` reports the population sitting on the cutoff
boundary so simulations can verify the drop is negligible.

Evolution under exp(-iHt) uses an exact Hermitian eigendecomposition up to
dimension 2000 and a restarted short-iterate Lanczos propagator above.
hbar = 1 throughout: times are inverse energies in the caller's unit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ContractViolationError,
    IntegrationFailureError,
    ResourceLimitError,
    UnsupportedOperatorError,
)

DEFAULT_DIMENSION_LIMIT = 1_000_000
DENSE_EIG_LIMIT = 2000
HERMITIAN_TOL = 1e-12


def check_work(work, limit: float, what: str) -> None:
    """Raise ResourceLimitError unless `work` is within `limit`; callers check
    before they allocate anything.  An infinite count fails too."""
    if not work <= limit:
        shown = f"{work:.3g}" if work < 1e300 else "more than 1e300"
        raise ResourceLimitError(f"{what} {shown} exceeds the limit {limit:.3g}")


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
    def truncated(cls, cutoffs: Sequence[int],
                  max_dimension: int = DEFAULT_DIMENSION_LIMIT) -> "FockSpace":
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) == 0:
            raise ContractViolationError("a Fock space needs at least one mode")
        if any(c < 0 for c in cutoffs):
            raise ContractViolationError(f"cutoffs must be non-negative, got {cutoffs}")
        dim = 1
        for c in cutoffs:
            dim *= c + 1
            if dim > max_dimension:
                raise ResourceLimitError(
                    f"dimension {dim}+ exceeds the limit {max_dimension}")
        return cls("truncated", cutoffs, None, dim)

    @classmethod
    def fixed_sector(cls, n_total: int,
                     max_dimension: int = DEFAULT_DIMENSION_LIMIT) -> "FockSpace":
        n_total = int(n_total)
        if n_total < 0:
            raise ContractViolationError("total quantum number must be >= 0")
        if n_total + 1 > max_dimension:
            raise ResourceLimitError(
                f"dimension {n_total + 1} exceeds the limit {max_dimension}")
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


def make_space(spec) -> FockSpace:
    """Build a space from a plain mapping (config-file form).

    ``{"kind": "truncated", "cutoffs": [3, 3]}`` or
    ``{"kind": "fixed_sector", "n_total": 100}``.
    """
    if isinstance(spec, FockSpace):
        return spec
    kind = spec.get("kind")
    if kind == "truncated":
        return FockSpace.truncated(spec["cutoffs"],
                                   spec.get("max_dimension", DEFAULT_DIMENSION_LIMIT))
    if kind == "fixed_sector":
        return FockSpace.fixed_sector(spec["n_total"],
                                      spec.get("max_dimension", DEFAULT_DIMENSION_LIMIT))
    raise ContractViolationError(f"unknown space kind {kind!r}")


class StateVector:
    """Normalized complex amplitude vector over a space's basis.

    Immutable after construction: the amplitude array is copied and frozen.
    """

    def __init__(self, space: FockSpace, amplitudes: np.ndarray, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex, copy=True)
        if amps.shape != (space.dimension,):
            raise ContractViolationError(
                f"amplitude vector has shape {amps.shape}, expected ({space.dimension},)")
        nrm = np.linalg.norm(amps)
        if normalize:
            if nrm == 0.0:
                raise ContractViolationError("cannot normalize the zero vector")
            amps = amps / nrm
        elif abs(nrm - 1.0) > 1e-12:
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

    `tridiagonal` optionally carries (diag, offdiag) real vectors when the
    builder knows the matrix is real symmetric tridiagonal; evolution then
    uses the specialized eigensolver.
    """

    def __init__(self, space: FockSpace, matrix, hermitian: bool = False,
                 tridiagonal: tuple[np.ndarray, np.ndarray] | None = None,
                 _skip_check: bool = False):
        self.space = space
        self.matrix = matrix
        self.hermitian = hermitian
        self.tridiagonal = tridiagonal
        self._eig = None
        if hermitian and not _skip_check:
            if self.hermiticity_defect() > HERMITIAN_TOL:
                raise ContractViolationError("operator marked hermitian is not")

    def hermiticity_defect(self) -> float:
        d = self.matrix - _adjoint_matrix(self.matrix)
        if sp.issparse(d):
            return float(np.max(np.abs(d.data))) if d.nnz else 0.0
        return float(np.max(np.abs(d))) if d.size else 0.0

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def to_dense(self) -> np.ndarray:
        if sp.issparse(self.matrix):
            return np.asarray(self.matrix.todense(), dtype=complex)
        return np.asarray(self.matrix, dtype=complex)

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, _adjoint_matrix(self.matrix),
                              hermitian=self.hermitian, _skip_check=True)

    def is_hermitian_numerically(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermiticity_defect() <= tol

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
        op = LinearOperator(self.space, self.matrix, hermitian=True,
                            tridiagonal=self.tridiagonal)
        return op


def _adjoint_matrix(m):
    if sp.issparse(m):
        return m.conjugate().transpose().tocsr()
    return np.conjugate(np.asarray(m)).T


def ladder_operator(space: FockSpace, mode: int, kind: str) -> LinearOperator:
    """annihilate / create / number operator for one mode.

    annihilate: |..., n, ...> -> sqrt(n) |..., n-1, ...>; create is its exact
    adjoint, so raising off the top of the truncation drops the amplitude.
    On fixed-sector spaces only "number" is available.
    """
    if not 0 <= mode < space.mode_count:
        raise ContractViolationError(f"mode {mode} out of range")
    if kind not in ("annihilate", "create", "number"):
        raise ContractViolationError(f"unknown ladder kind {kind!r}")

    if space.kind == "fixed_sector":
        if kind != "number":
            raise UnsupportedOperatorError(
                "single ladder operators leave the fixed-total-number sector; "
                "use number operators or hopping_operator")
        diag = space.number_diagonal(mode)
        mat = sp.diags(diag.astype(complex), format="csr")
        return LinearOperator(space, mat, hermitian=True,
                              tridiagonal=(diag.copy(), np.zeros(space.dimension - 1)),
                              _skip_check=True)

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


def variance(state: StateVector, op: LinearOperator) -> float:
    """<O^2> - <O>^2 for Hermitian O, computed stably via the shifted vector."""
    if not op.hermitian:
        raise ContractViolationError("variance requires a Hermitian operator")
    mean = expectation(state, op).real
    shifted = op.apply(state.amplitudes) - mean * state.amplitudes
    return float(np.real(np.vdot(shifted, shifted)))


# -- evolution ---------------------------------------------------------------


def evolve_unitary(state: StateVector, hamiltonian: LinearOperator, t: float,
                   tol: float = 1e-10) -> StateVector:
    """Return exp(-i H t)|psi> (hbar = 1).

    Exact eigendecomposition up to dimension 2000 (specializing to the
    tridiagonal solver when the operator carries that structure), restarted
    Lanczos above.  `tol` bounds the accumulated Krylov truncation error.
    """
    if tol <= 0:
        raise ContractViolationError("tol must be positive")
    _require_hermitian(hamiltonian)
    if state.space != hamiltonian.space:
        raise ContractViolationError("state and Hamiltonian live on different spaces")
    psi = _expm_apply(hamiltonian, state.amplitudes, t, tol)
    return StateVector(state.space, psi)


def evolve_unitary_sampled(state: StateVector, hamiltonian: LinearOperator,
                           times: Iterable[float], tol: float = 1e-10) -> list[StateVector]:
    """States at the given (ascending, from 0) output times.

    With an eigendecomposition each output is computed directly from t=0
    (no step-to-step error accumulation); the Krylov path steps sequentially.
    """
    if tol <= 0:
        raise ContractViolationError("tol must be positive")
    _require_hermitian(hamiltonian)
    if state.space != hamiltonian.space:
        raise ContractViolationError("state and Hamiltonian live on different spaces")
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ContractViolationError("output times must be non-decreasing")
    dim = state.space.dimension
    out = []
    if dim <= DENSE_EIG_LIMIT:
        w, v = _eigendecomposition(hamiltonian)
        c0 = v.conj().T @ state.amplitudes
        for tt in times:
            psi = v @ (np.exp(-1j * w * tt) * c0)
            out.append(StateVector(state.space, psi))
        return out
    psi = state.amplitudes
    prev = 0.0
    budget = tol / max(len(times), 1)
    for tt in times:
        if tt != prev:
            psi = _lanczos_expm_apply(hamiltonian.matrix, psi, tt - prev, budget)
            prev = tt
        out.append(StateVector(state.space, psi.copy()))
    return out


def _require_hermitian(op: LinearOperator):
    if not op.hermitian:
        if op.is_hermitian_numerically():
            raise ContractViolationError(
                "Hamiltonian must be marked hermitian (use marked_hermitian())")
        raise ContractViolationError("Hamiltonian is not Hermitian")


def _eigendecomposition(op: LinearOperator):
    if op._eig is None:
        if op.tridiagonal is not None:
            d, e = op.tridiagonal
            w, v = eigh_tridiagonal(d, e)
            op._eig = (w, v.astype(complex))
        else:
            w, v = np.linalg.eigh(op.to_dense())
            op._eig = (w, v)
    return op._eig


def expm_apply(op: LinearOperator, vec: np.ndarray, t: float,
               tol: float = 1e-11) -> np.ndarray:
    """exp(-i t H) vec through the same dispatch as :func:`evolve_unitary`,
    without wrapping the result in a StateVector (hot-loop form)."""
    if op.space.dimension <= DENSE_EIG_LIMIT:
        w, v = _eigendecomposition(op)
        return v @ (np.exp(-1j * w * t) * (v.conj().T @ vec))
    return _lanczos_expm_apply(op.matrix, vec, t, tol)


_expm_apply = expm_apply


def tridiagonal_expm_apply(diag: np.ndarray, off: np.ndarray, vec: np.ndarray,
                           t: float, tol: float = 1e-11) -> np.ndarray:
    """exp(-i t H) vec for a real symmetric tridiagonal H given by its
    diagonals, via the Lanczos propagator with a slice-based matvec.

    This is the stepping kernel for self-consistent integrations, where H
    is rebuilt every substep and a full eigendecomposition would dominate
    the cost.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)

    def matvec(v):
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out

    return _lanczos_expm_apply(matvec, vec, t, tol)


def _lanczos_expm_apply(matrix, vec: np.ndarray, t: float, tol: float,
                        m_max: int = 40) -> np.ndarray:
    """Restarted Lanczos approximation of exp(-i t H) vec for Hermitian H.

    Short iterates with full reorthogonalization; each restart grows the
    basis only until the standard residual estimate meets the proportional
    error budget tol * dt / |t|, halving the substep if the maximum basis
    size is not enough.  Raises IntegrationFailureError when even a substep
    of 1e-15 |t| misses the budget.
    """
    if t == 0.0:
        return vec.copy()
    apply = matrix if callable(matrix) else matrix.__matmul__
    sign = 1.0 if t >= 0 else -1.0
    total = abs(float(t))
    remaining = total
    dt = remaining
    w = vec.astype(complex)
    n = len(w)
    m_cap = min(m_max, n)
    while remaining > 0.0:
        dt = min(dt, remaining)
        beta0 = np.linalg.norm(w)
        V = np.empty((n, m_cap + 1), dtype=complex)
        alphas = np.zeros(m_cap)
        betas = np.zeros(m_cap + 1)
        V[:, 0] = w / beta0
        m_eff = 0
        invariant = False
        y = None
        for j in range(m_cap):
            q = apply(V[:, j])
            a = np.real(np.vdot(V[:, j], q))
            q -= a * V[:, j]
            if j > 0:
                q -= betas[j] * V[:, j - 1]
            # full reorthogonalization keeps the small problem faithful
            q -= V[:, :j + 1] @ (V[:, :j + 1].conj().T @ q)
            b = np.linalg.norm(q)
            alphas[j] = a
            betas[j + 1] = b
            m_eff = j + 1
            if b < 1e-14 * max(1.0, abs(a)):
                invariant = True
                break
            V[:, j + 1] = q / b
            if j >= 1:
                ew, ev = eigh_tridiagonal(alphas[:m_eff], betas[1:m_eff])
                y = ev @ (np.exp(-1j * sign * dt * ew) * ev[0, :])
                if betas[m_eff] * abs(y[-1]) * dt <= tol * dt / total:
                    break
        if invariant:
            dt = remaining
            ew, ev = eigh_tridiagonal(alphas[:m_eff], betas[1:m_eff])
            y = ev @ (np.exp(-1j * sign * dt * ew) * ev[0, :])
        else:
            while True:
                ew, ev = eigh_tridiagonal(alphas[:m_eff], betas[1:m_eff])
                y = ev @ (np.exp(-1j * sign * dt * ew) * ev[0, :])
                err = betas[m_eff] * abs(y[-1]) * dt
                if err <= tol * dt / total:
                    break
                if dt <= 1e-15 * total:
                    raise IntegrationFailureError(
                        f"Lanczos step error {err:.2e} above the budget "
                        f"{tol * dt / total:.2e} at the smallest substep {dt:.2e}")
                dt *= 0.5
        w = V[:, :m_eff] @ (beta0 * y)
        remaining -= dt
        if remaining > 0.0:
            dt = min(dt * 2.0, remaining)
    return w
