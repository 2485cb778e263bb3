"""Time evolution of the junction models and the classical pendulum.

Three dynamical models run from matched initial data:

* exact unitary evolution under the quadratic-charging Hamiltonian,
* the self-consistent (state-dependent) flow, which is linear in the SU(2)
  generators and so reduces exactly to one rotation of the state driven
  by its Bloch vector (the (z, phi) equations of the bosonic junction):
  a classical spin, integrated by a sixth-order composition of exact
  rotations, whose outputs are read from the Bloch vector without
  building a state,
* the classical pendulum  phidd = -omega^2 sin(phi), in closed form.

Conventions (frozen):

* The trajectory phase is the estimator phi := arg <a1+ a2>, unwrapped by
  continuity and undefined (NaN) where |<a1+ a2>| <= jj.COHERENCE_FLOOR
  (1e-12).  On a product configuration with construction label theta the
  estimator reads -theta.
* The self-consistent flow obeys  d(phi)/dt = E_C (n1 - nbar1)  up to an
  O(lam/N) correction, and its linearization about the phase-locked
  configuration (label pi for lam > 0) oscillates at
  sqrt((E_C + 2|lam|/N) * E_J), a factor ~sqrt(2) below the quadratic
  model's plasma constant sqrt(2 E_C E_J).  Pendulum comparisons therefore
  run the pendulum at the matched frequency and in displacement
  coordinates (phase relative to the locked configuration).
* The conserved quantity reported per model: <H> for the exact run,
  lam Re<a1+ a2> + (E_C/2)(<n1> - nbar1)^2 for the self-consistent flow,
  phidot^2/2 - omega^2 cos(phi) for the pendulum.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fock, jj
from .errors import (
    ContractViolationError,
    DomainError,
    FitError,
    IntegrationFailureError,
)

NORM_DRIFT_TOL = 1e-9
FIDELITY_TOL = 1e-6

# Work budgets, checked before a run allocates anything.  A pendulum output
# keeps about eight float64 entries (64 bytes).  The exact model holds
# one eigendecomposition of its window, at most (N + 1)^2 <=
# fock.EIG_WORK_LIMIT entries; both quantum models measure
# their outputs in blocks of fock.OUTPUT_CHUNK_WORK (2^16) states x
# dimension, 1 MB, and keep a few numbers per output, so the output budget
# bounds their run time rather than their memory.
STEP_LIMIT = 10_000_000
OUTPUT_WORK_LIMIT = 10_000_000
# The exact model's number window: the rows whose initial weight exceeds
# WINDOW_FLOOR, and WINDOW_MARGIN rows more on each side.  A run whose
# weight on the EDGE_ROWS rows of an inner edge exceeds WINDOW_FLOOR at
# an output is rerun on the whole sector.
WINDOW_FLOOR = 1e-32
WINDOW_MARGIN = 16
EDGE_ROWS = 4


def _output_times(horizon: float, dt: float, per_output: int = 1,
                 what: str = "outputs") -> np.ndarray:
    """The output grid t_i = i horizon / n, n = round(horizon / dt) and at
    least 1, of every junction model; [0] at horizon = 0, and one output,
    at the horizon, for dt = inf.  Refused when outputs x per_output exceed
    OUTPUT_WORK_LIMIT."""
    if not 0 <= horizon < math.inf:
        raise ContractViolationError(f"horizon must be finite and >= 0, not {horizon!r}")
    if not dt > 0:
        raise ContractViolationError(f"dt must be > 0, not {dt!r}")
    if horizon == 0:
        return np.zeros(1)
    fock.check_work(horizon / dt * per_output, OUTPUT_WORK_LIMIT, what)
    n = max(int(round(horizon / dt)), 1)
    return np.arange(n + 1) * horizon / n


def _junction_rate(params: jj.JJParams) -> float:
    """The self-consistent flow's time scale, its matched frequency or the
    tunneling rate; DomainError where it overflows."""
    with np.errstate(over="ignore"):
        rate = max(meanfield_matched_omega(params), abs(params.lam), 1e-12)
    if not math.isfinite(rate):
        raise DomainError(f"e_c = {params.e_c!r} and lam = {params.lam!r} make the "
                          "junction rate infinite")
    return rate


@dataclass
class Trajectory:
    """Time series produced by one dynamical model.

    `phi` is the unwrapped coherence phase (NaN where undefined); `energy`
    is the model-specific conserved quantity; `fidelity` (self-consistent
    and exact runs) is the squared overlap with the moment-matched product
    configuration; `phidot` is carried by pendulum runs.
    """

    times: np.ndarray
    n1: np.ndarray
    phi: np.ndarray
    norm_drift: np.ndarray
    energy: np.ndarray
    fidelity: np.ndarray | None = None
    phidot: np.ndarray | None = None

    def __post_init__(self):
        for name in ("times", "n1", "phi", "norm_drift", "energy", "fidelity",
                     "phidot"):
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        arrays = [a for a in (self.n1, self.phi, self.norm_drift, self.energy,
                              self.fidelity, self.phidot) if a is not None]
        if any(len(a) != len(self.times) for a in arrays):
            raise ContractViolationError("trajectory arrays must share one length")
        if np.any(np.diff(self.times) <= 0):
            raise ContractViolationError("trajectory times must be strictly increasing")

    def rows(self) -> list[dict]:
        """Report rows: the shared columns, then `fidelity` and/or `phidot`
        where the model carries them."""
        return _rows({"time": self.times, "n1": self.n1, "phi": self.phi,
                      "norm_drift": self.norm_drift, "energy": self.energy,
                      "fidelity": self.fidelity, "phidot": self.phidot})


def _rows(columns: dict) -> list[dict]:
    """One report row per index of the equal-length `columns` {name: values},
    leaving out a None column; a NaN stays, for the report to write as a
    missing value."""
    lists = {name: np.asarray(values, dtype=float).tolist()
             for name, values in columns.items() if values is not None}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


def _unwrap_keeping_nans(raw: np.ndarray) -> np.ndarray:
    out = np.asarray(raw, dtype=float).copy()
    finite = np.isfinite(out)
    out[finite] = np.unwrap(out[finite])
    return out


def _trajectory(blocks) -> Trajectory:
    """Trajectory of (times, n1, <a1+ a2>, norm drift, energy, fidelity)
    blocks; phi = arg <a1+ a2> is unwrapped once, over the whole run."""
    times, n1, z, drift, energy, fid = map(np.concatenate, zip(*blocks))
    phi = np.where(np.abs(z) > jj.COHERENCE_FLOOR, np.angle(z), np.nan)
    return Trajectory(times=times, n1=n1, phi=_unwrap_keeping_nans(phi),
                      norm_drift=drift, energy=energy, fidelity=fid)


def meanfield_matched_omega(params: jj.JJParams) -> float:
    """Linearized frequency of the self-consistent flow about its
    phase-locked configuration; exact at nbar1 = N/2 (elsewhere the locked
    point shifts by O(lam/E_C) and this is the leading estimate)."""
    e_j = abs(jj.derived_constants(params).e_j)
    return float(np.sqrt((params.e_c + 2.0 * abs(params.lam) / params.n_total) * e_j))


def locked_phase_label(params: jj.JJParams) -> float:
    """Construction label of the phase-locked product configuration."""
    return float(np.pi) if params.lam > 0 else 0.0


def displacement_from_locked(phi_estimator: np.ndarray, params: jj.JJParams
                             ) -> np.ndarray:
    """Phase relative to the locked configuration, wrapped point-wise into
    (-pi, pi] and then unwrapped along the trajectory."""
    anchor = -locked_phase_label(params)
    raw = np.asarray(phi_estimator, dtype=float) - anchor
    wrapped = np.where(np.isfinite(raw),
                       np.mod(raw + np.pi, 2.0 * np.pi) - np.pi, np.nan)
    return _unwrap_keeping_nans(wrapped)


# 6th-order Yoshida composition (solution A) of a symmetric second-order step,
# the self-consistent flow's Strang rotation.  It stays symplectic, so the
# energy error stays bounded instead of drifting.
_W1 = -1.17767998417887
_W2 = 0.235573213359357
_W3 = 0.784513610477560
_W0 = 1.0 - 2.0 * (_W1 + _W2 + _W3)
_YOSHIDA6 = (_W3, _W2, _W1, _W0, _W1, _W2, _W3)


# -- self-consistent evolution -------------------------------------------------


def evolve_meanfield(initial: fock.StateVector, params: jj.JJParams, horizon: float,
                     dt: float) -> Trajectory:
    """Integrate the state-dependent flow i d|psi>/dt = H[psi]|psi> and
    report it on the output grid of spacing about `dt` (`_output_times`).

    Up to a constant H[psi] = E_C (<Jz> + N/2 - nbar1) Jz + lam Jx, with
    Jz = n1 - N/2: one SU(2) rotation U(t) driven by the Bloch vector
    (`_meanfield_rotations`), from which every column is read, so no state
    is built after t = 0.  The run picks its own step: each output spacing
    is cut into the fewest equal steps of at most about 0.01 / rate
    (`_junction_rate`) and of at most 1 / (the largest charging field
    E_C |n1 - nbar1| that the conserved energy allows), so that no step
    turns the Bloch vector about z by more than 1 rad; `dt` sets the
    outputs and not the accuracy.
    norm_drift is the SU(2) defect of U; the fidelity, measured on the
    initial vector against the product state fitted to the back-rotated
    moments, is lost when U and the Bloch vector drift apart.
    OUTPUT_WORK_LIMIT bounds outputs x (N + 1), and STEP_LIMIT the steps.
    Raises IntegrationFailureError when the initial state is off the
    product family, or when the run's norm drift or product fidelity
    misses NORM_DRIFT_TOL or FIDELITY_TOL.
    """
    space = initial.space
    times = _output_times(horizon, dt, space.dimension, "outputs x dimension")
    if space.kind != "fixed_sector" or space.n_total != params.n_total:
        raise ContractViolationError("initial state must live on the parameter sector")
    n_out = max(len(times) - 1, 1)
    spacing = horizon / n_out
    # (E_C/2)(n1 - nbar1)^2 = energy - lam Re zeta <= energy0 + |lam| N/2
    energy0 = (params.lam * jj.coherence(initial).real
               + 0.5 * params.e_c * (jj.mean_n1(initial) - params.n_bar1) ** 2)
    field = math.sqrt(max(2.0 * params.e_c * (energy0 + 0.5 * abs(params.lam)
                                              * params.n_total), 0.0))
    stride = max(np.rint(spacing / (0.01 / _junction_rate(params))),
                 np.ceil(spacing * field), 1.0)
    fock.check_work(n_out * stride, STEP_LIMIT, "steps")
    fid0 = jj.best_fit_product(initial)[2]
    if fid0 < 1.0 - FIDELITY_TOL:
        raise IntegrationFailureError(
            f"initial product fidelity {fid0} is below 1 - {FIDELITY_TOL}")
    rotations = _meanfield_rotations(initial, params, horizon / (n_out * stride),
                                     len(times) - 1, int(stride))
    half, width = 0.5 * params.n_total, max(fock.OUTPUT_CHUNK_WORK // space.dimension, 1)
    blocks = []         # the rotations are drawn a block of outputs at a time
    for start in range(0, len(times), width):
        rot = np.fromiter(itertools.islice(rotations, width), dtype=[
            ("u", complex), ("v", complex), ("zeta", complex), ("jz", float)])
        u, v, zeta, jz = rot["u"], rot["v"], rot["zeta"], rot["jz"]
        uu, vv, n1 = np.abs(u) ** 2, np.abs(v) ** 2, jz + half
        # U^+ (m.sigma) U: the moments at t = 0 of the product state fitted at t
        zeta0 = u * u * zeta - v * v * np.conj(zeta) - 2.0 * u * v * jz
        jz0 = jz * (uu - vv) + 2.0 * np.real(np.conj(u) * v * np.conj(zeta))
        blocks.append((times[start:start + width], n1, zeta, np.abs(uu + vv - 1.0),
                       params.lam * zeta.real + 0.5 * params.e_c * (n1 - params.n_bar1) ** 2,
                       jj.product_fit(initial.amplitudes[:, None], jz0 + half, zeta0)[2]))
    traj = _trajectory(blocks)
    drift, fid = np.max(traj.norm_drift), np.min(traj.fidelity)
    if not (drift <= NORM_DRIFT_TOL and fid >= 1.0 - FIDELITY_TOL):
        raise IntegrationFailureError(
            f"invariants unmet (norm drift {drift:.2e}, min fidelity {fid})")
    return traj


def _meanfield_rotations(initial, params, step, n_out, stride):
    """Yield (u, v, zeta, jz) at t = 0 and after every `stride` steps, n_out
    times: (u, v) is the first column of the SU(2) matrix U(t) of the
    rotation since t = 0, and (Re zeta, Im zeta, jz), zeta = <a1+ a2>, the
    Bloch vector it turns the initial one into, which obeys
    d<J>/dt = B x <J> with B = (lam, 0, E_C (jz + N/2 - nbar1)).  A Strang
    step Rz(h/2) Rx(h) Rz(h/2) is exact, as jz stands still while z turns,
    and the _YOSHIDA6 weights compose it to sixth order; the two z-turns
    that meet between x-turns are merged.
    """
    zeta, jz = jj.coherence(initial), jj.mean_n1(initial) - 0.5 * params.n_total
    shift = 0.5 * params.n_total - params.n_bar1
    z_angles = [0.5 * (a + b) * step * params.e_c
                for a, b in zip((0.0,) + _YOSHIDA6, _YOSHIDA6 + (0.0,))]
    x_turns = [(math.cos(h), math.sin(h), math.cos(2.0 * h), math.sin(2.0 * h))
               for h in (0.5 * w * step * params.lam for w in _YOSHIDA6)]
    x_turns.append((1.0, 0.0, 1.0, 0.0))    # none after the last z-turn
    u, v = 1.0 + 0.0j, 0.0j
    yield u, v, zeta, jz
    for _ in range(n_out):
        for _ in range(stride):
            for z_angle, (ch, sh, c, sn) in zip(z_angles, x_turns):
                e = cmath.exp(0.5j * z_angle * (jz + shift))    # half angle
                u, v, zeta = u * e.conjugate(), v * e, zeta * (e * e)
                u, v = ch * u - 1j * sh * v, ch * v - 1j * sh * u
                zeta, jz = complex(zeta.real, c * zeta.imag - sn * jz), sn * zeta.imag + c * jz
        yield u, v, zeta, jz


# -- exact evolution -----------------------------------------------------------


def _measured(chunks, d, e, n_total, first=0):
    """Trajectory of (times, psi) chunks: psi is a block of states on the
    rows k = first, first + 1, ... of the N = `n_total` sector, one state
    per column, every column measured as it is given, its norm drift its
    own |norm - 1| and its energy <H> for the tridiagonal H of diagonal d
    and off-diagonal e on those rows.  A column whose norm misses 1 by
    more than 1e-12 raises ContractViolationError.  Returns None, at the
    first such output, when a window's inner edge (EDGE_ROWS rows next to
    a row of the sector outside it) holds more weight than WINDOW_FLOOR.
    """
    blocks = []
    d, e = d[:, None], e[:, None]
    for t, psi in chunks:
        norm, n1, z = jj.sector_moments(psi, n_total, first)
        drift = np.abs(norm - 1.0)
        if not np.all(drift <= 1e-12):
            raise ContractViolationError(
                f"state norm deviates from 1 by {np.max(drift)!r} > 1e-12")
        edges = [psi[:EDGE_ROWS]] if first > 0 else []
        if first + len(psi) <= n_total:
            edges.append(psi[-EDGE_ROWS:])
        if any(np.max(np.sum(np.abs(edge) ** 2, axis=0)) > WINDOW_FLOOR for edge in edges):
            return None
        h_psi = d * psi             # the three-term product H psi
        h_psi[1:] += e * psi[:-1]
        h_psi[:-1] += e * psi[1:]
        energy = np.sum(np.conj(psi) * h_psi, axis=0).real
        blocks.append((t, n1, z, drift, energy,
                       jj.product_fit(psi, n1, z, n_total, first)[2]))
    return _trajectory(blocks)


def evolve_exact(initial: fock.StateVector, params: jj.JJParams, horizon: float,
                 dt_out: float) -> Trajectory:
    """Exact quadratic-charging evolution on the output grid of spacing
    about `dt_out` (`_output_times`).

    The run takes the rows whose initial weight exceeds WINDOW_FLOOR,
    WINDOW_MARGIN more rows on each side, and evolves the state on that
    number window, through the eigenpairs of the tridiagonal Hamiltonian
    restricted to it (`fock.eigh_tridiagonal`).  Should the weight on
    either inner edge of the window exceed WINDOW_FLOOR at an output, it
    drops that run and evolves the whole sector instead.  Both budgets,
    fock.EIG_WORK_LIMIT on (N + 1)^2 and OUTPUT_WORK_LIMIT on outputs x
    (N + 1), are checked first, for the whole sector.
    """
    space = initial.space
    times = _output_times(horizon, dt_out, space.dimension, "outputs x dimension")
    if space.kind != "fixed_sector" or space.n_total != params.n_total:
        raise ContractViolationError(
            f"initial state must live on the fixed sector with N = {params.n_total}")
    dim = space.dimension
    fock.check_work(float(dim) * dim, fock.EIG_WORK_LIMIT,
                    "eigendecomposition dimension^2")
    d = jj.charging_diagonal(params)
    e = jj.tunneling_offdiagonal(params.n_total, params.lam)
    psi0 = initial.amplitudes
    support = np.flatnonzero(np.abs(psi0) ** 2 > WINDOW_FLOOR)
    window = (max(int(support[0]) - WINDOW_MARGIN, 0),
              min(int(support[-1]) + 1 + WINDOW_MARGIN, dim))
    for lo, hi in dict.fromkeys([window, (0, dim)]):     # the whole sector once at most
        pairs = fock.eigh_tridiagonal(d[lo:hi], e[lo:hi - 1])
        traj = _measured(fock.propagate(*pairs, psi0[lo:hi], times),
                         d[lo:hi], e[lo:hi - 1], params.n_total, lo)
        if traj is not None:
            return traj


# -- classical pendulum --------------------------------------------------------


def _agm(m: float) -> tuple[list[float], list[float]]:
    """The arithmetic-geometric-mean ladder of parameter 0 <= m < 1
    (A&S 17.6): a_n, and c_n = c_{n-1}^2 / (4 a_n) = (a_{n-1} - b_{n-1}) / 2,
    down to c_n <= 1e-15 a_n."""
    a, b, c = [1.0], math.sqrt(1.0 - m), [math.sqrt(m)]
    while c[-1] > 1e-15 * a[-1]:
        a, b = a + [0.5 * (a[-1] + b)], math.sqrt(a[-1] * b)
        c.append(c[-1] ** 2 / (4.0 * a[-1]))
    return a, c


def _jacobi_am(u: np.ndarray, m: float) -> np.ndarray:
    """Jacobi amplitude am(u | m), by the backward recurrence of A&S 16.4."""
    if m == 1.0:        # the Gudermannian, atan(sinh u)
        return 2.0 * np.arctan(np.tanh(0.5 * u))
    a, c = _agm(m)
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for an, cn in zip(a[:0:-1], c[:0:-1]):
        phi = 0.5 * (phi + np.arcsin(cn / an * np.sin(phi)))
    return phi


def _elliptic_f(x, m: float):
    """F(x | m), the inverse of am, by descending Landen steps (A&S 17.5):
    x <- 2x - atan2((a - b) sin x cos x, a cos^2 x + b sin^2 x), written in
    the next rung's a and c, which keeps it continuous for every real x."""
    if m == 1.0:        # its inverse, atanh(sin x) for |x| <= pi/2
        return np.arcsinh(np.tan(x))
    a, c = _agm(m)
    for an, cn in zip(a[1:], c[1:]):
        x = 2.0 * x - np.arctan2(cn * np.sin(2.0 * x), an + cn * np.cos(2.0 * x))
    return x / (2.0 ** (len(a) - 1) * a[-1])


def pendulum_trajectory(phi0: float, phidot0: float, omega: float, horizon: float,
                        dt: float, e_c: float | None = None,
                        n_bar1: float | None = None) -> Trajectory:
    """The pendulum phidd = -omega^2 sin(phi) in closed form on the output
    grid of spacing about `dt` (`_output_times`), row 0 being (phi0, phidot0).

    With w = |omega|, p = phi0 mod 2 pi and the conserved q =
    hypot(w sin(p/2), phidot0/2), a libration (0 < q < w) is sin(phi/2) =
    (q/w) sn(w t + u0 | (q/w)^2); every other motion (rotation, separatrix,
    rest, omega = 0) is phi/2 = am(sign(phidot0) q t + F(p/2 | m) | m),
    m = (w/q)^2 (0 at q = 0).

    When `e_c` and `n_bar1` are supplied, n(t) is reconstructed from the
    phase-velocity relation n = nbar1 + phidot / E_C (constant n for
    E_C = 0, where the relation is degenerate); otherwise n1 is NaN.
    """
    times = _output_times(horizon, dt)
    if not math.isfinite(0.5 * phidot0 * phidot0 + omega * omega):
        raise DomainError(f"omega = {omega!r} and phidot0 = {phidot0!r} put the "
                          "pendulum energy beyond the float range")
    w, turns = abs(omega), 2.0 * math.pi * round(phi0 / (2.0 * math.pi))
    p = phi0 - turns
    q = math.hypot(w * math.sin(0.5 * p), 0.5 * phidot0)
    if 0 < q < w:
        m = (q / w) ** 2
        am = _jacobi_am(w * times + _elliptic_f(
            math.atan2(math.sin(0.5 * p), 0.5 * phidot0 / w), m), m)
        phi = 2.0 * np.arcsin(np.clip(q / w * np.sin(am), -1.0, 1.0))
        phidot = 2.0 * q * np.cos(am)
    else:
        m, s = (w / q) ** 2 if q else 0.0, float(np.sign(phidot0))
        am = _jacobi_am(s * q * times + _elliptic_f(0.5 * p, m), m)
        phi = 2.0 * am
        # sqrt(1 - m sin^2 am), without its cancellation near the separatrix
        phidot = 2.0 * s * q * np.hypot(np.cos(am), math.sqrt(1.0 - m) * np.sin(am))
    phi += turns
    phi[0], phidot[0] = phi0, phidot0
    energy = 0.5 * phidot ** 2 - omega ** 2 * np.cos(phi)
    if e_c is not None and n_bar1 is not None:
        n1 = n_bar1 + phidot / e_c if e_c > 0 else np.full(len(times), float(n_bar1))
    else:
        n1 = np.full(len(times), np.nan)
    return Trajectory(times=times, n1=n1, phi=phi, norm_drift=np.zeros(len(times)),
                      energy=energy, phidot=phidot)


# -- fluctuation scaling -------------------------------------------------------


@dataclass(frozen=True)
class FluctuationReport:
    """Number variance and overlap phase width across background sizes, with
    fitted log-log exponents (number, phase)."""

    n_bar1_values: tuple[float, ...]
    number_variance: tuple[float, ...]
    phase_width: tuple[float, ...]
    fitted_exponents: tuple[float, float]

    def __post_init__(self):
        n = len(self.n_bar1_values)
        if len(self.number_variance) != n or len(self.phase_width) != n:
            raise ContractViolationError("fluctuation lists must align")
        if any(v <= 0 for v in self.number_variance + self.phase_width):
            raise ContractViolationError("fluctuation entries must be positive")

    def rows(self) -> list[dict]:
        return _rows({"n_bar1": self.n_bar1_values,
                      "number_variance": self.number_variance,
                      "phase_width": self.phase_width})


def _overlap_magnitude(probs: np.ndarray, delta: float) -> float:
    k = np.arange(len(probs))
    return abs(np.sum(probs * np.exp(1j * k * delta)))


def phase_half_width(state: fock.StateVector) -> float:
    """Phase offset at which |<n,phi | n,phi+delta>| drops to 1/2, solved by
    bisection on the exact amplitude sum."""
    probs = state.probabilities()
    if _overlap_magnitude(probs, math.pi) > 0.5:
        raise DomainError("overlap never drops to 1/2")
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _overlap_magnitude(probs, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def number_moments(state: fock.StateVector) -> tuple[float, float]:
    """(mean, variance) of n1 on a sector state, with compensated sums so the
    binomial identities hold to ~1e-12 even at N of a few thousand."""
    probs = state.probabilities()
    k = np.arange(len(probs), dtype=float)
    mean = math.fsum(k * probs)
    var = math.fsum((k - mean) ** 2 * probs)
    return mean, var


def fluctuation_scan(params_list: list[jj.JJParams], phi: float = 0.0
                     ) -> FluctuationReport:
    """Var(n1) and phase half-width of the product configuration per params,
    plus log-log slopes versus nbar1.

    At fixed filling p = nbar1/N the expected exponents are +1 (variance)
    and -1/2 (phase width).
    """
    if len(params_list) < 3:
        raise FitError("fluctuation fit needs at least 3 scan points")
    if len({params.n_bar1 for params in params_list}) < 2:
        raise FitError("fluctuation fit needs at least 2 distinct n_bar1 values")
    nb, variances, widths = [], [], []
    for params in params_list:
        space = jj.sector_space(params)
        state = jj.product_state(params.n_total, params.n_bar1, phi, space)
        _, var = number_moments(state)
        nb.append(float(params.n_bar1))
        variances.append(var)
        widths.append(phase_half_width(state))
    slope_num = float(np.polyfit(np.log(nb), np.log(variances), 1)[0])
    slope_phase = float(np.polyfit(np.log(nb), np.log(widths), 1)[0])
    return FluctuationReport(
        n_bar1_values=tuple(nb), number_variance=tuple(variances),
        phase_width=tuple(widths), fitted_exponents=(slope_num, slope_phase))


# -- cross-model comparison ----------------------------------------------------


@dataclass
class ComparisonRecord:
    """Matched-initial-condition runs of the three models on one time grid.

    Phases are displacement coordinates (relative to the locked
    configuration).  `div_n1` / `div_phi` are |exact - self-consistent|
    per time; `fidelity_exact` tracks how far the exact state leaves the
    product family.
    """

    times: np.ndarray
    n1_exact: np.ndarray
    n1_meanfield: np.ndarray
    n1_pendulum: np.ndarray
    phi_exact: np.ndarray
    phi_meanfield: np.ndarray
    phi_pendulum: np.ndarray
    div_n1: np.ndarray
    div_phi: np.ndarray
    fidelity_exact: np.ndarray
    max_div_n1: float
    max_div_phi: float

    def rows(self) -> list[dict]:
        columns = ("n1_exact", "n1_meanfield", "n1_pendulum", "phi_exact",
                   "phi_meanfield", "phi_pendulum", "div_n1", "div_phi",
                   "fidelity_exact")
        return _rows({"time": self.times, **{c: getattr(self, c) for c in columns}})


def model_compare(params: jj.JJParams, n0: float, phi0: float, horizon: float
                  ) -> ComparisonRecord:
    """Run exact, self-consistent, and pendulum dynamics from matched data.

    `phi0` is the initial phase displacement from the locked configuration;
    the quantum runs start from the product configuration with label
    (locked label - phi0) and mean n0.  The pendulum starts at
    (phi0, E_C (n0 - nbar1)) with the matched linearized frequency.  All
    three models are given the output spacing 0.1 / rate (`_junction_rate`)
    and so share one grid (`_output_times`); the self-consistent run steps
    at most about 0.01 / rate between outputs.  The self-consistent run goes
    first, as its step budget is the one the exact run does not check.  The
    exact run's fock.EIG_WORK_LIMIT bounds N.
    """
    dt = 0.1 / _junction_rate(params)
    space = jj.sector_space(params)
    label0 = locked_phase_label(params) - phi0
    initial = jj.product_state(params.n_total, n0, label0, space)

    mf = evolve_meanfield(initial, params, horizon, dt)
    exact = evolve_exact(initial, params, horizon, dt)
    pend = pendulum_trajectory(phi0, params.e_c * (n0 - params.n_bar1),
                               meanfield_matched_omega(params), horizon, dt,
                               e_c=params.e_c, n_bar1=params.n_bar1)

    disp_exact = displacement_from_locked(exact.phi, params)
    disp_mf = displacement_from_locked(mf.phi, params)
    div_n1 = np.abs(exact.n1 - mf.n1)
    div_phi = np.abs(disp_exact - disp_mf)
    finite = np.isfinite(div_phi)
    max_div_phi = float(np.max(div_phi[finite])) if np.any(finite) else float("nan")
    return ComparisonRecord(
        times=exact.times, n1_exact=exact.n1, n1_meanfield=mf.n1,
        n1_pendulum=pend.n1, phi_exact=disp_exact, phi_meanfield=disp_mf,
        phi_pendulum=pend.phi, div_n1=div_n1, div_phi=div_phi,
        fidelity_exact=exact.fidelity, max_div_n1=float(np.max(div_n1)),
        max_div_phi=max_div_phi)
