"""Time evolution of the junction models and the classical pendulum.

Three dynamical models run from matched initial data:

* exact unitary evolution under the quadratic-charging Hamiltonian,
* the self-consistent (state-dependent) flow, which is linear in the SU(2)
  generators and so reduces exactly to one rotation of the state driven
  by its Bloch vector (the (z, phi) equations of the bosonic junction):
  a classical spin, integrated by a sixth-order composition of exact
  rotations, whose outputs are read from the Bloch vector without
  building a state,
* the classical pendulum  phidd = -omega^2 sin(phi).

Conventions (frozen):

* The trajectory phase is the estimator phi := arg <a1+ a2>, unwrapped by
  continuity and undefined (NaN) where |<a1+ a2>| < 1e-12.  On a product
  configuration with construction label theta the estimator reads -theta.
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

COHERENCE_FLOOR = 1e-12
NORM_DRIFT_TOL = 1e-9
FIDELITY_TOL = 1e-6

# Work budgets, checked before a run allocates anything.  A step of the
# pendulum keeps two Python floats (about 64 bytes).  The exact model holds
# one fock.EIG_WORK_LIMIT eigendecomposition; both quantum models measure
# their outputs in blocks of fock.OUTPUT_CHUNK_WORK (2^16) states x
# dimension, 1 MB, and keep a few numbers per output, so the output budget
# bounds their run time rather than their memory.
STEP_LIMIT = 10_000_000
OUTPUT_WORK_LIMIT = 10_000_000


def _step_count(horizon: float, dt: float, per_step: float = 1.0,
                limit: float = STEP_LIMIT, what: str = "steps") -> int:
    """round(horizon / dt), at least 1 for a positive horizon; refused when
    steps x per_step exceed `limit`."""
    if not horizon > 0:
        return 0
    fock.check_work(horizon / dt * per_step, limit, what)
    return max(int(round(horizon / dt)), 1)


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
        out = []
        for i, t in enumerate(self.times):
            row = {
                "time": float(t),
                "n1": _none_if_nan(self.n1[i]),
                "phi": _none_if_nan(self.phi[i]),
                "norm_drift": float(self.norm_drift[i]),
                "energy": float(self.energy[i]),
            }
            if self.fidelity is not None:
                row["fidelity"] = _none_if_nan(self.fidelity[i])
            if self.phidot is not None:
                row["phidot"] = float(self.phidot[i])
            out.append(row)
        return out


def _none_if_nan(x):
    x = float(x)
    return None if math.isnan(x) else x


def _unwrap_keeping_nans(raw: np.ndarray) -> np.ndarray:
    out = np.asarray(raw, dtype=float).copy()
    finite = np.isfinite(out)
    out[finite] = np.unwrap(out[finite])
    return out


def _trajectory(blocks) -> Trajectory:
    """Trajectory of (times, n1, <a1+ a2>, norm drift, energy, fidelity)
    blocks; phi = arg <a1+ a2> is unwrapped once, over the whole run."""
    times, n1, z, drift, energy, fid = map(np.concatenate, zip(*blocks))
    phi = np.where(np.abs(z) > COHERENCE_FLOOR, np.angle(z), np.nan)
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


# 6th-order Yoshida composition (solution A) of a symmetric second-order step:
# the pendulum's leapfrog and the self-consistent flow's Strang rotation.  It
# stays symplectic, so the energy error stays bounded instead of drifting.
_W1 = -1.17767998417887
_W2 = 0.235573213359357
_W3 = 0.784513610477560
_W0 = 1.0 - 2.0 * (_W1 + _W2 + _W3)
_YOSHIDA6 = (_W3, _W2, _W1, _W0, _W1, _W2, _W3)


# -- self-consistent evolution -------------------------------------------------


def evolve_meanfield(initial: fock.StateVector, params: jj.JJParams, horizon: float,
                     dt: float, sample_every: int = 1) -> Trajectory:
    """Integrate the state-dependent flow i d|psi>/dt = H[psi]|psi>.

    Up to a constant H[psi] = E_C (<Jz> + N/2 - nbar1) Jz + lam Jx, with
    Jz = n1 - N/2: one SU(2) rotation U(t) driven by the Bloch vector
    (`_meanfield_rotations`), from which every column is read, so no state
    is built after t = 0.  norm_drift is the SU(2) defect of U; the
    fidelity, measured on the initial vector against the product state
    fitted to the back-rotated moments, is lost when U and the Bloch vector
    drift apart.  OUTPUT_WORK_LIMIT bounds outputs x (N + 1).  Raises
    IntegrationFailureError when the initial state is off the product
    family, or when the run's norm drift or product fidelity misses
    NORM_DRIFT_TOL or FIDELITY_TOL.
    """
    if dt <= 0:
        raise ContractViolationError("dt must be positive")
    if horizon < 0:
        raise ContractViolationError("horizon must be >= 0")
    if sample_every < 1:
        raise ContractViolationError("sample_every must be >= 1")
    space = initial.space
    if space.kind != "fixed_sector" or space.n_total != params.n_total:
        raise ContractViolationError("initial state must live on the parameter sector")
    fid0 = jj.best_fit_product(initial)[2]
    if fid0 < 1.0 - FIDELITY_TOL:
        raise IntegrationFailureError(
            f"initial product fidelity {fid0} is below 1 - {FIDELITY_TOL}")
    n_steps = _step_count(horizon, dt)
    step = horizon / n_steps if n_steps else 0.0
    # outputs counted as evolve_exact counts them, t = 0 aside
    fock.check_work(n_steps / sample_every * space.dimension, OUTPUT_WORK_LIMIT,
                    "outputs x dimension")
    rotations = _meanfield_rotations(initial, params, step, n_steps, sample_every)
    half, width = 0.5 * params.n_total, max(fock.OUTPUT_CHUNK_WORK // space.dimension, 1)
    blocks = []         # the rotations are drawn a block of outputs at a time
    while len(rot := np.fromiter(itertools.islice(rotations, width), dtype=[
            ("t", float), ("u", complex), ("v", complex), ("zeta", complex), ("jz", float)])):
        u, v, zeta, jz = rot["u"], rot["v"], rot["zeta"], rot["jz"]
        uu, vv, n1 = np.abs(u) ** 2, np.abs(v) ** 2, jz + half
        # U^+ (m.sigma) U: the moments at t = 0 of the product state fitted at t
        zeta0 = u * u * zeta - v * v * np.conj(zeta) - 2.0 * u * v * jz
        jz0 = jz * (uu - vv) + 2.0 * np.real(np.conj(u) * v * np.conj(zeta))
        blocks.append((rot["t"], n1, zeta, np.abs(uu + vv - 1.0),
                       params.lam * zeta.real + 0.5 * params.e_c * (n1 - params.n_bar1) ** 2,
                       jj.product_fit(initial.amplitudes[:, None], jz0 + half, zeta0)[2]))
    traj = _trajectory(blocks)
    drift, fid = np.max(traj.norm_drift), np.min(traj.fidelity)
    if not (drift <= NORM_DRIFT_TOL and fid >= 1.0 - FIDELITY_TOL):
        raise IntegrationFailureError(
            f"invariants unmet (norm drift {drift:.2e}, min fidelity {fid})")
    return traj


def _meanfield_rotations(initial, params, step, n_steps, sample_every):
    """Yield (t, u, v, zeta, jz) at t = 0 and at every output step: (u, v) is
    the first column of the SU(2) matrix U(t) of the rotation since t = 0,
    and (Re zeta, Im zeta, jz), zeta = <a1+ a2>, the Bloch vector it turns
    the initial one into, which obeys d<J>/dt = B x <J> with
    B = (lam, 0, E_C (jz + N/2 - nbar1)).  A Strang step Rz(h/2) Rx(h) Rz(h/2)
    is exact, as jz stands still while z turns, and the _YOSHIDA6 weights
    compose it to sixth order; the two z-turns that meet between x-turns
    are merged.
    """
    zeta, jz = jj.coherence(initial), jj.mean_n1(initial) - 0.5 * params.n_total
    shift = 0.5 * params.n_total - params.n_bar1
    z_angles = [0.5 * (a + b) * step * params.e_c
                for a, b in zip((0.0,) + _YOSHIDA6, _YOSHIDA6 + (0.0,))]
    x_turns = [(math.cos(h), math.sin(h), math.cos(2.0 * h), math.sin(2.0 * h))
               for h in (0.5 * w * step * params.lam for w in _YOSHIDA6)]
    x_turns.append((1.0, 0.0, 1.0, 0.0))    # none after the last z-turn
    u, v = 1.0 + 0.0j, 0.0j
    yield 0.0, u, v, zeta, jz
    for s in range(n_steps):
        for z_angle, (ch, sh, c, sn) in zip(z_angles, x_turns):
            e = cmath.exp(0.5j * z_angle * (jz + shift))    # half angle
            u, v, zeta = u * e.conjugate(), v * e, zeta * (e * e)
            u, v = ch * u - 1j * sh * v, ch * v - 1j * sh * u
            zeta, jz = complex(zeta.real, c * zeta.imag - sn * jz), sn * zeta.imag + c * jz
        if (s + 1) % sample_every == 0 or s + 1 == n_steps:
            yield (s + 1) * step, u, v, zeta, jz


# -- exact evolution -----------------------------------------------------------


def _measured(chunks, hamiltonian) -> Trajectory:
    """Trajectory of (times, psi) chunks: psi is a (dimension, outputs) block
    of states, every column measured as it is given, its norm drift its own
    |norm - 1| and its energy <H>.  A column whose norm misses 1 by more
    than 1e-12 raises ContractViolationError."""
    blocks = []
    for t, psi in chunks:
        norm, n1, z = jj.sector_moments(psi)
        drift = np.abs(norm - 1.0)
        if not np.all(drift <= 1e-12):
            raise ContractViolationError(
                f"state norm deviates from 1 by {np.max(drift)!r} > 1e-12")
        energy = np.sum(np.conj(psi) * hamiltonian.apply(psi), axis=0).real
        blocks.append((t, n1, z, drift, energy, jj.product_fit(psi, n1, z)[2]))
    return _trajectory(blocks)


def evolve_exact(initial: fock.StateVector, params: jj.JJParams, horizon: float,
                 dt_out: float, kind: str = "bose_hubbard") -> Trajectory:
    """Exact unitary evolution sampled on a uniform output grid."""
    if dt_out <= 0:
        raise ContractViolationError("dt_out must be positive")
    space = initial.space
    n_out = _step_count(horizon, dt_out, space.dimension, OUTPUT_WORK_LIMIT,
                        "outputs x dimension")
    hamiltonian = jj.build_jj_hamiltonian(params, space, kind, state=initial)
    times = [i * horizon / n_out for i in range(n_out + 1)] if n_out else [0.0]
    return _measured(fock.evolve_unitary_chunks(initial, hamiltonian, times), hamiltonian)


# -- classical pendulum --------------------------------------------------------


def _pendulum_fixed_step(phi0, v0, omega, n_steps, dt, sample_every):
    w2 = omega * omega
    phi, v = float(phi0), float(v0)
    phis = [phi]
    vs = [v]
    for s in range(n_steps):
        for w in _YOSHIDA6:
            h = w * dt
            v -= 0.5 * h * w2 * math.sin(phi)
            phi += h * v
            v -= 0.5 * h * w2 * math.sin(phi)
        if (s + 1) % sample_every == 0 or s + 1 == n_steps:
            phis.append(phi)
            vs.append(v)
    return np.array(phis), np.array(vs)


def pendulum_trajectory(phi0: float, phidot0: float, omega: float, horizon: float,
                        dt: float, e_c: float | None = None,
                        n_bar1: float | None = None, sample_every: int = 1,
                        energy_tol: float = 1e-9,
                        max_refinements: int = 12) -> Trajectory:
    """Integrate phidd = -omega^2 sin(phi) with a fixed-step symplectic
    composition scheme, halving the step until the relative energy drift is
    within `energy_tol`.

    When `e_c` and `n_bar1` are supplied, n(t) is reconstructed from the
    phase-velocity relation n = nbar1 + phidot / E_C (constant n for
    E_C = 0, where the relation is degenerate); otherwise n1 is NaN.
    """
    if dt <= 0:
        raise ContractViolationError("dt must be positive")
    if horizon < 0:
        raise ContractViolationError("horizon must be >= 0")
    if sample_every < 1:
        raise ContractViolationError("sample_every must be >= 1")
    if not math.isfinite(0.5 * phidot0 * phidot0 + omega * omega):
        raise DomainError(f"omega = {omega!r} and phidot0 = {phidot0!r} put the "
                          "pendulum energy beyond the float range")
    stride = int(sample_every)
    n_steps = _step_count(horizon, dt)
    if n_steps:
        n_steps = ((n_steps + stride - 1) // stride) * stride
    scale = max(abs(0.5 * phidot0 ** 2 - omega ** 2 * math.cos(phi0)),
                omega ** 2, 1e-30)
    drift = 0.0
    for _ in range(max_refinements + 1):
        fock.check_work(n_steps, STEP_LIMIT, "steps")
        step = horizon / n_steps if n_steps else 0.0
        phis, vs = _pendulum_fixed_step(phi0, phidot0, omega, n_steps, step, stride)
        energy = 0.5 * vs ** 2 - omega ** 2 * np.cos(phis)
        drift = np.max(np.abs(energy - energy[0])) / scale if n_steps else 0.0
        if drift <= energy_tol:
            break
        n_steps *= 2
        stride *= 2
    else:
        raise IntegrationFailureError(
            f"pendulum energy drift {drift:.2e} above {energy_tol} after refinement")
    n_samp = len(phis)
    times = (np.arange(n_samp) * (horizon / (n_samp - 1))
             if n_samp > 1 else np.array([0.0]))
    if e_c is not None and n_bar1 is not None:
        n1 = n_bar1 + vs / e_c if e_c > 0 else np.full(n_samp, float(n_bar1))
    else:
        n1 = np.full(n_samp, np.nan)
    return Trajectory(times=times, n1=n1, phi=phis,
                      norm_drift=np.zeros(n_samp), energy=energy, phidot=vs)


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
        return [{"n_bar1": nb, "number_variance": var, "phase_width": width}
                for nb, var, width in zip(self.n_bar1_values, self.number_variance,
                                          self.phase_width)]


def _overlap_magnitude(probs: np.ndarray, delta: float) -> float:
    k = np.arange(len(probs))
    return abs(np.sum(probs * np.exp(1j * k * delta)))


def phase_half_width(state: fock.StateVector, level: float = 0.5) -> float:
    """Phase offset at which |<n,phi | n,phi+delta>| drops to `level`,
    solved by bisection on the exact amplitude sum."""
    probs = state.probabilities()
    if _overlap_magnitude(probs, math.pi) > level:
        raise DomainError("overlap never drops to the requested level")
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _overlap_magnitude(probs, mid) > level:
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
        return [{"time": float(t),
                 **{c: _none_if_nan(getattr(self, c)[i]) for c in columns}}
                for i, t in enumerate(self.times)]


def model_compare(params: jj.JJParams, n0: float, phi0: float, horizon: float,
                  dt_out: float | None = None, dt_mf: float | None = None
                  ) -> ComparisonRecord:
    """Run exact, self-consistent, and pendulum dynamics from matched data.

    `phi0` is the initial phase displacement from the locked configuration;
    the quantum runs start from the product configuration with label
    (locked label - phi0) and mean n0.  The pendulum starts at
    (phi0, E_C (n0 - nbar1)) with the matched linearized frequency.
    The exact run's fock.EIG_WORK_LIMIT bounds N.
    """
    with np.errstate(over="ignore"):
        omega_match = meanfield_matched_omega(params)
    rate = max(omega_match, abs(params.lam), 1e-12)
    if not math.isfinite(rate):
        raise DomainError(f"e_c = {params.e_c!r} and lam = {params.lam!r} make the "
                          "junction rate infinite")
    if dt_out is None:
        dt_out = 0.1 / rate
    if dt_mf is None:
        dt_mf = 0.01 / rate
    n_out = max(_step_count(horizon, dt_out, params.n_total + 1,
                            OUTPUT_WORK_LIMIT, "outputs x dimension"), 1)
    dt_out = horizon / n_out
    stride = max(int(round(dt_out / dt_mf)), 1)
    dt_mf = dt_out / stride
    fock.check_work(n_out * stride, STEP_LIMIT, "steps")

    space = jj.sector_space(params)
    label0 = locked_phase_label(params) - phi0
    initial = jj.product_state(params.n_total, n0, label0, space)

    exact = evolve_exact(initial, params, horizon, dt_out, "bose_hubbard")
    mf = evolve_meanfield(initial, params, horizon, dt_mf, sample_every=stride)
    pend = pendulum_trajectory(phi0, params.e_c * (n0 - params.n_bar1), omega_match,
                               horizon, dt_mf, e_c=params.e_c,
                               n_bar1=params.n_bar1, sample_every=stride)
    if not (len(exact.times) == len(mf.times) == len(pend.times)):
        raise ContractViolationError("model output grids failed to align")

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
