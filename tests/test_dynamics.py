import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import ellipj, ellipk, ellipkinc

import beamlab.dynamics as dyn
import beamlab.fock as fock
import beamlab.jj as jj
import beamlab.polarization as pol
from beamlab.errors import (
    ContractViolationError,
    FitError,
    IntegrationFailureError,
    ResourceLimitError,
)


def canonical_params():
    return jj.JJParams(e_c=0.2, lam=0.1, n_total=200, n_bar1=100.0)


def meanfield_hamiltonian(params, n1):
    """Oracle: the self-consistent Hamiltonian at <n1> = n1 as a scipy CSR
    matrix, E_C (n1 - nbar1)(k - nbar1) on the diagonal."""
    k = np.arange(params.n_total + 1, dtype=float)
    off = jj.tunneling_offdiagonal(params.n_total, params.lam)
    diag = params.e_c * (n1 - params.n_bar1) * (k - params.n_bar1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def exact_hamiltonian(params):
    """Oracle: the quadratic-charging Hamiltonian as a dense complex matrix."""
    k = np.arange(params.n_total + 1, dtype=float)
    off = 0.5 * params.lam * np.sqrt((k[:-1] + 1.0) * (params.n_total - k[:-1]))
    return (np.diag(params.e_c * (k - params.n_bar1) ** 2 + 0j)
            + np.diag(off, 1) + np.diag(off, -1))


def displaced_initial(params, amplitude, n0=None):
    space = jj.sector_space(params)
    n0 = params.n_bar1 if n0 is None else n0
    label = dyn.locked_phase_label(params) - amplitude
    return jj.product_state(params.n_total, n0, label, space)


# -- self-consistent flow --------------------------------------------------------


def test_meanfield_zero_tunneling_linear_phase():
    # lam = 0: U(t) is a pure z-turn, so jz stands still and zeta turns at
    # the constant rate E_C (n - nbar1); N = 41 is a half-integer spin
    for n_total, n_bar1, n0, dt in ((20, 8.0, 12.0, 0.01), (41, 17.5, 23.0, 0.07)):
        params = jj.JJParams(e_c=0.3, lam=0.0, n_total=n_total, n_bar1=n_bar1)
        initial = jj.product_state(n_total, n0, 0.4, jj.sector_space(params))
        traj = dyn.evolve_meanfield(initial, params, horizon=3.0, dt=dt)
        assert np.allclose(traj.n1, n0, rtol=0, atol=1e-12)
        # phase advances linearly at rate E_C (n - nbar1)
        want = traj.phi[0] + params.e_c * (n0 - n_bar1) * traj.times
        assert np.max(np.abs(traj.phi - want)) < 1e-11
        assert np.max(np.abs(traj.fidelity - 1.0)) <= 1e-13


def test_meanfield_symmetric_point_is_stationary():
    params = canonical_params()
    space = jj.sector_space(params)
    initial = jj.product_state(200, 100.0, 0.0, space)
    traj = dyn.evolve_meanfield(initial, params, horizon=2.0, dt=0.005)
    assert np.max(np.abs(traj.n1 - 100.0)) < 1e-8
    assert np.max(np.abs(traj.phi)) < 1e-8


def test_meanfield_preserves_product_structure_and_norm():
    params = canonical_params()
    traj = dyn.evolve_meanfield(displaced_initial(params, 0.3), params,
                                horizon=5.0, dt=0.005)
    assert np.min(traj.fidelity) >= 1.0 - 1e-6
    assert np.max(traj.norm_drift) <= 1e-9
    # conserved functional of the self-consistent flow (O(dt^2) scheme drift)
    scale = max(abs(traj.energy[0]), 1e-12)
    assert np.max(np.abs(traj.energy - traj.energy[0])) / scale < 1e-6


def test_meanfield_global_phase_invariance():
    params = canonical_params()
    initial = displaced_initial(params, 0.2)
    rotated = fock.StateVector(initial.space,
                               initial.amplitudes * np.exp(0.8j))
    a = dyn.evolve_meanfield(initial, params, horizon=3.0, dt=0.01)
    b = dyn.evolve_meanfield(rotated, params, horizon=3.0, dt=0.01)
    assert np.max(np.abs(a.n1 - b.n1)) < 1e-8
    assert np.max(np.abs(a.phi - b.phi)) < 1e-8


def test_meanfield_phase_velocity_relation():
    # d(phi)/dt = E_C (n - nbar1) within 1e-4 * max|d(phi)/dt|;
    # the O(lam/N) correction demands lam << N E_C / 2e4
    params = jj.JJParams(e_c=0.5, lam=0.001, n_total=200, n_bar1=100.0)
    traj = dyn.evolve_meanfield(displaced_initial(params, 0.3), params,
                                horizon=28.0, dt=0.02)
    dt = traj.times[1] - traj.times[0]
    fd = (traj.phi[2:] - traj.phi[:-2]) / (2 * dt)
    want = params.e_c * (traj.n1[1:-1] - params.n_bar1)
    assert np.max(np.abs(fd - want)) <= 1e-4 * np.max(np.abs(fd))


def test_meanfield_correlation_matrix_closure():
    # Omega measured on the evolved state matches Omega reconstructed from
    # the reduced (n, phi) coordinates alone: the product form closes the
    # correlation-matrix dynamics
    params = canonical_params()
    initial = displaced_initial(params, 0.2)
    space = jj.sector_space(params)
    n_tot = params.n_total
    psi_vec = initial.amplitudes.copy()
    k = np.arange(n_tot + 1, dtype=float)

    def propagate(n1, vec, t):
        # oracle: scipy's truncated-Taylor action of the sparse exponential
        return expm_multiply(-1j * t * meanfield_hamiltonian(params, n1), vec,
                             traceA=0.0)

    step = 0.005
    worst = 0.0
    for s in range(int(round(4.0 / step))):
        n1 = float(k @ np.abs(psi_vec) ** 2)
        half = propagate(n1, psi_vec, step / 2)
        n1h = float(k @ np.abs(half) ** 2) / float(np.vdot(half, half).real)
        psi_vec = propagate(n1h, psi_vec, step)
        if (s + 1) % 100 == 0:
            state = fock.StateVector(space, psi_vec / np.linalg.norm(psi_vec))
            omega_state = pol.omega_from_state(state).matrix
            n = jj.mean_n1(state)
            phi = np.angle(jj.coherence(state))
            p = n / n_tot
            z = n_tot * np.sqrt(p * (1 - p)) * np.exp(1j * phi)
            omega_reduced = np.array([[n, np.conj(z)], [z, n_tot - n]])
            worst = max(worst, np.max(np.abs(omega_state - omega_reduced)))
    assert worst < 1e-6


def test_meanfield_rejects_non_product_initial():
    params = jj.JJParams(e_c=0.2, lam=0.1, n_total=30, n_bar1=15.0)
    space = jj.sector_space(params)
    a = jj.product_state(30, 8.0, 0.0, space)
    b = jj.product_state(30, 22.0, 0.0, space)
    cat = fock.StateVector(space, a.amplitudes + b.amplitudes, normalize=True)
    with pytest.raises(IntegrationFailureError):
        dyn.evolve_meanfield(cat, params, horizon=1.0, dt=0.01)


def test_meanfield_matches_the_full_nonlinear_equation():
    # oracle: i psi' = H[psi] psi integrated on the whole sector by DOP853,
    # H[psi] rebuilt from the state at every evaluation
    params = jj.JJParams(e_c=0.7, lam=0.4, n_total=30, n_bar1=13.0)
    initial = displaced_initial(params, 0.9, n0=17.0)
    space = initial.space

    def rhs(t, psi):
        state = fock.StateVector(space, psi, normalize=True)
        return -1j * (meanfield_hamiltonian(params, jj.mean_n1(state)) @ psi)

    traj = dyn.evolve_meanfield(initial, params, horizon=6.0, dt=0.2)
    sol = solve_ivp(rhs, (0.0, 6.0), initial.amplitudes, method="DOP853",
                    t_eval=traj.times, rtol=1e-12, atol=1e-12)
    want = [fock.StateVector(space, psi, normalize=True) for psi in sol.y.T]
    n1 = np.array([jj.mean_n1(st) for st in want])
    phi = np.unwrap([np.angle(jj.coherence(st)) for st in want])
    assert np.max(np.abs(traj.n1 - n1)) <= 1e-8
    assert np.max(np.abs(traj.phi - phi)) <= 1e-8
    assert np.ptp(traj.n1) > 1.0                      # the flow does move
    assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-10 * abs(traj.energy[0])


def test_meanfield_checks_its_invariants_after_the_run(monkeypatch):
    params = canonical_params()
    initial = displaced_initial(params, 0.3)
    monkeypatch.setattr(dyn, "NORM_DRIFT_TOL", -1.0)
    with pytest.raises(IntegrationFailureError, match="norm drift"):
        dyn.evolve_meanfield(initial, params, horizon=1.0, dt=0.01)


def _spin_operators(n_total):
    k = np.arange(n_total + 1, dtype=float)
    jz = np.diag(k - 0.5 * n_total)
    off = np.sqrt((k[:-1] + 1.0) * (n_total - k[:-1]))
    raise_ = np.diag(off, -1)                    # k -> k + 1
    jx = 0.5 * (raise_ + raise_.T)
    return jx, -1j * (jz @ jx - jx @ jz), jz     # [Jz, Jx] = i Jy


def _rotated_oracle(initial, u, v):
    """exp(-i theta n.J)|psi0> for the SU(2) matrix with first column
    (u, v) = (cos - i n_z sin, (n_y - i n_x) sin)(theta / 2), by dense expm."""
    jx, jy, jz = _spin_operators(initial.space.n_total)
    sin_half = np.hypot(abs(v), u.imag)
    scale = 2.0 * np.arctan2(sin_half, u.real) / sin_half if sin_half else 0.0
    gen = scale * (-v.imag * jx + v.real * jy - u.imag * jz)
    return fock.StateVector(initial.space, expm(-1j * gen) @ initial.amplitudes)


def test_bloch_vector_columns_match_a_dense_rotation(monkeypatch):
    # every column read from the Bloch vector against the state turned by
    # dense expm with the run's own (u, v), then measured: the plasma leg of
    # `compare` (N = 200, subsampled), odd N, and an electrode swap whose
    # rotation comes within 0.013 of the half turn u = 0; the last entry of
    # a case is the stride the run picks, its steps per output (the odd-N
    # case takes 630 steps, near the 600 of step 0.01 it was set for)
    cases = [(jj.JJParams(e_c=0.2, lam=0.1, n_total=200, n_bar1=100.0), 0.05, 100.0,
              20.0, 2.5, 354),
             (jj.JJParams(e_c=0.7, lam=0.4, n_total=31, n_bar1=13.0), 0.9, 17.0,
              3.0, 0.2, 42),
             (jj.JJParams(e_c=0.01, lam=1.0, n_total=40, n_bar1=20.0), np.pi, 4.0,
              6.0, 0.15, 16)]
    rotations, picked = dyn._meanfield_rotations, []
    monkeypatch.setattr(dyn, "_meanfield_rotations",
                        lambda *args: picked.append(args[2:]) or rotations(*args))
    for params, amplitude, n0, horizon, dt, stride in cases:
        initial = displaced_initial(params, amplitude, n0=n0)
        traj = dyn.evolve_meanfield(initial, params, horizon, dt)
        n_out = int(round(horizon / dt))
        args = picked.pop()
        assert args == (horizon / (n_out * stride), n_out, stride)
        u, v, _, _ = zip(*rotations(initial, params, *args))
        psi = np.stack([_rotated_oracle(initial, a, b).amplitudes for a, b in zip(u, v)],
                       axis=1)
        norm, n1, z = jj.sector_moments(psi)
        want = {"times": horizon * np.arange(n_out + 1) / n_out,
                "n1": n1, "phi": np.exp(1j * np.angle(z)),
                "norm_drift": np.abs(norm - 1.0), "fidelity": jj.product_fit(psi, n1, z)[2],
                "energy": params.lam * z.real
                + 0.5 * params.e_c * (n1 - params.n_bar1) ** 2}
        got = {name: getattr(traj, name) for name in want}
        got["phi"] = np.exp(1j * traj.phi)
        for name in want:
            # 1e-12 of the column's size: the Bloch vector's rounding grows
            # with N and with the number of steps
            scale = max(1.0, np.max(np.abs(want[name])))
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, (
                params.n_total, name)
    assert np.ptp(traj.n1) > 31.0 and np.min(np.abs(u)) < 0.013


def test_meanfield_row_zero_is_the_measured_initial_state():
    params = jj.JJParams(e_c=0.4, lam=0.3, n_total=30, n_bar1=15.0)
    initial = displaced_initial(params, 0.3, n0=17.0)
    traj = dyn.evolve_meanfield(initial, params, horizon=1.0, dt=0.01)
    z = jj.coherence(initial)
    energy = (params.lam * z.real
              + 0.5 * params.e_c * (jj.mean_n1(initial) - params.n_bar1) ** 2)
    assert (traj.times[0], traj.n1[0], traj.phi[0], traj.energy[0], traj.fidelity[0]) == (
        0.0, jj.mean_n1(initial), np.angle(z), energy, jj.best_fit_product(initial)[2])
    assert traj.norm_drift[0] == abs(initial.norm() - 1.0)


def test_half_integer_spin_does_not_see_the_sign_of_u(monkeypatch):
    # odd N: -U acts as minus the representation of U, a global phase only
    params = jj.JJParams(e_c=0.7, lam=0.4, n_total=31, n_bar1=13.0)
    initial = displaced_initial(params, 0.9, n0=17.0)
    plain = dyn.evolve_meanfield(initial, params, horizon=6.0, dt=0.2)
    rotations = dyn._meanfield_rotations
    monkeypatch.setattr(dyn, "_meanfield_rotations", lambda *args: (
        (-u, -v, zeta, jz) for u, v, zeta, jz in rotations(*args)))
    flipped = dyn.evolve_meanfield(initial, params, horizon=6.0, dt=0.2)
    assert np.ptp(plain.n1) > 1.0
    for name in ("times", "n1", "phi", "norm_drift", "energy", "fidelity"):
        assert np.allclose(getattr(flipped, name), getattr(plain, name),
                           rtol=0, atol=1e-12), name


def test_meanfield_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # dimension 101 x 287 outputs and dimension 5000: the model reads its
    # rows from the Bloch vector and fits the product state with numpy's
    # elementwise sums; this keeps out of the report any BLAS product,
    # which may split its sums across threads; at phi0 = 0 both runs
    # would stand still
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [(["--n-total", "100", "--e-c", "0.2", "--lam", "0.1", "--phi0", "2.0",
              "--horizon", "20", "--dt", "0.07"], 287),
            (["--n-total", "4999", "--e-c", "0.01", "--lam", "0.001", "--phi0", "2.0",
              "--horizon", "23.57", "--dt", "0.2357"], 101)]
    for argv, outputs in runs:
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = tmp_path / f"threads{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "beamlab.cli", "jj-evolve", *argv,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0].count(b"\n") == outputs + 2        # header and column names
        assert reports[0] == reports[1]


def test_meanfield_argument_validation():
    params = canonical_params()
    initial = displaced_initial(params, 0.1)
    with pytest.raises(ContractViolationError):
        dyn.evolve_meanfield(initial, params, horizon=1.0, dt=0.0)
    with pytest.raises(ContractViolationError):
        dyn.evolve_meanfield(initial, params, horizon=-1.0, dt=0.01)
    other = jj.JJParams(e_c=0.2, lam=0.1, n_total=100, n_bar1=50.0)
    with pytest.raises(ContractViolationError):
        dyn.evolve_meanfield(initial, other, horizon=1.0, dt=0.01)


# -- pendulum ---------------------------------------------------------------------


def test_pendulum_fixed_point_is_zero():
    traj = dyn.pendulum_trajectory(0.0, 0.0, omega=2.0, horizon=5.0, dt=0.01)
    assert np.max(np.abs(traj.phi)) == 0.0
    assert np.max(np.abs(traj.phidot)) == 0.0


def test_pendulum_argument_validation():
    for bad in ({"dt": 0.0}, {"horizon": -1.0}):
        with pytest.raises(ContractViolationError):
            dyn.pendulum_trajectory(**{"phi0": 0.1, "phidot0": 0.0, "omega": 1.0,
                                       "horizon": 1.0, "dt": 0.01, **bad})


def test_pendulum_harmonic_limit():
    omega = 1.7
    traj = dyn.pendulum_trajectory(0.01, 0.0, omega, horizon=10.0 / omega,
                                   dt=0.005 / omega)
    want = 0.01 * np.cos(omega * traj.times)
    assert np.max(np.abs(traj.phi - want)) < 1e-6


def test_pendulum_period_elliptic_integral():
    # period for amplitude phi0: 4 K(sin^2(phi0/2)) / omega; cross-checked
    # against direct quadrature of the energy integral
    omega, phi0 = 1.3, 2.0
    m = np.sin(phi0 / 2) ** 2
    period = 4.0 * ellipk(m) / omega

    def integrand(phi):
        return 1.0 / np.sqrt(2.0 * omega ** 2 * (np.cos(phi) - np.cos(phi0)))

    quad_period, err = quad(integrand, -phi0, phi0, points=[-phi0, phi0], limit=200)
    quad_period *= 2.0
    assert period == pytest.approx(quad_period, rel=1e-9)

    traj = dyn.pendulum_trajectory(phi0, 0.0, omega, horizon=period,
                                   dt=period / 4096)
    assert traj.phi[-1] == pytest.approx(phi0, abs=1e-6)
    assert traj.phidot[-1] == pytest.approx(0.0, abs=1e-6)


def test_pendulum_energy_drift():
    omega = 2.0
    traj = dyn.pendulum_trajectory(1.2, 0.7, omega, horizon=200.0 / omega,
                                   dt=0.01 / omega)
    scale = max(abs(traj.energy[0]), omega ** 2)
    assert np.max(np.abs(traj.energy - traj.energy[0])) / scale <= 1e-9


def jacobi_pendulum(phi0, phidot0, omega, t):
    """(phi, phidot, period) of the pendulum from scipy's Jacobi functions:
    sin(phi/2) = k sn(w t + u0 | k^2) below the separatrix (k < 1), and
    phi/2 = am(s q t + F(phi0/2 | 1/k^2) | 1/k^2) above it, where
    k^2 = (phidot0^2/4 + w^2 sin^2(phi0/2)) / w^2 = q^2 / w^2."""
    w = abs(omega)
    q2 = (0.5 * phidot0) ** 2 + (w * np.sin(0.5 * phi0)) ** 2
    if q2 < w ** 2:
        k = np.sqrt(q2) / w
        centre = 2.0 * np.pi * np.round(phi0 / (2.0 * np.pi))
        u0 = ellipkinc(np.arctan2(np.sin(0.5 * (phi0 - centre)) / k,
                                  0.5 * phidot0 / (k * w)), k * k)
        sn, cn, _, _ = ellipj(w * t + u0, k * k)
        return centre + 2.0 * np.arcsin(k * sn), 2.0 * k * w * cn, 4.0 * ellipk(k * k) / w
    q, m, s = np.sqrt(q2), w ** 2 / q2, np.sign(phidot0)
    _, _, dn, am = ellipj(s * q * t + ellipkinc(0.5 * phi0, m), m)
    return 2.0 * am, 2.0 * s * q * dn, 2.0 * ellipk(m) / q


def test_pendulum_matches_the_jacobi_oracle():
    # ten periods of libration, rotation either way, libration about 2 pi
    # (phi0 = 7), and negative omega, against scipy's elliptic functions
    cases = [(0.05, 0.0, 1.3), (1.0, 0.0, 1.3), (2.5, 0.0, 1.3), (3.0, 0.0, 1.3),
             (1.0, 0.4, 1.3), (1.0, 3.0, 1.0), (1.0, -3.0, 1.0), (7.0, 0.5, 1.0),
             (7.0, 3.0, 1.0), (1.0, 0.2, -1.3)]
    for phi0, phidot0, omega in cases:
        horizon = 10.0 * jacobi_pendulum(phi0, phidot0, omega, 0.0)[2]
        traj = dyn.pendulum_trajectory(phi0, phidot0, omega, horizon, horizon / 4000)
        phi, phidot, _ = jacobi_pendulum(phi0, phidot0, omega, traj.times)
        assert (traj.phi[0], traj.phidot[0]) == (phi0, phidot0)
        assert np.max(np.abs(traj.phi - phi)) <= 1e-11, (phi0, phidot0, omega)
        assert np.max(np.abs(traj.phidot - phidot)) <= 1e-11, (phi0, phidot0, omega)
    # the separatrix, free motion at omega = 0, and rest at the top
    omega = 1.5
    sep = dyn.pendulum_trajectory(0.0, 2.0 * omega, omega, 10.0 / omega, 0.001)
    assert np.max(np.abs(sep.phi - 2.0 * np.arcsin(np.tanh(omega * sep.times)))) <= 1e-11
    assert np.max(np.abs(sep.phidot - 2.0 * omega / np.cosh(omega * sep.times))) <= 1e-11
    free = dyn.pendulum_trajectory(0.3, -0.7, 0.0, 10.0, 0.01)
    assert np.max(np.abs(free.phi - (0.3 - 0.7 * free.times))) <= 1e-11
    assert np.max(np.abs(free.phidot + 0.7)) <= 1e-11
    top = dyn.pendulum_trajectory(np.pi, 0.0, omega, 100.0, 0.01)
    assert np.all(top.phi == np.pi) and np.all(top.phidot == 0.0)


def test_pendulum_n_reconstruction():
    traj = dyn.pendulum_trajectory(0.4, 0.0, 1.0, horizon=6.0, dt=0.01,
                                   e_c=0.5, n_bar1=10.0)
    assert np.allclose(traj.n1, 10.0 + traj.phidot / 0.5)
    frozen = dyn.pendulum_trajectory(0.4, 0.0, 0.0, horizon=2.0, dt=0.01,
                                     e_c=0.0, n_bar1=10.0)
    assert np.allclose(frozen.n1, 10.0)
    bare = dyn.pendulum_trajectory(0.4, 0.0, 1.0, horizon=1.0, dt=0.01)
    assert np.all(np.isnan(bare.n1))


# -- pendulum correspondence -------------------------------------------------------


def test_meanfield_matches_pendulum_small_amplitude():
    params = canonical_params()
    omega = jj.derived_constants(params).omega            # sqrt(2 E_C E_J) = 2
    horizon = 10.0 / omega
    traj = dyn.evolve_meanfield(displaced_initial(params, 0.05), params,
                                horizon=horizon, dt=0.01 / omega)
    disp = dyn.displacement_from_locked(traj.phi, params)
    pend = dyn.pendulum_trajectory(0.05, 0.0, dyn.meanfield_matched_omega(params),
                                   horizon, 0.01 / omega)
    assert len(disp) == len(pend.phi)
    assert np.max(np.abs(disp - pend.phi)) <= 0.05


def test_matched_omega_value():
    params = canonical_params()
    # linearization of the reduced flow at nbar1 = N/2
    want = np.sqrt((params.e_c + 2 * params.lam / params.n_total) * 10.0)
    assert dyn.meanfield_matched_omega(params) == pytest.approx(want, rel=1e-12)
    assert jj.derived_constants(params).omega == pytest.approx(2.0, rel=1e-12)


# -- exact evolution ---------------------------------------------------------------


def test_exact_evolution_conserves_norm_and_energy():
    params = jj.JJParams(e_c=0.4, lam=0.3, n_total=60, n_bar1=30.0)
    initial = displaced_initial(params, 0.3, n0=33.0)
    traj = dyn.evolve_exact(initial, params, horizon=8.0, dt_out=0.05)
    assert np.max(traj.norm_drift) <= 1e-9
    scale = max(abs(traj.energy[0]), 1e-12)
    assert np.max(np.abs(traj.energy - traj.energy[0])) / scale <= 1e-8


def exact_oracle(initial, params, times):
    """n1, phi, energy and fidelity of expm(-i t H) psi0 on the whole sector,
    H the dense oracle matrix, on the evenly spaced `times` from 0, phi
    unwrapped over its finite entries."""
    h = exact_hamiltonian(params)
    step = expm(-1j * (times[1] - times[0]) * h)
    psi = [initial.amplitudes]
    for _ in times[1:]:
        psi.append(step @ psi[-1])
    states = [fock.StateVector(initial.space, p, normalize=True) for p in psi]
    z = np.array([jj.coherence(st) for st in states])
    phi = dyn._unwrap_keeping_nans(np.where(np.abs(z) > jj.COHERENCE_FLOOR,
                                            np.angle(z), np.nan))
    return {"n1": [jj.mean_n1(st) for st in states], "phi": phi,
            "energy": [np.vdot(st.amplitudes, h @ st.amplitudes).real for st in states],
            "fidelity": [jj.best_fit_product(st)[2] for st in states]}


def solved_rows(monkeypatch):
    """The row count of every eigensolve the exact model asks for."""
    rows, solve = [], fock.eigh_tridiagonal
    monkeypatch.setattr(fock, "eigh_tridiagonal",
                        lambda d, e: rows.append(len(d)) or solve(d, e))
    return rows


@pytest.mark.parametrize("case", ["narrow", "spreading"])
def test_exact_run_on_its_window_matches_the_whole_sector(monkeypatch, case):
    # a product state a few widths wide runs on its number window; a Fock
    # state at E_C = 0 turns over the whole sector, so it leaves its window
    # and is rerun, once, on all N + 1 rows
    if case == "narrow":
        params = jj.JJParams(e_c=0.05, lam=0.1, n_total=400, n_bar1=200.0)
        initial, want_rows = displaced_initial(params, 0.4, n0=210.0), None
    else:
        params = jj.JJParams(e_c=0.0, lam=0.1, n_total=300, n_bar1=150.0)
        initial = jj.product_state(300, 0.0, 0.0, jj.sector_space(params))
        want_rows = [1 + dyn.WINDOW_MARGIN, 301]
    rows = solved_rows(monkeypatch)
    traj = dyn.evolve_exact(initial, params, horizon=20.0, dt_out=2.0)
    if want_rows is None:
        assert len(rows) == 1 and 2 * dyn.WINDOW_MARGIN < rows[0] < 300
    else:
        assert rows == want_rows
    want = exact_oracle(initial, params, traj.times)
    for name, values in want.items():
        got = getattr(traj, name)
        assert np.array_equal(np.isnan(got), np.isnan(values)), name
        assert np.allclose(got, values, rtol=0, atol=1e-10, equal_nan=True), name


def test_measured_window_matches_the_whole_sector_until_its_edge_fills():
    # states on rows 7..13 of N = 20, measured on rows 3..17 and on all 21
    n_total, first = 20, 3
    rng = np.random.default_rng(8)
    psi = np.zeros((n_total + 1, 5), dtype=complex)
    psi[7:14] = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    psi /= np.linalg.norm(psi, axis=0)
    times = np.arange(5, dtype=float)
    params = jj.JJParams(e_c=0.3, lam=0.2, n_total=n_total, n_bar1=8.5)
    d, e = jj.charging_diagonal(params), jj.tunneling_offdiagonal(n_total, params.lam)
    whole = dyn._measured([(times, psi)], d, e, n_total)
    window = slice(first, 18)
    part = dyn._measured([(times, psi[window])], d[window], e[first:17], n_total, first)
    for name in ("n1", "phi", "norm_drift", "energy", "fidelity"):
        assert np.allclose(getattr(part, name), getattr(whole, name),
                           rtol=0, atol=1e-13), name
    # weight on an inner edge ends the windowed measurement, on either side
    for row in (first, 17):
        edged = psi.copy()
        edged[row, 3] = 1e-15
        edged /= np.linalg.norm(edged, axis=0)
        assert dyn._measured([(times, edged[window])], d[window], e[first:17],
                             n_total, first) is None
        assert dyn._measured([(times, edged)], d, e, n_total) is not None


# -- model comparison --------------------------------------------------------------


def test_model_compare_runs_the_three_models_on_one_grid(monkeypatch):
    runs = []
    for name in ("evolve_exact", "evolve_meanfield", "pendulum_trajectory"):
        monkeypatch.setattr(dyn, name, lambda *args, model=getattr(dyn, name), **kw: (
            runs.append(model(*args, **kw)) or runs[-1]))
    params = jj.JJParams(e_c=10.0, lam=1.0, n_total=4, n_bar1=2.0)
    rec = dyn.model_compare(params, n0=3.0, phi0=0.2, horizon=3.0)
    assert len(runs) == 3 and len(rec.times) > 10
    assert all(traj.times.tobytes() == rec.times.tobytes() for traj in runs)


def test_model_compare_zero_divergence_at_t0():
    params = jj.JJParams(e_c=1.0, lam=0.5, n_total=12, n_bar1=6.0)
    rec = dyn.model_compare(params, n0=7.0, phi0=0.1, horizon=1.0)
    assert rec.div_n1[0] <= 1e-12
    assert rec.div_phi[0] <= 1e-12


def test_model_compare_agrees_at_zero_charging():
    params = jj.JJParams(e_c=0.0, lam=1.0, n_total=4, n_bar1=2.0)
    # all three models at the matched fixed point
    rec = dyn.model_compare(params, n0=2.0, phi0=0.0, horizon=20.0)
    assert rec.max_div_n1 <= 1e-6
    assert np.max(np.abs(rec.n1_pendulum - rec.n1_meanfield)) <= 1e-6
    # displaced data: pure tunneling is quadratic, so exact == self-consistent
    rec2 = dyn.model_compare(params, n0=3.0, phi0=0.4, horizon=20.0)
    assert rec2.max_div_n1 <= 1e-6
    assert rec2.max_div_phi <= 1e-6


def test_model_compare_strong_charging_dichotomy():
    params = jj.JJParams(e_c=10.0, lam=1.0, n_total=4, n_bar1=2.0)
    omega = jj.derived_constants(params).omega
    rec = dyn.model_compare(params, n0=3.0, phi0=0.0, horizon=20.0 / omega)
    assert rec.max_div_n1 > 0.1
    assert np.min(rec.fidelity_exact) < 0.9     # exact state leaves the family


def test_model_compare_requires_dense_path():
    # the exact run's eigendecomposition budget is the only size limit
    params = jj.JJParams(e_c=0.1, lam=0.1, n_total=2500, n_bar1=1250.0)
    rec = dyn.model_compare(params, n0=1250.0, phi0=0.1, horizon=1.0)
    assert rec.div_n1[0] <= 1e-9
    params = jj.JJParams(e_c=0.1, lam=0.1, n_total=5000, n_bar1=2500.0)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        dyn.model_compare(params, n0=2500.0, phi0=0.1, horizon=1.0)
    assert time.perf_counter() - start < 1.0


# -- fluctuation scan --------------------------------------------------------------


def scan_params(nb):
    return jj.JJParams(e_c=1.0, lam=1.0, n_total=int(2 * nb), n_bar1=float(nb))


def test_fluctuation_scan_exponents():
    rep = dyn.fluctuation_scan([scan_params(nb) for nb in (25, 100, 400)], phi=0.0)
    for nb, var in zip(rep.n_bar1_values, rep.number_variance):
        assert var == pytest.approx(nb / 2, abs=1e-10)    # N p (1-p), p = 1/2
    assert rep.fitted_exponents[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.fitted_exponents[1] == pytest.approx(-0.5, abs=0.05)


def test_fluctuation_scan_needs_three_points():
    with pytest.raises(FitError):
        dyn.fluctuation_scan([scan_params(25)], phi=0.0)
    with pytest.raises(FitError):
        dyn.fluctuation_scan([scan_params(25), scan_params(100)], phi=0.0)


def test_phase_half_width_matches_closed_form():
    # oracle: |p e^{i d} + 1 - p|^N = 1/2 solved on the closed form
    from scipy.optimize import brentq
    for nb in (25, 400):
        params = scan_params(nb)
        space = jj.sector_space(params)
        state = jj.product_state(params.n_total, params.n_bar1, 0.0, space)
        width = dyn.phase_half_width(state)
        p = 0.5
        n_tot = params.n_total

        def closed(d):
            return abs(p * np.exp(1j * d) + 1 - p) ** n_tot - 0.5

        want = brentq(closed, 1e-6, np.pi)
        assert width == pytest.approx(want, abs=1e-9)


def test_trajectory_validation():
    with pytest.raises(ContractViolationError):
        dyn.Trajectory(times=[0.0, 1.0], n1=[1.0], phi=[0.0, 0.0],
                       norm_drift=[0.0, 0.0], energy=[0.0, 0.0])
    with pytest.raises(ContractViolationError):
        dyn.Trajectory(times=[0.0, 0.0], n1=[1.0, 1.0], phi=[0.0, 0.0],
                       norm_drift=[0.0, 0.0], energy=[0.0, 0.0])


def test_meanfield_output_budget_counts_the_sampled_outputs(monkeypatch):
    params = jj.JJParams(e_c=0.2, lam=0.1, n_total=4, n_bar1=2.0)
    initial = jj.product_state(4, 2.0, 0.0, jj.sector_space(params))
    dt = 4.0 / dyn.OUTPUT_WORK_LIMIT        # 2.5e6 outputs of 5 states
    with pytest.raises(ResourceLimitError, match="outputs x dimension"):
        dyn.evolve_meanfield(initial, params, 1.0, dt)

    def past_the_budget(*args):
        raise LookupError("the run got past its budget checks")

    # half as many outputs: within the budget, so the run goes on to its
    # rotations
    monkeypatch.setattr(dyn, "_meanfield_rotations", past_the_budget)
    with pytest.raises(LookupError):
        dyn.evolve_meanfield(initial, params, 1.0, 2.0 * dt)


def test_work_budgets_refuse_before_running():
    params = jj.JJParams(e_c=0.2, lam=0.1, n_total=4, n_bar1=2.0)
    initial = jj.product_state(4, 2.0, 0.0, jj.sector_space(params))
    with pytest.raises(ResourceLimitError):
        dyn.evolve_meanfield(initial, params, 1.0, 1.0 / (dyn.STEP_LIMIT + 1))
    with pytest.raises(ResourceLimitError):
        dyn.evolve_exact(initial, params, 1.0, 4.0 / dyn.OUTPUT_WORK_LIMIT)
    with pytest.raises(ResourceLimitError):
        dyn.pendulum_trajectory(0.1, 0.0, 1.0, 1.0, 1.0 / (dyn.STEP_LIMIT + 1))
    with pytest.raises(ResourceLimitError):
        dyn.model_compare(params, 3.0, 0.0, 1e308)
    # one output spacing of 1e9 or 1e300, cut into about 1e11 or an
    # overflowing number of self-consistent steps of 0.01 / rate
    for span in (1e9, 1e300):
        with pytest.raises(ResourceLimitError, match="^steps"):
            dyn.evolve_meanfield(initial, params, span, span)


MODELS = {
    "exact": dyn.evolve_exact,
    "meanfield": dyn.evolve_meanfield,
    "pendulum": lambda initial, params, horizon, dt: dyn.pendulum_trajectory(
        0.3, 0.0, 1.0, horizon, dt),
}


@pytest.mark.parametrize("model", MODELS)
def test_every_model_refuses_a_bad_time_axis(model):
    params = jj.JJParams(e_c=0.2, lam=0.1, n_total=4, n_bar1=2.0)
    initial = displaced_initial(params, 0.3, n0=3.0)
    nan, inf = float("nan"), float("inf")
    for horizon, dt in ((-1.0, 0.1), (nan, 0.1), (inf, 0.1), (-inf, 0.1),
                        (1.0, nan), (1.0, 0.0), (1.0, -0.1), (1.0, -inf)):
        with pytest.raises(ContractViolationError):
            MODELS[model](initial, params, horizon, dt)
    # an infinite spacing is one output, at the horizon
    assert MODELS[model](initial, params, 2.0, inf).times.tolist() == [0.0, 2.0]
    assert MODELS[model](initial, params, 0.0, 0.1).times.tolist() == [0.0]


def test_measured_block_matches_single_states_and_keeps_its_nans():
    # random sector states, then |0, N>, |N, 0> and a state on even k only,
    # the last three with <a1+ a2> = 0
    n_total = 20
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((n_total + 1, 7)) + 1j * rng.standard_normal((n_total + 1, 7))
    even = np.where(np.arange(n_total + 1) % 2 == 0, rng.standard_normal(n_total + 1), 0)
    edges = np.stack([np.eye(n_total + 1)[0], np.eye(n_total + 1)[-1], even], axis=1)
    psi = np.concatenate([psi, edges], axis=1)
    psi /= np.linalg.norm(psi, axis=0)
    times = np.arange(psi.shape[1], dtype=float)
    space = fock.FockSpace.fixed_sector(n_total)
    params = jj.JJParams(e_c=0.3, lam=0.2, n_total=n_total, n_bar1=8.5)
    d, e = jj.charging_diagonal(params), jj.tunneling_offdiagonal(n_total, params.lam)
    traj = dyn._measured([(times[:4], psi[:, :4]), (times[4:], psi[:, 4:])], d, e, n_total)
    h = fock.LinearOperator(space, exact_hamiltonian(params), hermitian=True)
    states = [fock.StateVector(space, psi[:, j]) for j in range(psi.shape[1])]
    z = np.array([jj.coherence(st) for st in states])
    assert np.array_equal(np.isnan(traj.phi), np.abs(z) <= jj.COHERENCE_FLOOR)
    assert np.sum(np.isnan(traj.phi)) == 3
    assert np.allclose(traj.n1, [jj.mean_n1(st) for st in states], rtol=0, atol=1e-12)
    assert np.allclose(traj.fidelity, [jj.best_fit_product(st)[2] for st in states],
                       rtol=0, atol=1e-12)
    assert np.allclose(traj.energy, [fock.expectation(st, h).real for st in states],
                       rtol=0, atol=1e-12)
    assert np.all(traj.norm_drift <= 1e-15)


def test_exact_run_refuses_a_column_off_the_unit_sphere(monkeypatch):
    params = jj.JJParams(e_c=0.4, lam=0.3, n_total=30, n_bar1=15.0)
    initial = displaced_initial(params, 0.3)
    chunks = fock.propagate

    def one_column_stretched(*args, **kwargs):
        for i, (times, psi) in enumerate(chunks(*args, **kwargs)):
            if i == 1:
                psi[:, -1] *= 1.0 + 1e-9
            yield times, psi

    dyn.evolve_exact(initial, params, horizon=2.0, dt_out=0.05)
    monkeypatch.setattr(fock, "OUTPUT_CHUNK_WORK", 31 * 10)
    monkeypatch.setattr(fock, "propagate", one_column_stretched)
    with pytest.raises(ContractViolationError, match="norm deviates"):
        dyn.evolve_exact(initial, params, horizon=2.0, dt_out=0.05)


def test_trajectories_do_not_depend_on_the_output_chunk(monkeypatch):
    params = jj.JJParams(e_c=0.4, lam=0.3, n_total=30, n_bar1=15.0)
    initial = displaced_initial(params, 0.3, n0=17.0)
    runs = []
    for work in (fock.OUTPUT_CHUNK_WORK, 31, 31 * 7):
        monkeypatch.setattr(fock, "OUTPUT_CHUNK_WORK", work)
        runs.append((dyn.evolve_exact(initial, params, 3.0, 0.05),
                     dyn.evolve_meanfield(initial, params, 3.0, 0.05)))
    (exact, mf), others = runs[0], runs[1:]
    for other_exact, other_mf in others:
        for name in ("times", "n1", "phi", "norm_drift", "energy", "fidelity"):
            # measurement runs along each column alone; only the propagation's
            # matrix product may round differently for another block width
            assert np.allclose(getattr(other_exact, name), getattr(exact, name),
                               rtol=1e-13, atol=1e-13), name
            assert np.array_equal(getattr(other_mf, name), getattr(mf, name)), name
