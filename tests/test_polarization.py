import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.fock as fock
import beamlab.jj as jj
import beamlab.polarization as pol
from beamlab.errors import DomainError
from oracles import (
    expectation,
    hopping_operator,
    mueller_matrix,
    omega_from_state,
    polarizer_map,
)


def test_convert_trivial_cases():
    unpol = pol.stokes_to_omega(pol.StokesVector(1, 0, 0, 0))
    assert np.allclose(unpol.matrix, 0.5 * np.eye(2))
    s_pol = pol.stokes_to_omega(pol.StokesVector(1, 0, 0, 1))
    assert np.allclose(s_pol.matrix, np.diag([1.0, 0.0]))
    m_pol = pol.stokes_to_omega(pol.StokesVector(1, 1, 0, 0))
    assert np.allclose(m_pol.matrix, 0.5 * np.ones((2, 2)))


def test_convert_roundtrip():
    sv = pol.StokesVector(2.0, 0.3, -0.4, 1.1)
    back = pol.omega_to_stokes(pol.stokes_to_omega(sv))
    assert np.max(np.abs(back.as_array() - sv.as_array())) < 1e-14


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3), finite, finite, finite,
       st.floats(min_value=0.0, max_value=0.999))
def test_roundtrip_property(intensity, x, y, z, shrink):
    r = np.sqrt(x * x + y * y + z * z)
    if r > 0:
        x, y, z = (v / r * shrink * intensity for v in (x, y, z))
    sv = pol.StokesVector(intensity, x, y, z)
    back = pol.omega_to_stokes(pol.stokes_to_omega(sv))
    assert np.max(np.abs(back.as_array() - sv.as_array())) <= 1e-14 * max(1.0, intensity)


def test_stokes_constraint_iff_psd():
    rng = np.random.default_rng(3)
    for _ in range(300):
        i = rng.uniform(0.1, 3.0)
        vec = rng.standard_normal(3)
        vec *= rng.uniform(0.0, 1.6) * i / np.linalg.norm(vec)
        valid_stokes = i >= np.linalg.norm(vec) - 1e-12
        m = 0.5 * (i * pol.SIGMA_0 + vec[0] * pol.SIGMA_X
                   + vec[1] * pol.SIGMA_Y + vec[2] * pol.SIGMA_Z)
        psd = np.linalg.eigvalsh(m)[0] >= -1e-12
        assert valid_stokes == psd
        if not valid_stokes:
            with pytest.raises(DomainError):
                pol.StokesVector(i, *vec)
            with pytest.raises(DomainError):
                pol.CorrelationMatrix2(m)


def test_constraint_error_names_inequality():
    with pytest.raises(DomainError, match="sqrt"):
        pol.StokesVector(1.0, 1.0, 1.0, 0.0)


def test_omega_from_state_examples():
    space = fock.FockSpace.truncated([2, 2])
    om = omega_from_state(fock.basis_state(space, (1, 0)))
    assert np.allclose(om.matrix, np.diag([1.0, 0.0]))

    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of((1, 0))] = 1 / np.sqrt(2)
    amps[space.index_of((0, 1))] = 1 / np.sqrt(2)
    om = omega_from_state(fock.StateVector(space, amps))
    # hand oracle: <a_nu+ a_mu> on (|1,0> + |0,1>)/sqrt(2)
    assert np.allclose(om.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)

    om2 = omega_from_state(fock.basis_state(space, (2, 0)))
    assert np.allclose(om2.matrix, np.diag([2.0, 0.0]))
    assert np.trace(om2.matrix).real == pytest.approx(2.0, abs=1e-12)

    # complex relative phase pins the off-diagonal orientation:
    # (|1,0> + i|0,1>)/sqrt(2) has Omega[0,1] = <a_1+ a_0> = -i/2
    amps_i = np.zeros(space.dimension, dtype=complex)
    amps_i[space.index_of((1, 0))] = 1 / np.sqrt(2)
    amps_i[space.index_of((0, 1))] = 1j / np.sqrt(2)
    om3 = omega_from_state(fock.StateVector(space, amps_i))
    assert om3.matrix[0, 1] == pytest.approx(-0.5j, abs=1e-12)
    assert om3.matrix[1, 0] == pytest.approx(0.5j, abs=1e-12)
    # and the corresponding Stokes component is C = +1 under the frozen
    # Pauli assignment
    sv = pol.omega_to_stokes(om3)
    assert sv.c == pytest.approx(1.0, abs=1e-12)
    assert abs(sv.m) < 1e-12 and abs(sv.s) < 1e-12


def test_omega_from_state_trace_is_mean_photon_number():
    rng = np.random.default_rng(7)
    space = fock.FockSpace.truncated([3, 3])
    n0 = fock.ladder_operator(space, 0, "number")
    n1 = fock.ladder_operator(space, 1, "number")
    for _ in range(50):
        z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        state = fock.StateVector(space, z, normalize=True)
        om = omega_from_state(state)
        want = (expectation(state, n0) + expectation(state, n1)).real
        assert np.trace(om.matrix).real == pytest.approx(want, abs=1e-10)


def test_omega_from_state_sector_support():
    sector = fock.FockSpace.fixed_sector(6)
    state = jj.product_state(6, 2.5, 0.4, sector)
    om = omega_from_state(state)
    assert np.trace(om.matrix).real == pytest.approx(6.0, abs=1e-10)
    assert om.matrix[0, 0].real == pytest.approx(2.5, abs=1e-10)


def _seeded_states(space, seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        yield fock.StateVector(space, z, normalize=True)


@pytest.mark.parametrize("space", [fock.FockSpace.truncated(c)
                                   for c in ([2, 3], [1, 2, 2], [3, 3, 3, 3])]
                         + [fock.FockSpace.fixed_sector(n) for n in (1, 17, 200)],
                         ids=repr)
def test_omega_from_state_matches_the_sparse_oracle(space):
    # every entry <a_nu+ a_mu> from the sparse ladder and hopping matrices
    ops = [[hopping_operator(space, nu, mu) for nu in (0, 1)] for mu in (0, 1)]
    for state in _seeded_states(space, space.dimension):
        want = np.array([[expectation(state, op) for op in row] for row in ops])
        got = omega_from_state(state).matrix
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n_total", [1, 17, 200])
def test_omega_from_state_on_a_sector_is_the_junction_bloch_matrix(n_total):
    space = fock.FockSpace.fixed_sector(n_total)
    states = [*_seeded_states(space, n_total),
              jj.product_state(n_total, 0.3 * n_total, 0.8, space)]
    for state in states:
        n1, z = jj.mean_n1(state), jj.coherence(state)
        want = np.array([[n1, np.conj(z)], [z, n_total - n1]])
        got = omega_from_state(state).matrix
        assert np.max(np.abs(got - want)) <= 1e-12


def test_additive_expectation_examples():
    om = pol.CorrelationMatrix2(np.diag([1.0, 0.0]).astype(complex))
    assert np.sum(np.eye(2) * om.matrix) == pytest.approx(np.trace(om.matrix).real)
    assert np.sum(np.diag([1.0, 0.0]) * om.matrix) == pytest.approx(1.0)
    om2 = pol.CorrelationMatrix2(0.5 * np.ones((2, 2), dtype=complex))
    assert np.sum(pol.SIGMA_X * om2.matrix) == pytest.approx(1.0)


def test_additive_matches_operator_expectation():
    # sum_{mu nu} k[mu,nu] Omega[mu,nu] == <K> with K = sum k[mu,nu] a_nu+ a_mu
    rng = np.random.default_rng(21)
    space = fock.FockSpace.truncated([3, 3])
    # entry (mu, nu) of the coefficient matrix multiplies a_nu+ a_mu
    ops = {(mu, nu): hopping_operator(space, nu, mu)
           for mu in (0, 1) for nu in (0, 1)}
    for _ in range(1000):
        z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        state = fock.StateVector(space, z, normalize=True)
        om = omega_from_state(state)
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        via_omega = np.sum(k * om.matrix)
        assembled = sum(k[mu, nu] * expectation(state, ops[(mu, nu)])
                        for mu in (0, 1) for nu in (0, 1))
        assert abs(via_omega - assembled) < 1e-10


def test_apply_device_map_examples():
    unpol = pol.CorrelationMatrix2(0.5 * np.eye(2, dtype=complex))
    assert np.allclose(pol.apply_device_map(unpol, pol.DeviceMap((np.eye(2),))).matrix,
                       unpol.matrix)
    through = pol.apply_device_map(unpol, polarizer_map(0))
    assert np.allclose(through.matrix, np.diag([0.5, 0.0]))
    assert np.trace(through.matrix).real == pytest.approx(0.5)

    swap = pol.DeviceMap((pol.SIGMA_X,))
    flipped = pol.apply_device_map(
        pol.CorrelationMatrix2(np.diag([1.0, 0.0]).astype(complex)), swap)
    assert np.allclose(flipped.matrix, np.diag([0.0, 1.0]))


def _random_device_map(rng, n_kraus):
    ks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
          for _ in range(n_kraus)]
    total = sum(k.conj().T @ k for k in ks)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1]) * (1 + 1e-9)
    return pol.DeviceMap(tuple(k / scale for k in ks))


def test_random_device_maps_preserve_psd():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        dmap = _random_device_map(rng, rng.integers(1, 4))
        i = rng.uniform(0.1, 2.0)
        vec = rng.standard_normal(3)
        vec *= rng.uniform(0.0, 0.999) * i / np.linalg.norm(vec)
        omega = pol.stokes_to_omega(pol.StokesVector(i, *vec))
        out = pol.apply_device_map(omega, dmap)   # constructor validates PSD
        assert np.trace(out.matrix).real <= np.trace(omega.matrix).real + 1e-12


def test_trace_increasing_map_rejected():
    with pytest.raises(DomainError, match="trace"):
        pol.DeviceMap((np.sqrt(1.5) * np.eye(2, dtype=complex),))


def test_mueller_matrix_export():
    mm = mueller_matrix(polarizer_map(0))
    out = mm @ np.array([1.0, 0.0, 0.0, 0.0])
    # mode-0 projector halves unpolarized intensity, output fully mode-polarized
    assert np.allclose(out, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    # Mueller action agrees with the operator-sum action on random inputs
    rng = np.random.default_rng(5)
    dmap = _random_device_map(rng, 2)
    mm = mueller_matrix(dmap)
    for _ in range(25):
        i = rng.uniform(0.2, 2.0)
        vec = rng.standard_normal(3)
        vec *= rng.uniform(0.0, 0.99) * i / np.linalg.norm(vec)
        sv = pol.StokesVector(i, *vec)
        direct = pol.omega_to_stokes(
            pol.apply_device_map(pol.stokes_to_omega(sv), dmap)).as_array()
        assert np.allclose(mm @ sv.as_array(), direct, atol=1e-12)


def test_tomography_noiseless_limit():
    sv = pol.StokesVector(1.4, 0.3, -0.2, 0.5)
    res = pol.tomography_simulate(pol.stokes_to_omega(sv), 100, seed=0, noise=False)
    assert np.allclose(res.estimate, sv.as_array(), atol=1e-12)
    assert np.allclose(res.true_values, sv.as_array(), atol=1e-12)


def test_tomography_deterministic():
    om = pol.CorrelationMatrix2(np.diag([1.0, 0.0]).astype(complex))
    a = pol.tomography_simulate(om, 5000, seed=123)
    b = pol.tomography_simulate(om, 5000, seed=123)
    assert a == b
    c = pol.tomography_simulate(om, 5000, seed=124)
    assert a != c


def test_tomography_monte_carlo_coverage():
    # S estimate within 5 standard errors of 1.0 for >= 99.9% of seeds
    om = pol.CorrelationMatrix2(np.diag([1.0, 0.0]).astype(complex))
    hits = 0
    for seed in range(1000):
        r = pol.tomography_simulate(om, 10_000, seed)
        if abs(r.estimate[3] - 1.0) <= 5.0 * r.standard_errors[3]:
            hits += 1
    assert hits >= 999


def test_tomography_errors_shrink_with_shots():
    om = pol.stokes_to_omega(pol.StokesVector(1.0, 0.2, 0.1, 0.4))
    few = pol.tomography_simulate(om, 100, seed=9)
    many = pol.tomography_simulate(om, 10_000, seed=9)
    for a, b in zip(few.standard_errors, many.standard_errors):
        assert b == pytest.approx(a / 10.0, rel=0.25)
    with pytest.raises(DomainError):
        pol.tomography_simulate(om, 0, seed=1)
