import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.fock as fock
import beamlab.jj as jj
from beamlab.errors import ChargeRegimeWarning, ContractViolationError, DomainError


def params_for(n_total=200, n_bar1=None, e_c=0.2, lam=0.1):
    if n_bar1 is None:
        n_bar1 = n_total / 2
    return jj.JJParams(e_c=e_c, lam=lam, n_total=n_total, n_bar1=n_bar1)


def test_params_validation():
    with pytest.raises(DomainError):
        jj.JJParams(e_c=1.0, lam=1.0, n_total=10, n_bar1=0.0)
    with pytest.raises(DomainError):
        jj.JJParams(e_c=1.0, lam=1.0, n_total=10, n_bar1=10.0)
    with pytest.raises(DomainError):
        jj.JJParams(e_c=-1.0, lam=1.0, n_total=10, n_bar1=5.0)
    with pytest.raises(DomainError):
        jj.JJParams(e_c=1.0, lam=1.0, n_total=0, n_bar1=0.5)


def test_charge_regime_warning():
    with pytest.warns(ChargeRegimeWarning):
        jj.JJParams(e_c=1.0, lam=1.0, n_total=4, n_bar1=2.0)
    with pytest.warns(ChargeRegimeWarning):
        jj.JJParams(e_c=1.0, lam=1.0, n_total=1000, n_bar1=995.0)
    # both electrodes macroscopic: no warning
    p = params_for(200, 100.0)
    assert p.charge_qubit_regime


def test_charge_regime_warning_points_at_the_caller():
    with pytest.warns(ChargeRegimeWarning) as record:
        jj.JJParams(e_c=1.0, lam=1.0, n_total=4, n_bar1=2.0)
    assert record[0].filename == __file__


def test_derived_constants_examples():
    p = params_for(n_total=40, n_bar1=20.0, lam=0.3)
    dc = jj.derived_constants(p)
    assert dc.e_j == pytest.approx(0.3 * 40 / 2, rel=1e-12)      # lam * N/2

    p = params_for(n_total=100, n_bar1=50.0, lam=0.1, e_c=0.2)
    dc = jj.derived_constants(p)
    assert dc.e_j == pytest.approx(5.0, rel=1e-12)
    assert dc.omega == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert dc.omega ** 2 == pytest.approx(2 * p.e_c * dc.e_j, rel=1e-12)

    dc0 = jj.derived_constants(params_for(n_total=100, n_bar1=50.0, lam=0.0))
    assert dc0.e_j == 0.0
    assert dc0.omega == 0.0


def test_bose_hubbard_diagonal_spectrum_at_zero_tunneling():
    p = params_for(n_total=12, n_bar1=4.5, e_c=0.7, lam=0.0)
    space = jj.sector_space(p)
    h = jj.build_jj_hamiltonian(p, space, "bose_hubbard")
    evals = np.sort(np.linalg.eigvalsh(h.to_dense()))
    want = np.sort([0.7 * (n - 4.5) ** 2 for n in range(13)])
    assert np.allclose(evals, want, atol=1e-12)


def test_mean_field_vanishes_at_matched_mean():
    p = params_for(n_total=20, n_bar1=10.0)
    space = jj.sector_space(p)
    state = jj.product_state(20, 10.0, 0.3, space)
    h = jj.build_jj_hamiltonian(p, space, "mean_field", state)
    diag = h.to_dense().diagonal()
    assert np.max(np.abs(diag)) < 1e-10 * p.e_c * p.n_total


def test_hopping_spectrum_n2():
    # N=2, lam=1, E_C=0: eigenvalues {-1, 0, +1}; oracle is the explicit 3x3
    p = jj.JJParams(e_c=0.0, lam=1.0, n_total=2, n_bar1=1.0)
    space = jj.sector_space(p)
    for kind, state in (("bose_hubbard", None),
                        ("mean_field", jj.product_state(2, 1.0, 0.0, space))):
        h = jj.build_jj_hamiltonian(p, space, kind, state)
        oracle = np.array([[0, np.sqrt(2) / 2, 0],
                           [np.sqrt(2) / 2, 0, np.sqrt(2) / 2],
                           [0, np.sqrt(2) / 2, 0]])
        assert np.allclose(h.to_dense(), oracle, atol=1e-14)
        assert np.allclose(np.linalg.eigvalsh(oracle), [-1.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(h.to_dense()), [-1, 0, 1], atol=1e-12)


def test_hamiltonian_contract_errors():
    p = params_for(n_total=6, n_bar1=3.0)
    space = jj.sector_space(p)
    with pytest.raises(ContractViolationError):
        jj.build_jj_hamiltonian(p, space, "mean_field")      # state missing
    with pytest.raises(ContractViolationError):
        jj.build_jj_hamiltonian(p, fock.FockSpace.fixed_sector(7), "bose_hubbard")
    with pytest.raises(ContractViolationError):
        jj.build_jj_hamiltonian(p, fock.FockSpace.truncated([6, 6]), "bose_hubbard")
    with pytest.raises(ContractViolationError):
        jj.build_jj_hamiltonian(p, space, "quartic")


def test_hamiltonians_commute_with_total_number():
    p = params_for(n_total=9, n_bar1=4.0, e_c=0.5, lam=0.8)
    space = jj.sector_space(p)
    n_total_op = (fock.ladder_operator(space, 0, "number")
                  + fock.ladder_operator(space, 1, "number"))
    state = jj.product_state(9, 4.0, 0.2, space)
    for kind in ("bose_hubbard", "mean_field"):
        h = jj.build_jj_hamiltonian(p, space, kind, state)
        comm = (h @ n_total_op - n_total_op @ h).to_dense()
        assert np.max(np.abs(comm)) == 0.0


def test_hamiltonian_is_hermitian_tridiagonal():
    p = params_for(n_total=30, n_bar1=11.0)
    space = jj.sector_space(p)
    h = jj.build_jj_hamiltonian(p, space, "bose_hubbard")
    assert h.hermitian
    assert h.tridiagonal is not None
    assert h.hermiticity_defect() == 0.0
    d, e = h.tridiagonal
    dense = h.to_dense()
    assert np.allclose(dense.diagonal(), d)
    assert np.allclose(np.diag(dense, 1), e)


def test_product_state_single_pair():
    space = fock.FockSpace.fixed_sector(1)
    st1 = jj.product_state(1, 1.0, 0.7, space)
    assert abs(abs(st1.amplitudes[space.index_of((1, 0))]) - 1.0) < 1e-14
    st0 = jj.product_state(1, 0.0, 0.7, space)
    assert abs(abs(st0.amplitudes[space.index_of((0, 1))]) - 1.0) < 1e-14


def test_product_state_binomial_amplitudes_n2():
    space = fock.FockSpace.fixed_sector(2)
    state = jj.product_state(2, 1.0, 0.0, space)
    # binomial expansion oracle: sqrt(binom(2,k) (1/2)^2) over (|0,2>,|1,1>,|2,0>)
    want = np.array([0.5, 1 / np.sqrt(2), 0.5])
    assert np.allclose(state.amplitudes, want, atol=1e-14)


def test_product_state_phase_convention():
    space = fock.FockSpace.fixed_sector(5)
    phi = 0.9
    state = jj.product_state(5, 2.0, phi, space)
    ref = jj.product_state(5, 2.0, 0.0, space)
    assert np.all(ref.amplitudes.real > 0)          # positive chain at phi = 0
    k = np.arange(6)
    assert np.allclose(state.amplitudes, ref.amplitudes * np.exp(1j * k * phi))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 180), st.data())
def test_product_state_moments_property(n_total, data):
    n = data.draw(st.floats(0.05, 0.95)) * n_total
    space = fock.FockSpace.fixed_sector(n_total)
    state = jj.product_state(n_total, n, 0.0, space)
    p = n / n_total
    probs = state.probabilities()
    k = np.arange(n_total + 1)
    mean = float(k @ probs)
    var = float(((k - mean) ** 2) @ probs)
    assert mean == pytest.approx(n, abs=1e-10)
    assert var == pytest.approx(n_total * p * (1 - p), abs=1e-10)


def test_product_state_domain_errors():
    space = fock.FockSpace.fixed_sector(5)
    with pytest.raises(DomainError):
        jj.product_state(5, -0.5, 0.0, space)
    with pytest.raises(DomainError):
        jj.product_state(5, 5.5, 0.0, space)
    with pytest.raises(ContractViolationError):
        jj.product_state(5, 2.0, 0.0, fock.FockSpace.fixed_sector(6))


def test_overlap_law():
    # |<n,phi|n,phi'>| = |p e^{i(phi'-phi)} + 1 - p|^N
    rng = np.random.default_rng(8)
    for n_total in (3, 20, 87, 200):
        space = fock.FockSpace.fixed_sector(n_total)
        for _ in range(4):
            n = rng.uniform(0.1, 0.9) * n_total
            p = n / n_total
            phi1, phi2 = rng.uniform(-np.pi, np.pi, size=2)
            a = jj.product_state(n_total, n, phi1, space)
            b = jj.product_state(n_total, n, phi2, space)
            got = abs(a.overlap(b))
            want = abs(p * np.exp(1j * (phi2 - phi1)) + 1 - p) ** n_total
            assert got == pytest.approx(want, abs=1e-10)


def test_mean_field_charging_slope():
    # built from |nbar1 + delta, phi>, the charging diagonal is linear in k
    # with slope E_C * delta
    p = params_for(n_total=60, n_bar1=24.0, e_c=0.45, lam=0.0)
    space = jj.sector_space(p)
    delta = 3.25
    state = jj.product_state(60, p.n_bar1 + delta, 0.1, space)
    h = jj.build_jj_hamiltonian(p, space, "mean_field", state)
    diag = h.to_dense().diagonal().real
    slopes = np.diff(diag)
    assert np.allclose(slopes, p.e_c * delta, atol=1e-9)


def test_coherence_and_best_fit_roundtrip():
    space = fock.FockSpace.fixed_sector(40)
    state = jj.product_state(40, 17.0, -1.2, space)
    z = jj.coherence(state)
    p = 17.0 / 40.0
    assert abs(z) == pytest.approx(40 * np.sqrt(p * (1 - p)), rel=1e-12)
    assert np.angle(z) == pytest.approx(1.2, abs=1e-12)   # estimator reads -label
    n_fit, phi_fit, fid = jj.best_fit_product(state)
    assert n_fit == pytest.approx(17.0, abs=1e-10)
    assert phi_fit == pytest.approx(-1.2, abs=1e-12)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_vector_binomial_weights_match_the_pmf_and_the_scalar_call():
    from scipy.stats import binom

    ps = np.array([1e-3, 0.013, 0.3, 0.5, 0.77, 0.999])
    for n_total in (1, 2, 7, 200, 1999, 20000):
        block = jj.binomial_weights(n_total, ps)
        assert block.shape == (n_total + 1, len(ps))
        k = np.arange(n_total + 1)
        for j, p in enumerate(ps):
            # bit for bit, so a fidelity never depends on its batch
            assert np.array_equal(jj.binomial_weights(n_total, p), block[:, j])
            want = binom.pmf(k, n_total, p)
            seen = want > 1e-200
            rel = np.abs(block[seen, j] - want[seen]) / want[seen]
            assert np.max(rel) <= 1e-12, (n_total, p)
    assert np.array_equal(jj.binomial_weights(5, np.array([0.0, 1.0])),
                          np.eye(6)[:, [0, 5]])


def _sector_block(n_total, columns, seed):
    """Random normalized sector states as columns, then three edge columns:
    |0, N>, |N, 0> and a state on even k only, whose <a1+ a2> is 0."""
    rng = np.random.default_rng(seed)
    psi = (rng.standard_normal((n_total + 1, columns))
           + 1j * rng.standard_normal((n_total + 1, columns)))
    even = np.zeros(n_total + 1, dtype=complex)
    even[::2] = rng.standard_normal(len(even[::2]))
    edges = np.stack([np.eye(n_total + 1)[0], np.eye(n_total + 1)[-1], even], axis=1)
    psi = np.concatenate([psi, edges], axis=1)
    return psi / np.linalg.norm(psi, axis=0)


def test_block_measurement_matches_single_states_and_an_independent_oracle():
    from scipy.stats import binom

    n_total = 30
    psi = _sector_block(n_total, 9, seed=11)
    space = fock.FockSpace.fixed_sector(n_total)
    norm, n1, z = jj.sector_moments(psi)
    n_fit, phi_fit, fid = jj.product_fit(psi, n1, z)
    k = np.arange(n_total + 1)
    amp = np.sqrt((k[:-1] + 1.0) * (n_total - k[:-1]))
    for j in range(psi.shape[1]):
        # a column measures the same alone as in the block, bit for bit
        state = fock.StateVector(space, psi[:, j])
        assert n1[j] == jj.mean_n1(state)
        assert z[j] == jj.coherence(state)
        assert (n_fit[j], phi_fit[j], fid[j]) == jj.best_fit_product(state)
        # oracle: explicit sums and the scipy pmf
        col = psi[:, j]
        want_n1 = sum(kk * abs(a) ** 2 for kk, a in enumerate(col))
        want_z = np.vdot(col[1:], col[:-1] * amp)
        assert abs(norm[j] - 1.0) <= 1e-12
        assert abs(n1[j] - want_n1) <= 1e-12
        assert abs(z[j] - want_z) <= 1e-12
        phi = -np.angle(want_z) if abs(want_z) > 1e-12 else 0.0
        weights = binom.pmf(k, n_total, min(max(want_n1, 0.0), n_total) / n_total)
        want_fid = abs(np.vdot(np.sqrt(weights) * np.exp(1j * k * phi), col)) ** 2
        assert abs(fid[j] - want_fid) <= 1e-12
    # the edge columns: Fock endpoints fit exactly, and the even-k state
    # has no coherence, so its phase label is 0
    assert np.array_equal(n_fit[-3:-1], [0.0, n_total])
    assert np.allclose(fid[-3:-1], 1.0, atol=1e-15)
    assert np.all(np.abs(z[-3:]) < 1e-12) and np.all(phi_fit[-3:] == 0.0)
