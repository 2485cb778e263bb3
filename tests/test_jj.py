import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.dynamics as dyn
import beamlab.fock as fock
import beamlab.jj as jj
from beamlab.errors import ChargeRegimeWarning, ContractViolationError, DomainError


def params_for(n_total=200, n_bar1=None, e_c=0.2, lam=0.1):
    if n_bar1 is None:
        n_bar1 = n_total / 2
    return jj.JJParams(e_c=e_c, lam=lam, n_total=n_total, n_bar1=n_bar1)


def sector_hamiltonian(p, kind, state=None):
    """The sector Hamiltonian of either charging model as a scipy CSR
    matrix: the exact model from jj's arrays, the self-consistent one
    built here from <n1> on `state`, E_C (<n1> - nbar1)(k - nbar1)."""
    import scipy.sparse as sp
    if kind == "bose_hubbard":
        diag = jj.charging_diagonal(p)
    else:
        k = np.arange(p.n_total + 1, dtype=float)
        diag = p.e_c * (jj.mean_n1(state) - p.n_bar1) * (k - p.n_bar1)
    off = jj.tunneling_offdiagonal(p.n_total, p.lam)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr", dtype=complex)


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
    evals, _ = fock.eigh_tridiagonal(jj.charging_diagonal(p),
                                     jj.tunneling_offdiagonal(12, p.lam))
    want = np.sort([0.7 * (n - 4.5) ** 2 for n in range(13)])
    assert np.allclose(evals, want, atol=1e-12)


def test_mean_field_vanishes_at_matched_mean():
    p = params_for(n_total=20, n_bar1=10.0)
    space = jj.sector_space(p)
    state = jj.product_state(20, 10.0, 0.3, space)
    h = sector_hamiltonian(p, "mean_field", state)
    diag = h.toarray().diagonal()
    assert np.max(np.abs(diag)) < 1e-10 * p.e_c * p.n_total


def test_hopping_spectrum_n2():
    # N=2, lam=1, E_C=0: eigenvalues {-1, 0, +1}; oracle is the explicit 3x3
    p = jj.JJParams(e_c=0.0, lam=1.0, n_total=2, n_bar1=1.0)
    space = jj.sector_space(p)
    for kind, state in (("bose_hubbard", None),
                        ("mean_field", jj.product_state(2, 1.0, 0.0, space))):
        h = sector_hamiltonian(p, kind, state)
        oracle = np.array([[0, np.sqrt(2) / 2, 0],
                           [np.sqrt(2) / 2, 0, np.sqrt(2) / 2],
                           [0, np.sqrt(2) / 2, 0]])
        assert np.allclose(h.toarray(), oracle, atol=1e-14)
        assert np.allclose(np.linalg.eigvalsh(oracle), [-1.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(h.toarray()), [-1, 0, 1], atol=1e-12)


def test_hamiltonian_contract_errors():
    # both models refuse a state off their parameter sector
    p = params_for(n_total=6, n_bar1=3.0)
    for model in (dyn.evolve_exact, dyn.evolve_meanfield):
        for space in (fock.FockSpace.fixed_sector(7), fock.FockSpace.truncated([6, 6])):
            state = fock.basis_state(space, (3, 4) if space.kind == "fixed_sector"
                                     else (3, 3))
            with pytest.raises(ContractViolationError):
                model(state, p, 1.0, 0.1)


def test_hamiltonians_commute_with_total_number():
    p = params_for(n_total=9, n_bar1=4.0, e_c=0.5, lam=0.8)
    space = jj.sector_space(p)
    n_total_op = (fock.ladder_operator(space, 0, "number")
                  + fock.ladder_operator(space, 1, "number"))
    state = jj.product_state(9, 4.0, 0.2, space)
    for kind in ("bose_hubbard", "mean_field"):
        h = sector_hamiltonian(p, kind, state)
        comm = (h @ n_total_op - n_total_op @ h).toarray()
        assert np.max(np.abs(comm)) == 0.0


def test_hamiltonian_is_hermitian_tridiagonal():
    p = params_for(n_total=30, n_bar1=11.0)
    dense = sector_hamiltonian(p, "bose_hubbard").toarray()
    assert np.array_equal(dense, dense.conj().T)
    assert not np.any(np.imag(dense))
    assert not np.any(np.triu(dense, 2)) and not np.any(np.tril(dense, -2))
    assert np.allclose(dense.diagonal(), jj.charging_diagonal(p))
    assert np.allclose(np.diag(dense, 1), jj.tunneling_offdiagonal(p.n_total, p.lam))


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
    probs = np.abs(state.amplitudes) ** 2
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
            got = abs(np.vdot(a.amplitudes, b.amplitudes))
            want = abs(p * np.exp(1j * (phi2 - phi1)) + 1 - p) ** n_total
            assert got == pytest.approx(want, abs=1e-10)


def test_coherence_refuses_a_truncated_space_state():
    state = fock.basis_state(fock.FockSpace.truncated([3, 3]), (1, 2))
    with pytest.raises(ContractViolationError, match="coherence"):
        jj.coherence(state)


def test_mean_field_charging_slope():
    # built from |nbar1 + delta, phi>, the charging diagonal is linear in k
    # with slope E_C * delta
    p = params_for(n_total=60, n_bar1=24.0, e_c=0.45, lam=0.0)
    space = jj.sector_space(p)
    delta = 3.25
    state = jj.product_state(60, p.n_bar1 + delta, 0.1, space)
    h = sector_hamiltonian(p, "mean_field", state)
    diag = h.toarray().diagonal().real
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


# -- the fit on its own rows ---------------------------------------------------


def _all_rows_pmf(n_total, ps):
    """Oracle: the binomial pmf on all N + 1 rows, one column per p, as
    jj.binomial_weights built it before it took a row range."""
    ps = np.asarray(ps, dtype=float)
    k = np.arange(n_total, dtype=np.longdouble)
    above = k >= np.minimum((ps * (n_total + 1)).astype(int), n_total)[:, None]
    w = np.ones((len(ps), n_total + 1), dtype=np.longdouble)
    with np.errstate(divide="ignore"):
        ratio = (ps.astype(np.longdouble) / (1.0 - ps).astype(np.longdouble))[:, None]
        up = ratio * (n_total - k) / (k + 1)
        down = (k + 1) / (ratio * (n_total - k))
    up[~above] = 1
    down[above] = 1
    w[:, 1:] = np.cumprod(up, axis=1)
    w[:, :-1] *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    w /= w.sum(axis=1, keepdims=True)
    w[w < np.longdouble(2) ** -1075] = 0
    return w.astype(float).T


def _all_rows_fidelity(psi, n1, z, n_total, first):
    """Oracle: jj.product_fit's fidelity with the product states built on
    all N + 1 rows."""
    n_fit = np.clip(n1, 0.0, float(n_total))
    phi_fit = np.where(np.abs(z) > jj.COHERENCE_FLOOR, -np.angle(z), 0.0)
    weights = _all_rows_pmf(n_total, n_fit / n_total).T
    k = np.arange(first, first + len(psi))
    fit = np.sqrt(weights[:, k]) * np.exp(1j * np.outer(phi_fit, k))
    overlap = np.sum(np.conj(fit) * psi.T, axis=1)
    return np.minimum(np.abs(overlap) ** 2 / np.sum(weights, axis=1), 1.0)


def _hoeffding_rows(n_total, lo_n, hi_n):
    """The rows within ceil(sqrt(37 N)) + 16 of [lo_n, hi_n]."""
    reach = int(np.ceil(np.sqrt(37 * n_total))) + 16
    return range(max(int(np.floor(lo_n)) - reach, 0),
                 min(int(np.ceil(hi_n)) + reach + 1, n_total + 1))


@pytest.mark.parametrize("n_total", [200, 1999, 100_000])
def test_binomial_weights_on_a_row_range_match_the_all_rows_pmf(n_total):
    tiny = np.finfo(float).tiny
    ps = [0.0, 1e-7, 3e-4, 0.37, 0.5, 1.0 - 3e-4, 1.0 - 1e-7, 1.0]
    whole = _all_rows_pmf(n_total, ps)
    for j, p in enumerate(ps):
        rows = _hoeffding_rows(n_total, n_total * p, n_total * p)
        got = jj.binomial_weights(n_total, p, rows)
        want = whole[rows.start:rows.stop, j]
        assert got.shape == (len(rows),)
        normal = want >= tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal]), p
        assert np.all(got[~normal] < 1e-300), p
        if p in (0.0, 1.0):     # the Fock states, exactly
            assert np.array_equal(got, want)
    # a block on one range: each column as its scalar call, bit for bit
    block_ps = np.array([0.49, 0.5, 0.5003, 0.51])
    rows = _hoeffding_rows(n_total, n_total * 0.49, n_total * 0.51)
    block = jj.binomial_weights(n_total, block_ps, rows)
    assert block.shape == (len(rows), 4)
    for j, p in enumerate(block_ps):
        assert np.array_equal(jj.binomial_weights(n_total, p, rows), block[:, j])


def _window_block(n_total, seed):
    """Sector states on the rows where a product state at n = N/2 holds more
    than 1e-32, and 16 rows more on each side, as the exact model keeps
    them: three product states, a superposition of two others, and a
    product state with noise; and the window's first row."""
    half = n_total / 2
    sigma = np.sqrt(n_total) / 2
    ns = np.array([half, half - 2 * sigma, half + 3 * sigma, half + 0.3, half - sigma])
    whole = _all_rows_pmf(n_total, ns / n_total)
    support = np.flatnonzero(whole[:, 0] > 1e-32)
    first, stop = support[0] - 16, support[-1] + 17
    k = np.arange(first, stop)
    phis = np.array([0.3, -2.0, 1.1, 3.0, 0.0])
    psi = np.sqrt(whole[first:stop]) * np.exp(1j * np.outer(k, phis))
    rng = np.random.default_rng(seed)
    mixed = psi[:, 1] + psi[:, 2] * np.exp(0.7j)
    noisy = psi[:, 0] + 1e-2 * (rng.standard_normal(len(k))
                                + 1j * rng.standard_normal(len(k)))
    psi = np.column_stack([psi[:, [0, 3, 4]], mixed, noisy])
    return psi / np.linalg.norm(psi, axis=0), int(first)


@pytest.mark.parametrize("n_total", [1999, 100_000])
def test_product_fit_matches_the_all_rows_oracle(n_total):
    psi, first = _window_block(n_total, seed=5)
    norm, n1, z = jj.sector_moments(psi, n_total, first)
    n_fit, phi_fit, fid = jj.product_fit(psi, n1, z, n_total, first)
    want = _all_rows_fidelity(psi, n1, z, n_total, first)
    assert np.all(np.abs(fid - want) <= 1e-15), np.max(np.abs(fid - want))
    assert np.all(fid[:3] > 1.0 - 1e-12) and np.all(fid[3:] < 0.999)
    assert np.array_equal(n_fit, n1)
    # the self-consistent model's form: one state on all N + 1 rows
    whole = np.zeros((n_total + 1, 1), dtype=complex)
    whole[first:first + len(psi)] = psi[:, 3:4]
    _, _, fid_whole = jj.product_fit(whole, n1[3:4], z[3:4])
    assert abs(fid_whole[0] - _all_rows_fidelity(whole, n1[3:4], z[3:4], n_total, 0)[0]) \
        <= 1e-15
    # a window that shares no row with the fitted state's rows overlaps nothing
    far = psi[:64, :1] / np.linalg.norm(psi[:64, :1])
    assert jj.product_fit(far, n1[:1], z[:1], n_total, 0)[2][0] == 0.0
    assert _all_rows_fidelity(far, n1[:1], z[:1], n_total, 0)[0] == 0.0


def test_product_fit_builds_no_row_beyond_the_hoeffding_range(monkeypatch):
    n_total = 100_000
    asked = []
    binomial_weights = jj.binomial_weights

    def spy(n, p, rows=None):
        asked.append((np.min(p) * n, np.max(p) * n, rows))
        return binomial_weights(n, p, rows)

    psi, first = _window_block(n_total, seed=6)
    assert 3500 < len(psi) < 4500
    params = jj.JJParams(e_c=40.0 / n_total, lam=0.1, n_total=n_total,
                         n_bar1=n_total / 2)
    initial = jj.product_state(n_total, n_total / 2 + 40, 0.05, jj.sector_space(params))
    monkeypatch.setattr(jj, "binomial_weights", spy)
    jj.product_fit(psi, *jj.sector_moments(psi, n_total, first)[1:], n_total, first)
    # the self-consistent model fits against its initial state's N + 1 rows
    traj = dyn.evolve_meanfield(initial, params, 1.0, 0.1)
    assert len(traj.times) == 11 and np.min(traj.fidelity) > 1.0 - 1e-9
    assert len(asked) >= 3
    for lo_n, hi_n, rows in asked:
        allowed = _hoeffding_rows(n_total, lo_n, hi_n)
        assert rows is not None and allowed.start <= rows.start
        assert rows.stop <= allowed.stop and len(rows) < 4500
