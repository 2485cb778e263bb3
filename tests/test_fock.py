import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.fock as fock
from beamlab.errors import (
    ContractViolationError,
    ResourceLimitError,
    UnsupportedOperatorError,
)


def test_space_dimensions():
    assert fock.FockSpace.truncated([3]).dimension == 4
    assert fock.FockSpace.fixed_sector(100).dimension == 101
    assert fock.FockSpace.truncated([3, 3, 3, 3]).dimension == 256


def test_space_errors():
    with pytest.raises(ContractViolationError):
        fock.FockSpace.truncated([])
    with pytest.raises(ContractViolationError):
        fock.FockSpace.truncated([-1])
    with pytest.raises(ResourceLimitError):
        fock.FockSpace.truncated([9] * 7)  # 10^7 basis states
    with pytest.raises(ResourceLimitError):
        fock.FockSpace.fixed_sector(2_000_000)


def test_index_occupation_roundtrip_exhaustive():
    space = fock.FockSpace.truncated([2, 3, 1])
    seen = set()
    for idx in range(space.dimension):
        occ = space.occupation_of(idx)
        assert space.index_of(occ) == idx
        seen.add(occ)
    assert len(seen) == space.dimension

    sector = fock.FockSpace.fixed_sector(17)
    for idx in range(sector.dimension):
        occ = sector.occupation_of(idx)
        assert occ == (idx, 17 - idx)
        assert sector.index_of(occ) == idx


def test_basis_ordering_mode0_slowest():
    space = fock.FockSpace.truncated([1, 2])
    # mode 0 is the slowest-varying index
    assert [space.occupation_of(i) for i in range(space.dimension)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
       st.data())
def test_roundtrip_property(cutoffs, data):
    space = fock.FockSpace.truncated(cutoffs)
    occ = tuple(data.draw(st.integers(0, c)) for c in cutoffs)
    assert space.occupation_of(space.index_of(occ)) == occ


def test_annihilate_examples():
    space = fock.FockSpace.truncated([5])
    a = fock.ladder_operator(space, 0, "annihilate")
    one = fock.basis_state(space, (1,))
    out = a.apply(one.amplitudes)
    assert out[space.index_of((0,))] == 1.0
    assert np.count_nonzero(out) == 1

    vac = fock.basis_state(space, (0,))
    assert np.allclose(a.apply(vac.amplitudes), 0.0)


def test_number_eigenvalues_all_levels():
    space = fock.FockSpace.truncated([6])
    n_op = fock.ladder_operator(space, 0, "number")
    for n in range(7):
        state = fock.basis_state(space, (n,))
        assert fock.expectation(state, n_op) == n


def test_create_is_exact_adjoint():
    space = fock.FockSpace.truncated([4, 3])
    for mode in (0, 1):
        a = fock.ladder_operator(space, mode, "annihilate")
        adag = fock.ladder_operator(space, mode, "create")
        diff = adag.matrix - a.matrix.conjugate().transpose()
        assert diff.nnz == 0


def test_create_drops_amplitude_at_cutoff():
    space = fock.FockSpace.truncated([2])
    adag = fock.ladder_operator(space, 0, "create")
    top = fock.basis_state(space, (2,))
    assert np.allclose(adag.apply(top.amplitudes), 0.0)


def test_commutator_defect_confined_to_boundary():
    space = fock.FockSpace.truncated([3, 2])
    for mode in (0, 1):
        a = fock.ladder_operator(space, mode, "annihilate")
        adag = fock.ladder_operator(space, mode, "create")
        comm = (a @ adag - adag @ a).to_dense()
        occ = space.number_diagonal(mode)
        cutoff = space.cutoffs[mode]
        for idx in range(space.dimension):
            e = np.zeros(space.dimension)
            e[idx] = 1.0
            result = comm @ e
            if occ[idx] < cutoff:
                assert np.allclose(result, e, atol=1e-12)
            else:
                # raising off the top is dropped, so [a, a+] = -n there
                assert np.allclose(result, -occ[idx] * e, atol=1e-12)


def test_fixed_sector_operators():
    sector = fock.FockSpace.fixed_sector(5)
    with pytest.raises(UnsupportedOperatorError):
        fock.ladder_operator(sector, 0, "annihilate")
    with pytest.raises(UnsupportedOperatorError):
        fock.ladder_operator(sector, 1, "create")
    n0 = fock.ladder_operator(sector, 0, "number")
    n1 = fock.ladder_operator(sector, 1, "number")
    total = (n0 + n1).to_dense()
    assert np.allclose(total, 5 * np.eye(6))
    hop_up = fock.hopping_operator(sector, 0, 1)     # a1+ a2
    hop_dn = fock.hopping_operator(sector, 1, 0)
    assert np.allclose(hop_up.to_dense().conj().T, hop_dn.to_dense())
    # matrix element <k+1| a1+ a2 |k> = sqrt((k+1)(N-k))
    dense = hop_up.to_dense()
    for k in range(5):
        assert dense[k + 1, k] == pytest.approx(np.sqrt((k + 1) * (5 - k)))


def test_hopping_matches_ladder_product_on_truncated():
    space = fock.FockSpace.truncated([3, 3])
    hop = fock.hopping_operator(space, 0, 1)
    explicit = (fock.ladder_operator(space, 0, "create")
                @ fock.ladder_operator(space, 1, "annihilate"))
    assert np.allclose(hop.to_dense(), explicit.to_dense())


def test_expectation_examples():
    space = fock.FockSpace.truncated([1, 1])
    n0 = fock.ladder_operator(space, 0, "number")
    assert fock.expectation(fock.basis_state(space, (1, 0)), n0) == 1
    assert fock.expectation(fock.basis_state(space, (0, 0)), n0) == 0

    # (|1,0> + |0,1>)/sqrt(2) with a0+ a1: hand oracle on the 4-dim basis
    amps = np.zeros(4, dtype=complex)
    amps[space.index_of((1, 0))] = 1 / np.sqrt(2)
    amps[space.index_of((0, 1))] = 1 / np.sqrt(2)
    state = fock.StateVector(space, amps)
    hop = fock.hopping_operator(space, 0, 1)
    oracle = np.zeros((4, 4), dtype=complex)
    oracle[space.index_of((1, 0)), space.index_of((0, 1))] = 1.0  # sqrt(1*1)
    assert np.allclose(hop.to_dense(), oracle)
    val = fock.expectation(state, hop)
    assert val == pytest.approx(0.5, abs=1e-14)


def test_expectation_hermitian_has_real_value():
    rng = np.random.default_rng(13)
    space = fock.FockSpace.truncated([3, 3])
    hop = fock.hopping_operator(space, 0, 1)
    h = (hop + hop.dagger() + 2.0 * fock.ladder_operator(space, 0, "number"))
    h = h.marked_hermitian()
    for _ in range(50):
        z = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        state = fock.StateVector(space, z, normalize=True)
        assert abs(fock.expectation(state, h).imag) <= 1e-12


def test_expectation_space_mismatch():
    a = fock.FockSpace.truncated([1])
    b = fock.FockSpace.truncated([2])
    with pytest.raises(ContractViolationError):
        fock.expectation(fock.basis_state(a, (0,)),
                         fock.ladder_operator(b, 0, "number"))


def test_state_validation():
    space = fock.FockSpace.truncated([1])
    with pytest.raises(ContractViolationError):
        fock.StateVector(space, np.array([1.0, 1.0]))
    st = fock.StateVector(space, np.array([1.0, 1.0]), normalize=True)
    assert st.norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ContractViolationError):
        fock.StateVector(space, np.zeros(2), normalize=True)


def test_state_is_immutable():
    space = fock.FockSpace.truncated([1])
    source = np.array([1.0, 0.0], dtype=complex)
    state = fock.StateVector(space, source)
    source[0] = 5.0                      # caller-side mutation cannot leak in
    assert state.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0


def test_evolve_zero_hamiltonian_is_identity():
    space = fock.FockSpace.truncated([2, 2])
    zero = fock.LinearOperator(space, sp.csr_matrix((9, 9), dtype=complex),
                               hermitian=True)
    amps = np.exp(1j * np.arange(9))
    state = fock.StateVector(space, amps, normalize=True)
    out = fock.evolve_unitary(state, zero, 3.7)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_number_phase():
    space = fock.FockSpace.truncated([3])
    n_op = fock.ladder_operator(space, 0, "number")
    state = fock.basis_state(space, (1,))
    out = fock.evolve_unitary(state, n_op, 0.8)
    assert out.amplitudes[1] == pytest.approx(np.exp(-0.8j), abs=1e-13)


def test_evolve_requires_hermitian():
    space = fock.FockSpace.truncated([1])
    a = fock.ladder_operator(space, 0, "annihilate")
    state = fock.basis_state(space, (1,))
    with pytest.raises(ContractViolationError):
        fock.evolve_unitary(state, a, 1.0)


def test_sector_rabi_oscillation():
    # N=1 sector, H = (lam/2)(a1 a2+ + a1+ a2): <n1>(t) = cos^2(lam t / 2).
    # Oracle: exact 2x2 eigendecomposition done by hand below.
    lam = 0.7
    sector = fock.FockSpace.fixed_sector(1)
    hop = fock.hopping_operator(sector, 0, 1)
    h = (0.5 * lam * (hop + hop.dagger())).marked_hermitian()
    n1 = fock.ladder_operator(sector, 0, "number")
    state = fock.basis_state(sector, (1, 0))
    h2 = np.array([[0.0, lam / 2], [lam / 2, 0.0]])
    w, v = np.linalg.eigh(h2)
    for t in np.linspace(0.0, 12.0, 17):
        out = fock.evolve_unitary(state, h, t)
        got = fock.expectation(out, n1).real
        # independent route: propagate with the hand eigendecomposition
        c0 = v.conj().T @ np.array([0.0, 1.0])  # basis index 1 is (1, 0)
        psi = v @ (np.exp(-1j * w * t) * c0)
        assert got == pytest.approx(abs(psi[1]) ** 2, abs=1e-12)
        assert got == pytest.approx(np.cos(lam * t / 2) ** 2, abs=1e-12)


def _random_hermitian_operator(space, rng, density=0.2):
    dim = space.dimension
    m = sp.random(dim, dim, density=density, random_state=rng, dtype=complex,
                  data_rvs=lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n))
    m = (m + m.conjugate().transpose()) * 0.5
    return fock.LinearOperator(space, m.tocsr(), hermitian=True)


def test_sector_evolution_at_n2500_conserves_norm_energy_and_number():
    # a tridiagonal sector Hamiltonian at N = 2500, built from ladder operators
    n_tot = 2500
    sector = fock.FockSpace.fixed_sector(n_tot)
    hop = fock.hopping_operator(sector, 0, 1)
    n1 = fock.ladder_operator(sector, 0, "number")
    h = (0.02 * (hop + hop.dagger()) + 0.001 * (n1 @ n1)).marked_hermitian()
    k = np.arange(n_tot + 1)
    amps = np.exp(-0.5 * (k - n_tot / 2) ** 2 / 50.0).astype(complex)
    state = fock.StateVector(sector, amps, normalize=True)
    e0 = fock.expectation(state, h).real
    out = fock.evolve_unitary(state, h, 0.5)
    assert abs(out.norm() - 1.0) < 1e-9
    e1 = fock.expectation(out, h).real
    assert abs(e1 - e0) <= 1e-8 * abs(e0)
    total = fock.expectation(out, (n1 + fock.ladder_operator(sector, 1, "number"))
                             .marked_hermitian()).real
    assert total == pytest.approx(n_tot, abs=1e-8 * n_tot)


def test_evolution_conserves_commuting_observable():
    # [H, n_total] = 0 for a hopping Hamiltonian on a truncated space
    space = fock.FockSpace.truncated([4, 4])
    hop = fock.hopping_operator(space, 0, 1)
    h = (0.3 * (hop + hop.dagger())).marked_hermitian()
    n_tot = (fock.ladder_operator(space, 0, "number")
             + fock.ladder_operator(space, 1, "number")).marked_hermitian()
    comm = (h @ n_tot - n_tot @ h).to_dense()
    assert np.max(np.abs(comm)) < 1e-12
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of((2, 1))] = 1.0
    state = fock.StateVector(space, amps)
    before = fock.expectation(state, n_tot).real
    out = fock.evolve_unitary(state, h, 4.0)
    assert abs(out.norm() - 1.0) < 1e-9
    after = fock.expectation(out, n_tot).real
    assert after == pytest.approx(before, rel=1e-8)


def test_evolve_sampled_matches_single_calls():
    space = fock.FockSpace.truncated([3, 3])
    hop = fock.hopping_operator(space, 0, 1)
    h = (0.4 * (hop + hop.dagger())).marked_hermitian()
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of((2, 0))] = 1.0
    state = fock.StateVector(space, amps)
    times = [0.0, 0.5, 1.25, 2.0]
    sampled = fock.evolve_unitary_sampled(state, h, times)
    for t, snap in zip(times, sampled):
        direct = fock.evolve_unitary(state, h, t)
        assert np.max(np.abs(snap.amplitudes - direct.amplitudes)) < 1e-10


def test_propagation_comes_in_bounded_blocks(monkeypatch):
    space = fock.FockSpace.fixed_sector(9)
    hop = fock.hopping_operator(space, 0, 1)
    h = (0.7 * (hop + hop.dagger())).marked_hermitian()
    state = fock.basis_state(space, (3, 6))
    times = np.linspace(0.0, 2.0, 23)
    with pytest.raises(ContractViolationError):
        fock.evolve_unitary_sampled(state, h, times[::-1])
    monkeypatch.setattr(fock, "OUTPUT_CHUNK_WORK", 10 * 4 + 3)
    blocks = list(fock.propagate(*fock._eigendecomposition(h), state.amplitudes, times))
    assert [len(t) for t, _ in blocks] == [4, 4, 4, 4, 4, 3]
    assert all(psi.shape == (10, len(t)) for t, psi in blocks)
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), times)
    psi = np.concatenate([psi for _, psi in blocks], axis=1)
    for j, t in enumerate(times):
        direct = fock.evolve_unitary(state, h, t)
        assert np.max(np.abs(psi[:, j] - direct.amplitudes)) < 1e-13


def test_boundary_weight_monitor():
    space = fock.FockSpace.truncated([8, 8])
    hop = fock.hopping_operator(space, 0, 1)
    h = (0.5 * (hop + hop.dagger())).marked_hermitian()
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of((3, 2))] = 1.0
    state = fock.StateVector(space, amps)
    # number-conserving scenario: total 5 < cutoff 8, nothing can reach the edge
    out = fock.evolve_unitary(state, h, 5.0)
    assert fock.boundary_weight(out) < 1e-12
    # a drive pushes population up; the monitor must see it
    a = fock.ladder_operator(space, 0, "annihilate")
    drive = (a + a.dagger()).marked_hermitian()
    driven = fock.evolve_unitary(fock.basis_state(space, (0, 0)), drive, 3.0)
    assert fock.boundary_weight(driven) > 1e-6
    # sector spaces cannot leak
    sector = fock.FockSpace.fixed_sector(4)
    assert fock.boundary_weight(fock.basis_state(sector, (2, 2))) == 0.0


def test_tridiagonal_expm_matches_dense():
    rng = np.random.default_rng(5)
    d = rng.standard_normal(60)
    e = rng.standard_normal(59)
    vec = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    vec /= np.linalg.norm(vec)
    space = fock.FockSpace.truncated([59])
    tridiagonal = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    times = np.array([0.0, 0.3, 2.7, -1.1])
    block = np.stack([vec, vec[::-1], 1j * vec, vec], axis=1)
    # a real tridiagonal H (real eigenvectors) and a complex, wider one
    for op in (fock.LinearOperator(space, sp.csr_matrix(tridiagonal), hermitian=True),
               _random_hermitian_operator(space, rng)):
        w, v = np.linalg.eigh(op.to_dense())
        got = fock.tridiagonal_expm_apply(op, block, times)
        assert got.shape == block.shape
        for j, t in enumerate(times):
            want = v @ (np.exp(-1j * w * t) * (v.conj().T @ block[:, j]))
            assert np.max(np.abs(want - got[:, j])) < 1e-12
            # the same bits alone as in the block
            alone = fock.tridiagonal_expm_apply(op, block[:, j:j + 1], times[j:j + 1])
            assert np.array_equal(alone[:, 0], got[:, j])
        assert np.array_equal(got[:, 0], vec)


def test_evolution_is_deterministic():
    space = fock.FockSpace.truncated([5])
    n_op = fock.ladder_operator(space, 0, "number")
    amps = np.exp(0.3j * np.arange(6)) / np.sqrt(6)
    state = fock.StateVector(space, amps)
    a = fock.evolve_unitary(state, n_op, 1.234).amplitudes
    b = fock.evolve_unitary(state, n_op, 1.234).amplitudes
    assert np.array_equal(a, b)


def test_state_and_times_must_be_finite():
    space = fock.FockSpace.truncated([1])
    for amps, normalize in [([np.nan, 0.0], False), ([np.inf, 0.0], True),
                            ([1e308, 1e308], True), ([np.nan, 1.0], True)]:
        with pytest.raises(ContractViolationError), np.errstate(over="ignore"):
            fock.StateVector(space, np.array(amps), normalize=normalize)
    n_op = fock.ladder_operator(space, 0, "number")
    state = fock.basis_state(space, (1,))
    with pytest.raises(ContractViolationError):
        fock.evolve_unitary(state, n_op, float("nan"))
    with pytest.raises(ContractViolationError):
        fock.evolve_unitary_sampled(state, n_op, [0.0, 1.0, float("inf")])


def _sector_hamiltonian(n_tot):
    sector = fock.FockSpace.fixed_sector(n_tot)
    hop = fock.hopping_operator(sector, 0, 1)
    n1 = fock.ladder_operator(sector, 0, "number")
    return (0.02 * (hop + hop.dagger()) + 0.001 * (n1 @ n1)).marked_hermitian()


def test_tridiagonal_structure_is_read_from_the_matrix():
    h = _sector_hamiltonian(30)
    dense = h.to_dense()
    d, e = h.tridiagonal
    assert np.array_equal(d, np.diag(dense).real)
    assert np.array_equal(e, np.diag(dense, -1).real)
    assert d.dtype == e.dtype == float
    hop = fock.hopping_operator(fock.FockSpace.fixed_sector(30), 0, 1)
    assert (1j * (hop - hop.dagger())).marked_hermitian().tridiagonal is None
    wide = fock.hopping_operator(fock.FockSpace.truncated([2, 2]), 0, 1)
    assert (wide + wide.dagger()).tridiagonal is None


def test_sampled_evolution_at_n2100_matches_expm_multiply():
    h = _sector_hamiltonian(2100)
    k = np.arange(2101)
    amps = np.exp(-0.5 * (k - 1050) ** 2 / 50.0 + 0.3j * k)
    state = fock.StateVector(h.space, amps, normalize=True)
    times = [0.0, 0.4, 1.3, 3.0]
    for t, out in zip(times, fock.evolve_unitary_sampled(state, h, times)):
        # oracle: scipy's truncated-Taylor action of the sparse exponential
        want = expm_multiply(-1j * t * h.matrix, state.amplitudes)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-11
        assert abs(out.norm() - 1.0) < 1e-12


def test_eigendecomposition_beyond_the_budget_is_refused_at_once(monkeypatch):
    h = _sector_hamiltonian(6000)
    state = fock.basis_state(h.space, (3000, 3000))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        fock.evolve_unitary(state, h, 1.0)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(fock, "EIG_WORK_LIMIT", 100)
    small = _sector_hamiltonian(9)
    fock.evolve_unitary(fock.basis_state(small.space, (4, 5)), small, 1.0)
    over = _sector_hamiltonian(10)
    with pytest.raises(ResourceLimitError):
        fock.evolve_unitary(fock.basis_state(over.space, (5, 5)), over, 1.0)


def test_tridiagonal_eigensolver_matches_scipy_on_both_sides_of_the_dense_limit(monkeypatch):
    import scipy.linalg
    solve, calls = scipy.linalg.eigh_tridiagonal, []
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e: calls.append(len(d)) or solve(d, e))
    rng = np.random.default_rng(11)
    for rows in (fock.DENSE_EIGH_LIMIT, fock.DENSE_EIGH_LIMIT + 1):
        d, e = rng.standard_normal(rows), rng.standard_normal(rows - 1)
        w, v = fock.eigh_tridiagonal(d, e)
        assert w.dtype == v.dtype == float and v.shape == (rows, rows)
        assert np.allclose(w, solve(d, e, eigvals_only=True), rtol=0, atol=1e-12)
        rebuilt = (v * w) @ v.T
        assert np.allclose(np.diag(rebuilt), d, rtol=0, atol=1e-12)
        assert np.allclose(np.diag(rebuilt, -1), e, rtol=0, atol=1e-12)
        assert np.allclose(np.tril(rebuilt, -2), 0.0, rtol=0, atol=1e-12)
    assert calls == [fock.DENSE_EIGH_LIMIT + 1]     # only above the limit


def test_budget_message_tells_the_count_from_the_limit():
    # N = 5000: (N + 1)^2 = 25,010,001 against the limit 25,000,000
    with pytest.raises(ResourceLimitError,
                       match=r"^dimension\^2 2\.501e\+07 exceeds the limit 2\.5e\+07$"):
        fock.check_work(25_010_001, 25_000_000, "dimension^2")
