import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.entanglement as ent
import beamlab.fock as fock
from beamlab.errors import (
    ContractViolationError,
    DomainError,
    NormalizationUndefinedError,
    ResourceLimitError,
)
from beamlab.seeding import rng_for


def four_mode_space(cutoff):
    return fock.FockSpace.truncated([cutoff] * 4)


def state_from_occupations(space, terms):
    amps = np.zeros(space.dimension, dtype=complex)
    for occ, coeff in terms.items():
        amps[space.index_of(occ)] = coeff
    return fock.StateVector(space, amps, normalize=True)


def singlet_state(space):
    # (|x>_a |y>_b - |y>_a |x>_b)/sqrt(2), one photon per beam
    return state_from_occupations(space, {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): -1.0})


SINGLET_DM = 0.5 * np.array([
    [0, 0, 0, 0],
    [0, 1, -1, 0],
    [0, -1, 1, 0],
    [0, 0, 0, 0],
], dtype=complex)


def test_gamma_product_of_single_photons():
    space = four_mode_space(1)
    state = state_from_occupations(space, {(1, 0, 1, 0): 1.0})
    corr = ent.gamma_from_state(state)
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0                       # (mu, mu') = (x, x) is row 0
    assert np.allclose(corr.gamma_tilde, proj, atol=1e-12)
    assert ent.bound_report(corr).negativity == 0.0


def test_gamma_singlet_matches_two_qubit_density_matrix():
    space = four_mode_space(1)
    corr = ent.gamma_from_state(singlet_state(space))
    # brute-force oracle: evaluate all 16 matrix elements from ladder products
    oracle = np.empty((4, 4), dtype=complex)
    psi = singlet_state(space)
    ann = [fock.ladder_operator(space, m, "annihilate").matrix for m in range(4)]
    cre = [fock.ladder_operator(space, m, "create").matrix for m in range(4)]
    for mu in (0, 1):
        for mup in (0, 1):
            for nu in (0, 1):
                for nup in (0, 1):
                    op = cre[nu] @ ann[mu] @ cre[2 + nup] @ ann[2 + mup]
                    oracle[2 * mu + mup, 2 * nu + nup] = np.vdot(
                        psi.amplitudes, op @ psi.amplitudes)
    assert np.allclose(corr.gamma, oracle, atol=1e-13)
    assert np.allclose(corr.gamma_tilde, SINGLET_DM, atol=1e-13)
    assert corr.n_a == pytest.approx(1.0)
    assert corr.n_b == pytest.approx(1.0)
    assert corr.n_ab == pytest.approx(1.0)


def test_gamma_trace_is_photon_number_product():
    space = four_mode_space(3)
    for k in (1, 2, 3):
        state = state_from_occupations(space, {(k, 0, k, 0): 1.0})
        corr = ent.gamma_from_state(state)
        assert np.trace(corr.gamma).real == pytest.approx(k * k, abs=1e-10)
        assert np.trace(corr.gamma_tilde).real == pytest.approx(1.0, abs=1e-12)


def test_two_beam_correlation_validates_invariants():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    ent.TwoBeamCorrelation(good, 1.0, 1.0, 1.0)
    from beamlab.errors import DomainError
    bad_herm = good.copy()
    bad_herm[0, 1] = 1.0
    with pytest.raises(DomainError, match="Hermitian"):
        ent.TwoBeamCorrelation(bad_herm, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="semidefinite"):
        ent.TwoBeamCorrelation(np.diag([1.5, -0.5, 0.0, 0.0]), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="trace"):
        ent.TwoBeamCorrelation(good, 1.0, 1.0, 2.0)


def test_gamma_requires_photons_in_both_beams():
    space = four_mode_space(1)
    vacuum_b = state_from_occupations(space, {(1, 0, 0, 0): 1.0})
    with pytest.raises(NormalizationUndefinedError):
        ent.gamma_from_state(vacuum_b)
    three_modes = fock.FockSpace.truncated([1, 1, 1])
    with pytest.raises(ContractViolationError):
        ent.gamma_from_state(fock.basis_state(three_modes, (1, 0, 1)))


def test_partial_transpose_trivial_and_product():
    eye4 = np.eye(4) / 4.0
    assert np.allclose(ent.partial_transpose(eye4), eye4)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(ent.partial_transpose(np.kron(a, b)), np.kron(a, b.T))


def test_partial_transpose_singlet_eigenvalues():
    # eigensolve oracle on the explicit matrix
    lam = np.linalg.eigvalsh(ent.partial_transpose(SINGLET_DM))
    assert np.allclose(np.sort(lam), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_partial_transpose_involution_hermiticity_trace(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    pt = ent.partial_transpose(m)
    assert np.allclose(ent.partial_transpose(pt), m)
    assert np.allclose(pt, pt.conj().T)
    assert np.trace(pt) == pytest.approx(np.trace(m))


def test_negativity_examples():
    assert ent.negativity(SINGLET_DM) == pytest.approx(0.5, abs=1e-12)
    assert ent.negativity(np.eye(4) / 4.0) == 0.0
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        werner = p * SINGLET_DM + (1 - p) * np.eye(4) / 4.0
        # independent oracle: eigenvalues of the reindexed matrix
        pt = werner.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        lam = np.linalg.eigvalsh(pt)
        oracle = max(0.0, 0.5 * (np.sum(np.abs(lam)) - 1.0))
        got = ent.negativity(werner)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(max(0.0, (3 * p - 1) / 4), abs=1e-12)
    assert ent.negativity(0.5 * SINGLET_DM + 0.5 * np.eye(4) / 4.0) == pytest.approx(
        0.125, abs=1e-12)


def test_negativity_contract_errors():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ContractViolationError):
        ent.negativity(bad)
    with pytest.raises(ContractViolationError):
        ent.negativity(np.eye(4))   # trace 4


def test_check_bound_singlet():
    rep = ent.check_bound(singlet_state(four_mode_space(1)))
    assert rep.negativity == pytest.approx(0.5, abs=1e-12)
    assert rep.bound_exact == pytest.approx(2.0, abs=1e-12)
    assert rep.bound_approx == pytest.approx(2.0, abs=1e-12)
    assert rep.satisfied
    assert rep.trace_bound_satisfied
    assert rep.trace_abs_pt == pytest.approx(2.0, abs=1e-12)
    assert min(rep.pt_eigenvalues) == pytest.approx(-0.5, abs=1e-12)


def test_bound_is_2_over_k_for_equal_photon_sectors():
    for k in (1, 2, 3):
        space = four_mode_space(k)
        rng = np.random.default_rng(k)
        for _ in range(20):
            state = ent.sector_state(space, k, k, rng)
            rep = ent.check_bound(state)
            assert rep.bound_exact == pytest.approx(2.0 / k, rel=1e-12)
            assert rep.negativity <= rep.bound_exact + 1e-9


def test_bound_holds_on_haar_samples_all_cutoffs():
    # >= 1e4 samples spread over cutoffs 1..4
    for cutoff in (1, 2, 3, 4):
        sampler = ent.BeamSampler(cutoff)
        psi = sampler.sample_states(2024, range(2600))
        gammas, n_a, n_b, n_ab = sampler.gammas_and_moments(psi)
        # Gamma PSD
        min_eig = np.min(np.linalg.eigvalsh(gammas))
        assert min_eig > -1e-10
        lam = sampler.pt_eigenvalues(gammas, n_ab)
        trace_abs = np.sum(np.abs(lam), axis=1)
        neg = np.maximum(0.5 * (trace_abs - 1.0), 0.0)
        assert np.all(neg <= np.minimum(2 * n_a, 2 * n_b) / n_ab + 1e-9)
        assert np.all(trace_abs <= 1.0 + 4.0 * n_a / n_ab + 1e-9)


def test_product_states_have_zero_negativity():
    # |psi_a> (x) |psi_b> across the beams, 1000 samples
    rng = np.random.default_rng(99)
    cutoff = 2
    space = four_mode_space(cutoff)
    beam_dim = (cutoff + 1) ** 2
    for _ in range(1000):
        za = rng.standard_normal(beam_dim) + 1j * rng.standard_normal(beam_dim)
        zb = rng.standard_normal(beam_dim) + 1j * rng.standard_normal(beam_dim)
        amps = np.kron(za, zb)      # mode 0 slowest: (a0 a1) x (b0 b1)
        state = fock.StateVector(space, amps, normalize=True)
        try:
            rep = ent.check_bound(state)
        except NormalizationUndefinedError:
            continue
        assert rep.negativity <= 1e-10


def test_mixture_bound_and_affine_moments():
    space = four_mode_space(2)
    rng = np.random.default_rng(31)
    for _ in range(200):
        g1 = ent.gamma_from_state(ent.haar_state(space, rng))
        g2 = ent.gamma_from_state(ent.haar_state(space, rng))
        w = rng.uniform()
        mix = ent.gamma_from_mixture([(w, g1), (1 - w, g2)])
        assert mix.n_ab == pytest.approx(w * g1.n_ab + (1 - w) * g2.n_ab)
        assert np.allclose(mix.gamma, w * g1.gamma + (1 - w) * g2.gamma)
        rep = ent.bound_report(mix)
        assert rep.satisfied
        assert rep.trace_bound_satisfied


def test_bound_rows_independent_of_chunking():
    short = ent.bound_rows(5, range(0, 10), 2)
    long = ent.bound_rows(5, range(0, 20), 2)
    assert short == long[:10]
    again = ent.bound_rows(5, range(10, 20), 2)
    assert again == long[10:]


def test_sector_sampler_matches_single_state_path():
    # one draw and one summation order: a state rebuilt from its seed gives
    # its sampled row's Gamma, moments and bound bit for bit
    for cutoff, photons in ((2, None), (3, None), (2, 2), (3, 3)):
        sampler = ent.BeamSampler(cutoff)
        psi = sampler.sample_states(42, range(7), photons_per_beam=photons)
        gammas, n_a, n_b, n_ab = sampler.gammas_and_moments(psi)
        rows = ent.bound_rows(42, range(7), cutoff, photons_per_beam=photons)
        for col in range(7):
            rng = rng_for(42, col)
            state = (ent.haar_state(sampler.space, rng) if photons is None else
                     ent.sector_state(sampler.space, photons, photons, rng))
            assert np.array_equal(state.amplitudes, psi[:, col])
            corr = ent.gamma_from_state(state)
            assert np.array_equal(corr.gamma, gammas[col])
            assert (corr.n_a, corr.n_b, corr.n_ab) == (n_a[col], n_b[col], n_ab[col])
            assert (corr.n_a, corr.n_b, corr.n_ab) == (
                rows[col]["n_a"], rows[col]["n_b"], rows[col]["n_ab"])
            rep = ent.check_bound(state)
            assert rep.negativity == rows[col]["negativity"]
            assert rep.bound_exact == rows[col]["bound_exact"]
            if photons is not None:
                assert rep.bound_exact == pytest.approx(2.0 / photons, rel=1e-12)


def test_empty_sector_is_refused_before_sampling():
    with pytest.raises(DomainError, match="no basis states with beam photon numbers"):
        ent.bound_rows(1, range(3), 1, photons_per_beam=3)


def test_sampling_is_seeded_per_index():
    space = four_mode_space(1)
    a = ent.haar_state(space, rng_for(7, 3)).amplitudes
    b = ent.haar_state(space, rng_for(7, 3)).amplitudes
    c = ent.haar_state(space, rng_for(7, 4)).amplitudes
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- oracles for the Gamma and bound kernels -----------------------------------


def test_index_shift_products_equal_sparse_ladder_products():
    # uneven cutoffs, so every stride differs
    space = fock.FockSpace.truncated([1, 2, 3, 2])
    rng = np.random.default_rng(11)
    psi = (rng.standard_normal((space.dimension, 5))
           + 1j * rng.standard_normal((space.dimension, 5)))
    ann = [fock.ladder_operator(space, m, "annihilate").matrix for m in range(4)]
    sparse = np.stack([(ann[mu] @ ann[mup]).tocsr() @ psi
                       for mu in ent.BEAM_A for mup in ent.BEAM_B])
    assert np.array_equal(ent._lowered(space, psi), sparse)
    gammas, n_a, n_b, n_ab = ent._gammas_and_moments(space, psi)
    assert np.array_equal(gammas, np.einsum("cds,rds->src", sparse.conj(), sparse))
    for col in range(5):
        state = fock.StateVector(space, psi[:, col], normalize=True)
        corr = ent.gamma_from_state(state)
        scale = np.vdot(psi[:, col], psi[:, col]).real
        assert np.allclose(corr.gamma * scale, gammas[col], rtol=1e-12, atol=1e-12)
        assert corr.n_ab * scale == pytest.approx(n_ab[col], rel=1e-12)


def test_lowering_plan_is_built_once_per_space_and_read_only():
    ent._plan.cache_clear()
    space = fock.FockSpace.truncated([1, 2, 3, 2])
    rng = np.random.default_rng(5)
    psi = (rng.standard_normal((space.dimension, 3))
           + 1j * rng.standard_normal((space.dimension, 3)))
    ann = [fock.ladder_operator(space, m, "annihilate").matrix for m in range(4)]
    number = [space.number_diagonal(m) for m in range(4)]
    sparse = np.stack([(ann[mu] @ ann[mup]).tocsr() @ psi
                       for mu in ent.BEAM_A for mup in ent.BEAM_B])
    for _ in range(3):
        assert np.array_equal(ent._lowered(space, psi), sparse)
    plan = ent._plan(space)
    n_a, n_b = number[0] + number[1], number[2] + number[3]
    assert np.array_equal(plan.n_a, n_a) and np.array_equal(plan.n_b, n_b)
    assert np.array_equal(plan.n_ab, n_a * n_b)
    assert ent._plan.cache_info().misses == 1
    # an equal space built apart reads the same plan
    assert ent._plan(fock.FockSpace.truncated([1, 2, 3, 2])) is plan
    assert ent._plan.cache_info().misses == 1
    ent._plan(four_mode_space(2))
    assert ent._plan.cache_info().misses == 2
    for array in (*(a for shift in plan.shifts for a in shift), *plan[1:]):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        plan.n_a[0] = 1.0


def test_partial_transpose_of_a_stack_matches_index_oracle():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    oracle = np.empty_like(stack)
    for mu, mup, nu, nup in np.ndindex(2, 2, 2, 2):
        oracle[..., 2 * mu + nup, 2 * nu + mup] = stack[..., 2 * mu + mup, 2 * nu + nup]
    assert np.array_equal(ent.partial_transpose(stack), oracle)


def test_batched_bound_stats_equal_one_state_at_a_time():
    sampler = ent.BeamSampler(2)
    gammas, n_a, n_b, n_ab = sampler.gammas_and_moments(
        sampler.sample_states(17, range(40)))
    stats = ent._bound_stats(gammas, n_a, n_b, n_ab)
    for col in range(40):
        lam = np.linalg.eigvalsh(ent.partial_transpose(gammas[col] / n_ab[col]))
        assert np.array_equal(stats.pt_eigenvalues[col], lam)
        trace_abs = float(np.sum(np.abs(lam)))
        assert stats.trace_abs[col] == trace_abs
        assert stats.negativity[col] == max(0.5 * (trace_abs - 1.0), 0.0)
        na, nb, nab = float(n_a[col]), float(n_b[col]), float(n_ab[col])
        assert stats.bound_exact[col] == min(2.0 * na, 2.0 * nb) / nab
        assert stats.bound_approx[col] == 2.0 / max(na, nb)
        assert stats.trace_abs_bound[col] == 1.0 + 4.0 * na / nab
    rep = ent.bound_report(ent.TwoBeamCorrelation(gammas[0], n_a[0], n_b[0], n_ab[0]))
    assert rep.pt_eigenvalues == tuple(stats.pt_eigenvalues[0])


def test_sample_budget_is_checked_before_sampling():
    with pytest.raises(ResourceLimitError):
        ent.bound_rows(1, range(ent.SAMPLE_WORK_LIMIT // 81 + 1), 2)
    with pytest.raises(ResourceLimitError):
        ent.mixture_rows(1, range(ent.SAMPLE_WORK_LIMIT // 16 + 1), 1)


def test_bound_rows_do_not_depend_on_the_chunk_width(monkeypatch):
    whole = ent.bound_rows(4, range(3, 13), 1)
    sector = ent.bound_rows(4, range(3, 13), 2, photons_per_beam=2)
    monkeypatch.setattr(ent, "CHUNK_WORK", 3 * 16)      # widths 2, 3, 2, 3 at cutoff 1
    assert ent.bound_rows(4, range(3, 13), 1) == whole
    monkeypatch.setattr(ent, "CHUNK_WORK", 1)           # one state per chunk
    assert ent.bound_rows(4, range(3, 13), 2, photons_per_beam=2) == sector


def test_mixture_rows_equal_per_index_bound_reports():
    space = four_mode_space(2)
    rows = ent.mixture_rows(9, range(4, 10), 2)
    assert ent.mixture_rows(9, range(0), 2) == []
    for row, i in zip(rows, range(4, 10), strict=True):
        rng = rng_for(9, i)
        g1 = ent.gamma_from_state(ent.haar_state(space, rng))
        g2 = ent.gamma_from_state(ent.haar_state(space, rng))
        w = float(rng.uniform())
        mix = ent.gamma_from_mixture([(w, g1), (1.0 - w, g2)])
        rep = ent.bound_report(mix)
        assert row == {
            "seed": i, "cutoff": 2, "n_a": mix.n_a, "n_b": mix.n_b, "n_ab": mix.n_ab,
            "negativity": rep.negativity, "bound_exact": rep.bound_exact,
            "bound_approx": rep.bound_approx, "satisfied": rep.satisfied}
