import tracemalloc
import weakref

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
from oracles import lowered_states, sector_state


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


# the bound-checking sweeps' report columns, in order
REPORT_COLUMNS = ("seed", "cutoff", "n_a", "n_b", "n_ab", "negativity", "bound_exact",
                  "bound_approx", "satisfied")


def same_records(got, want):
    """Bound rows equal record by record, with the report's columns as fields."""
    return got.dtype.names == REPORT_COLUMNS and np.array_equal(got, want)


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
    assert np.allclose(corr.gamma / corr.n_ab, proj, atol=1e-12)
    assert ent.bound_report(corr).negativity == 0.0


def test_gamma_singlet_matches_two_qubit_density_matrix():
    space = four_mode_space(1)
    corr = ent.gamma_from_state(singlet_state(space))
    # brute-force oracle: evaluate all 16 matrix elements from ladder products
    oracle = np.empty((4, 4), dtype=complex)
    psi = singlet_state(space)
    ann = [fock.ladder_operator(space, m, "annihilate") for m in range(4)]
    cre = [fock.ladder_operator(space, m, "create") for m in range(4)]
    for mu in (0, 1):
        for mup in (0, 1):
            for nu in (0, 1):
                for nup in (0, 1):
                    op = cre[nu] @ ann[mu] @ cre[2 + nup] @ ann[2 + mup]
                    oracle[2 * mu + mup, 2 * nu + nup] = np.vdot(
                        psi.amplitudes, op @ psi.amplitudes)
    assert np.allclose(corr.gamma, oracle, atol=1e-13)
    assert np.allclose(corr.gamma / corr.n_ab, SINGLET_DM, atol=1e-13)
    assert corr.n_a == pytest.approx(1.0)
    assert corr.n_b == pytest.approx(1.0)
    assert corr.n_ab == pytest.approx(1.0)


def test_gamma_trace_is_photon_number_product():
    space = four_mode_space(3)
    for k in (1, 2, 3):
        state = state_from_occupations(space, {(k, 0, k, 0): 1.0})
        corr = ent.gamma_from_state(state)
        assert np.trace(corr.gamma).real == pytest.approx(k * k, abs=1e-10)
        assert np.trace(corr.gamma / corr.n_ab).real == pytest.approx(1.0, abs=1e-12)


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


def test_a_gamma_that_is_not_4x4_is_refused():
    with pytest.raises(DomainError, match="4x4"):
        ent.TwoBeamCorrelation(np.eye(3), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="4x4"):
        ent.partial_transpose(np.eye(3))


def test_a_mixture_needs_components_and_weights_that_sum_to_1():
    corr = ent.TwoBeamCorrelation(np.diag([0.5, 0.5, 0.0, 0.0]), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="at least one component"):
        ent.gamma_from_mixture([])
    for components in ([(1.5, corr), (-0.5, corr)], [(0.4, corr), (0.5, corr)]):
        with pytest.raises(DomainError, match="sum to 1"):
            ent.gamma_from_mixture(components)


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


def negativity(sigma):
    # a Hermitian trace-1 4x4 matrix is its own Gamma~ at unit moments
    return ent.bound_report(ent.TwoBeamCorrelation(sigma, 1.0, 1.0, 1.0)).negativity


def test_negativity_examples():
    assert negativity(SINGLET_DM) == pytest.approx(0.5, abs=1e-12)
    assert negativity(np.eye(4) / 4.0) == 0.0
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        werner = p * SINGLET_DM + (1 - p) * np.eye(4) / 4.0
        # independent oracle: eigenvalues of the reindexed matrix
        pt = werner.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        lam = np.linalg.eigvalsh(pt)
        oracle = max(0.0, 0.5 * (np.sum(np.abs(lam)) - 1.0))
        got = negativity(werner)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(max(0.0, (3 * p - 1) / 4), abs=1e-12)
    assert negativity(0.5 * SINGLET_DM + 0.5 * np.eye(4) / 4.0) == pytest.approx(
        0.125, abs=1e-12)


def test_negativity_contract_errors():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(DomainError, match="Hermitian"):
        negativity(bad)
    with pytest.raises(DomainError, match="trace"):
        negativity(np.eye(4))   # trace 4


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
            state = sector_state(space, k, k, rng)
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
    assert same_records(short, long[:10])
    again = ent.bound_rows(5, range(10, 20), 2)
    assert same_records(again, long[10:])


def test_a_bound_row_is_a_65_byte_record_of_the_report_columns():
    rows = ent.bound_rows(5, range(3), 1)
    assert rows.dtype.names == REPORT_COLUMNS and rows.dtype.itemsize == 65
    kinds = [rows.dtype[name] for name in REPORT_COLUMNS]
    assert kinds == [np.dtype(np.int64)] * 2 + [np.dtype(np.float64)] * 6 + [
        np.dtype(bool)]
    assert rows["seed"].tolist() == [0, 1, 2] and rows["cutoff"].tolist() == [1] * 3


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
                     sector_state(sampler.space, photons, photons, rng))
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


def assert_lowered_states_equal_the_oracle(space, psi):
    # each of the four is its sparse-ladder product, bit for bit, with an
    # exact zero on every row that the product does not reach
    got, want = ent._lowered_states(space, psi), lowered_states(space, psi)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def test_index_shift_products_equal_sparse_ladder_products():
    # uneven cutoffs, so every stride differs
    space = fock.FockSpace.truncated([1, 2, 3, 2])
    rng = np.random.default_rng(11)
    psi = (rng.standard_normal((space.dimension, 5))
           + 1j * rng.standard_normal((space.dimension, 5)))
    assert_lowered_states_equal_the_oracle(space, psi)
    sparse = lowered_states(space, psi)
    gammas, n_a, n_b, n_ab = ent._gammas_and_moments(space, psi)
    assert np.array_equal(gammas, np.einsum("cds,rds->src", sparse.conj(), sparse))
    for col in range(5):
        state = fock.StateVector(space, psi[:, col], normalize=True)
        corr = ent.gamma_from_state(state)
        scale = np.vdot(psi[:, col], psi[:, col]).real
        assert np.allclose(corr.gamma * scale, gammas[col], rtol=1e-12, atol=1e-12)
        assert corr.n_ab * scale == pytest.approx(n_ab[col], rel=1e-12)


def test_lowering_plan_is_built_once_per_space_and_read_only():
    # the plan of the lowering is the layout: slices, weights and diagonals
    ent._layout.cache_clear()
    space = fock.FockSpace.truncated([1, 2, 3, 2])
    rng = np.random.default_rng(5)
    psi = (rng.standard_normal((space.dimension, 3))
           + 1j * rng.standard_normal((space.dimension, 3)))
    number = [space.number_diagonal(m) for m in range(4)]
    for _ in range(3):
        assert_lowered_states_equal_the_oracle(space, psi)
    layout = ent._layout(space.cutoffs)
    n_a, n_b = number[0] + number[1], number[2] + number[3]
    assert np.array_equal(layout.n_a, n_a) and np.array_equal(layout.n_b, n_b)
    assert np.array_equal(layout.n_ab, n_a * n_b)
    assert ent._layout.cache_info().misses == 1
    # an equal space built apart reads the same layout
    assert ent._layout(fock.FockSpace.truncated([1, 2, 3, 2]).cutoffs) is layout
    assert ent._layout.cache_info().misses == 1
    ent._layout(four_mode_space(2).cutoffs)
    info = ent._layout.cache_info()
    assert (info.misses, info.currsize) == (2, 1)   # one layout is held
    for array in (*(weight for weight, _, _ in layout.lowered), *layout[1:]):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        layout.n_a[0] = 1.0


def layout_arrays(cutoff):
    layout = ent._layout(four_mode_space(cutoff).cutoffs)
    return (*(weight for weight, _, _ in layout.lowered), *layout[1:])


def test_a_bright_sweep_holds_one_plan_at_a_time():
    ent._layout.cache_clear()
    held = []
    for k in range(1, 5):
        ent.bound_rows(k, range(3), k, photons_per_beam=k)
        assert ent._layout.cache_info().currsize == 1
        held.append(weakref.ref(layout_arrays(k)[-1]))
    assert ent._layout.cache_info().misses == 4
    # nothing else keeps an earlier layout's arrays alive
    assert [ref() is None for ref in held] == [True, True, True, False]


def test_the_held_layout_is_let_go_once_the_next_is_built():
    # the cache holds the last layout while it builds the next one; nothing
    # that a Gamma step returns keeps a layout array alive after that
    ent._layout.cache_clear()
    sampler = ent.BeamSampler(1)
    kept = sampler.gammas_and_moments(sampler.sample_states(2, range(3)))
    held = [weakref.ref(array) for array in layout_arrays(1)]
    ent._layout(four_mode_space(2).cutoffs)
    assert [ref() is None for ref in held] == [True] * len(held)
    assert ent._layout.cache_info().currsize == 1 and len(kept) == 4


@pytest.mark.parametrize("cutoffs", [
    [1] * 4, [2] * 4, [3] * 4, [10] * 4, [1, 2, 3, 2], [0, 1, 1, 1], [1, 0, 2, 0],
    [0] * 4, [4, 0, 0, 3], [5, 4, 3, 2], [3, 1, 2, 2, 2], [1, 1, 1, 1, 0, 2]])
def test_lowering_plan_boxes_equal_the_intersect1d_oracle(cutoffs):
    # the lowered states of every layout, against the sparse-ladder oracle:
    # zero cutoffs leave some lowered states, or all, empty, and a fifth or
    # sixth mode is carried through every slice
    space = fock.FockSpace.truncated(cutoffs)
    rng = np.random.default_rng(len(cutoffs) + sum(cutoffs))
    for width in (1, 3):
        psi = (rng.standard_normal((space.dimension, width))
               + 1j * rng.standard_normal((space.dimension, width)))
        assert_lowered_states_equal_the_oracle(space, psi)


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
        assert stats.trace_abs_pt[col] == trace_abs
        assert stats.excess[col] == 0.5 * (trace_abs - 1.0)
        assert stats.negativity[col] == max(0.5 * (trace_abs - 1.0), 0.0)
        na, nb, nab = float(n_a[col]), float(n_b[col]), float(n_ab[col])
        assert stats.bound_exact[col] == min(2.0 * na, 2.0 * nb) / nab
        assert stats.bound_approx[col] == 2.0 / max(na, nb)
        assert stats.trace_abs_bound[col] == 1.0 + 4.0 * na / nab
        assert stats.trace_bound_satisfied[col] == (
            trace_abs <= 1.0 + 4.0 * na / nab + ent.BOUND_TOL)
        # one state's record holds the batch's values as built-in ones
        rep = ent.bound_report(
            ent.TwoBeamCorrelation(gammas[col], n_a[col], n_b[col], n_ab[col]))
        assert type(rep) is type(stats)
        assert rep.pt_eigenvalues == tuple(stats.pt_eigenvalues[col].tolist())
        assert all(type(x) is float for x in rep.pt_eigenvalues)
        for name in rep._fields[1:]:
            want = getattr(stats, name)[col].item()
            assert type(getattr(rep, name)) is type(want), name
            assert getattr(rep, name) == want, name


def test_sample_budget_is_checked_before_sampling():
    with pytest.raises(ResourceLimitError):
        ent.bound_rows(1, range(ent.SAMPLE_WORK_LIMIT // 81 + 1), 2)
    with pytest.raises(ResourceLimitError):
        ent.mixture_rows(1, range(ent.SAMPLE_WORK_LIMIT // 16 + 1), 1)


def test_bound_rows_do_not_depend_on_the_chunk_width(monkeypatch):
    whole = ent.bound_rows(4, range(3, 13), 1)
    sector = ent.bound_rows(4, range(3, 13), 2, photons_per_beam=2)
    monkeypatch.setattr(ent, "OPERAND_WORK", 3 * 64)    # widths 3, 3, 3, 1 at cutoff 1
    assert same_records(ent.bound_rows(4, range(3, 13), 1), whole)
    monkeypatch.setattr(ent, "OPERAND_WORK", 1)         # one state per chunk, the least
    assert same_records(ent.bound_rows(4, range(3, 13), 2, photons_per_beam=2), sector)


@pytest.mark.parametrize("cutoff,photons,n", [
    (1, None, 1), (1, None, 7), (3, None, 2000), (10, 10, 25), (13, 13, 5), (16, 16, 4),
    (16, 16, 1)])
def test_chunks_hold_two_states_and_operands_of_at_most_the_budget(cutoff, photons, n,
                                                                   monkeypatch):
    widths = []
    gammas_and_moments = ent.BeamSampler.gammas_and_moments

    def spy(sampler, psi):
        widths.append(psi.shape[1])
        return gammas_and_moments(sampler, psi)

    monkeypatch.setattr(ent.BeamSampler, "gammas_and_moments", spy)
    ent.bound_rows(2, range(n), cutoff, photons_per_beam=photons)
    dimension = four_mode_space(cutoff).dimension
    width = max(ent.OPERAND_WORK // (4 * dimension), 1)
    assert sum(widths) == n
    # every chunk but the last is `width` states wide, and the last no wider
    assert widths[:-1] == [width] * (len(widths) - 1) and 1 <= widths[-1] <= width
    for w in widths:
        # a chunk's four lowered states, four times its state block, are
        # past the budget only where a chunk holds one state
        assert 4 * dimension * w <= ent.OPERAND_WORK or w == 1


def test_the_gamma_step_holds_operands_of_2_mb():
    # k = 10: the state block has 14,641 rows, so a chunk holds 2 states
    # and peaks near 3.1 MB (its amplitudes, its four lowered states and
    # one conjugate); chunks of 8 states and their gathered operands peaked
    # near 4.9 MB, of 10 states near 6.1 MB, and of 34 states near 20 MB
    ent.prepare_bound_rows(10)          # the layout is not counted
    tracemalloc.start()
    try:
        ent.bound_rows(7, range(200), 10, photons_per_beam=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2 ** 20


@pytest.mark.parametrize("n", [1, 5])
def test_a_lone_state_gamma_step_holds_six_state_sized_arrays(n):
    # k = 16: 83,521 rows of 16 bytes, past the budget for one state's
    # four lowered states, so every chunk holds one state: its amplitudes,
    # its four lowered states and one conjugate.  A step that conjugated
    # all four lowered states at once would hold 9 such arrays, and chunks
    # of two or three states 18.
    state_bytes = 16 * 83_521
    ent.prepare_bound_rows(16)          # the layout is not counted
    tracemalloc.start()
    try:
        ent.bound_rows(7, range(n), 16, photons_per_beam=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.25 * state_bytes


def test_mixture_rows_equal_per_index_bound_reports():
    space = four_mode_space(2)
    rows = ent.mixture_rows(9, range(4, 10), 2)
    assert same_records(ent.mixture_rows(9, range(0), 2), np.empty(0, ent.ROW))
    want = []
    for i in range(4, 10):
        rng = rng_for(9, i)
        g1 = ent.gamma_from_state(ent.haar_state(space, rng))
        g2 = ent.gamma_from_state(ent.haar_state(space, rng))
        w = float(rng.uniform())
        mix = ent.gamma_from_mixture([(w, g1), (1.0 - w, g2)])
        rep = ent.bound_report(mix)
        want.append((i, 2, mix.n_a, mix.n_b, mix.n_ab, rep.negativity, rep.bound_exact,
                     rep.bound_approx, rep.satisfied))
    assert same_records(rows, np.array(want, ent.ROW))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("cutoff,photons", [
    (1, None), (2, None), (3, None), (4, None), (6, 6), (10, 10), (13, 13), (16, 16)])
def test_each_column_alone_equals_its_batch_column_bit_for_bit(cutoff, photons):
    # one einsum per Gamma column keeps the (state, row) axes at every
    # width, so each entry is one ascending running sum over the basis; in
    # the k = 13 and k = 16 sectors the rows that the lowered states reach
    # span 30,733 and 69,601 rows, past the 12,100 at which einsum would
    # chunk a reduction that kept no other axis (10,981 at k = 10)
    sampler = ent.BeamSampler(cutoff)
    n = 48 if cutoff <= 10 else 5
    psi = sampler.sample_states(8, range(n), photons_per_beam=photons)
    alone = [ent._gammas_and_moments(sampler.space, psi[:, [j]]) for j in range(n)]
    for width in sorted({1, 2, 5, n}):
        batch = ent._gammas_and_moments(sampler.space, psi[:, :width])
        for j in range(width):
            for got, own in zip(batch, alone[j], strict=True):
                assert same_bits(got[j], own[0])


def test_c_and_fortran_ordered_states_give_the_same_bits():
    for cutoff, photons in ((2, None), (3, None), (5, 5)):
        sampler = ent.BeamSampler(cutoff)
        psi = sampler.sample_states(21, range(30), photons_per_beam=photons)
        assert psi.flags.c_contiguous
        fortran = np.asfortranarray(psi)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        for got, want in zip(sampler.gammas_and_moments(fortran),
                             sampler.gammas_and_moments(psi), strict=True):
            assert same_bits(got, want)
