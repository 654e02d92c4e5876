"""Chain statistics: stationary laws, Poisson solves, covariance kernels, paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_chain, state_index_at
from rosselab.model import TorusGrid
from rosselab.noise import (
    EIG_CLIP,
    NoiseModel,
    NoisePath,
    cosine_profile,
    noise_statistics,
    occupation_table,
    rotor_noise,
    sample_path,
    solve_poisson,
    stationary_law,
    telegraph_noise,
)

GRID = TorusGrid(32)


# --- generators and stationary laws --------------------------------------


def test_stationary_law_detects_bad_generators():
    with pytest.raises(ValueError):
        stationary_law(np.array([[-1.0, 0.5], [1.0, -1.0]]))  # rows not zero-sum
    with pytest.raises(ValueError):
        stationary_law(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # negative rates
    block = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    with pytest.raises(ValueError, match="ergodic"):
        stationary_law(block)
    absorbing = np.array([[-1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="transient"):
        stationary_law(absorbing)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_stationary_law_random_chains(n_states):
    rng = np.random.default_rng(100 + n_states)
    m = rng.uniform(0.5, 2.0, (n_states, n_states))
    np.fill_diagonal(m, 0.0)
    m -= np.diag(m.sum(axis=1))
    nu = stationary_law(m)
    assert np.max(np.abs(nu @ m)) <= 1e-13
    assert nu.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(nu > 0.0)


# --- Poisson solves ------------------------------------------------------


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_poisson_solve_random_chains(n_states):
    rng = np.random.default_rng(10 + n_states)
    model = random_chain(rng, n_states, GRID)
    psi = solve_poisson(model.generator, model.stationary, model.states)
    residual = model.generator @ psi - model.states
    assert np.max(np.abs(residual)) <= 1e-12
    assert np.max(np.abs(model.stationary @ psi)) <= 1e-12


def test_poisson_solve_rejects_uncentered_values():
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    with pytest.raises(ValueError, match="centered"):
        solve_poisson(model.generator, model.stationary, np.ones((2, GRID.n_x)))


def test_make_noise_model_centers_profiles():
    rng = np.random.default_rng(4)
    model = random_chain(rng, 4, GRID)
    mean = model.stationary @ model.states
    assert np.max(np.abs(mean)) <= 1e-12


# --- telegraph closed forms ----------------------------------------------


def test_telegraph_poisson_profile():
    rate = 1.7
    profile = cosine_profile(GRID, 0.8, 1)
    stats = noise_statistics(telegraph_noise(GRID, profile, rate))
    assert np.allclose(stats.poisson_profiles[0], -profile / (2.0 * rate), atol=1e-13)
    assert np.allclose(stats.poisson_profiles[1], profile / (2.0 * rate), atol=1e-13)


def test_telegraph_drift_fields():
    rate = 2.0
    profile = cosine_profile(GRID, 1.0, 1)
    stats = noise_statistics(telegraph_noise(GRID, profile, rate))
    assert np.allclose(stats.drift_paper, -(profile**2) / (2.0 * rate), atol=1e-13)
    assert np.allclose(stats.drift_effective, profile**2 / (2.0 * rate), atol=1e-13)


def test_telegraph_kernel_and_modes():
    rate = 1.0
    amp = 1.0
    profile = cosine_profile(GRID, amp, 1)
    stats = noise_statistics(telegraph_noise(GRID, profile, rate))
    expected = np.outer(profile, profile) / rate
    assert np.max(np.abs(stats.kernel - expected)) <= 1e-12
    # rank one with mode weight ||n||^2 / rate = amp^2 / (2 rate)
    assert stats.rank == 1
    assert stats.mode_weights[0] == pytest.approx(amp**2 / (2.0 * rate), abs=1e-13)
    # the sign rule keeps the orientation of the profile
    unit = profile / np.sqrt(GRID.cell_volume * np.sum(profile**2))
    assert np.max(np.abs(stats.mode_profiles[0] - unit)) <= 1e-14


# --- rotor closed forms --------------------------------------------------


def test_rotor_drift_is_constant():
    # phase-averaged cosines give h_eff = A^2 / (4 rate) independent of x
    stats = noise_statistics(rotor_noise(GRID, 1.0, 1, 1.0))
    assert np.allclose(stats.drift_effective, 0.25, atol=1e-12)
    assert np.allclose(stats.drift_paper, -0.25, atol=1e-12)


def test_rotor_kernel_modes():
    amp, rate = 1.3, 0.7
    stats = noise_statistics(rotor_noise(GRID, amp, 2, rate))
    x = GRID.axis_points()
    expected = amp**2 / (2.0 * rate) * np.cos(2.0 * np.pi * 2 * (x[:, None] - x[None, :]))
    assert np.max(np.abs(stats.kernel - expected)) <= 1e-12
    assert stats.rank == 2
    assert np.allclose(stats.mode_weights, amp**2 / (4.0 * rate), atol=1e-12)


# --- generic kernel structure --------------------------------------------


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_kernel_structure_random_chains(n_states):
    rng = np.random.default_rng(40 + n_states)
    stats = noise_statistics(random_chain(rng, n_states, GRID))
    assert np.max(np.abs(stats.kernel - stats.kernel.T)) <= 1e-12
    assert np.allclose(stats.drift_effective, -stats.drift_paper, atol=1e-13)
    diag = np.diag(stats.kernel).reshape(GRID.shape)
    assert np.allclose(stats.drift_effective, 0.5 * diag, atol=1e-13)
    # PSD and spectral reconstruction from the retained modes
    assert np.all(stats.mode_weights > 0.0)
    recon = np.einsum("j,jx,jy->xy", stats.mode_weights, stats.mode_profiles, stats.mode_profiles)
    top = stats.mode_weights[0]
    assert np.max(np.abs(recon - stats.kernel)) <= 1e-8 * top


def test_mode_profiles_are_orthonormal():
    rng = np.random.default_rng(77)
    stats = noise_statistics(random_chain(rng, 4, GRID))
    flat = stats.mode_profiles.reshape(stats.rank, -1)
    gram = GRID.cell_volume * flat @ flat.T
    assert np.allclose(gram, np.eye(stats.rank), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_states=st.integers(2, 5), n_x=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
@example(n_states=2, n_x=4, seed=0)  # 2s = n_x
@example(n_states=5, n_x=7, seed=1)  # 2s > n_x, odd n_x
@example(n_states=3, n_x=33, seed=2)
@example(n_states=4, n_x=32, seed=77)  # the fixtures of the two tests above
@example(n_states=3, n_x=32, seed=43)
@example(n_states=4, n_x=32, seed=44)
@example(n_states=5, n_x=32, seed=45)
def test_factored_modes_match_the_dense_spectrum(n_states, n_x, seed):
    """The eigenmodes from the rank-2s factor against a dense eigensolver of
    the whole kernel."""
    grid = TorusGrid(n_x)
    stats = noise_statistics(random_chain(np.random.default_rng(seed), n_states, grid))
    dense = np.linalg.eigvalsh(stats.kernel * grid.cell_volume)[::-1]
    top = dense[0]
    assert stats.rank == np.count_nonzero(dense > EIG_CLIP * top)
    assert np.max(np.abs(stats.mode_weights - dense[:stats.rank])) <= 1e-12 * top
    vectors = stats.mode_profiles * np.sqrt(grid.cell_volume)
    assert np.max(np.abs(vectors @ vectors.T - np.eye(stats.rank))) <= 1e-12
    rebuilt = (stats.mode_weights * vectors.T) @ vectors
    assert np.max(np.abs(rebuilt - stats.kernel * grid.cell_volume)) <= 1e-12 * top
    for profile in stats.mode_profiles:
        # the first entry of at least half the largest magnitude is positive
        lead = np.flatnonzero(np.abs(profile) >= 0.5 * np.max(np.abs(profile)))[0]
        assert profile[lead] > 0.0


def test_indefinite_kernel_is_rejected():
    """A stationary vector that is not the chain's law makes the kernel
    indefinite.  The flip chain on four states has the uniform law; the
    coefficient vectors (1, -1, 0, 0) and (0, 0, 1, -1) are centered under
    it and under the vector (1, 1, -1/2, -1/2) that replaces it."""
    generator = np.ones((4, 4)) - 4.0 * np.eye(4)
    wrong = np.array([1.0, 1.0, -0.5, -0.5])
    x = GRID.axis_points()
    states = np.outer([1.0, -1.0, 0.0, 0.0], np.cos(2.0 * np.pi * x))
    states += np.outer([0.0, 0.0, 1.0, -1.0], np.sin(2.0 * np.pi * x))
    psi = solve_poisson(generator, wrong, states)
    half = psi.T @ (wrong[:, None] * states)
    spectrum = np.linalg.eigvalsh(-(half + half.T))
    assert spectrum[0] < -0.1 * spectrum[-1] < 0.0
    with pytest.raises(ValueError, match="covariance kernel is not positive semidefinite"):
        noise_statistics(NoiseModel(GRID, states, generator, wrong))


# --- path sampling -------------------------------------------------------


def test_path_bookkeeping_by_hand():
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    path = NoisePath(
        model,
        t_final=1.0,
        jump_times=np.array([0.0, 0.25, 0.7]),
        state_indices=np.array([0, 1, 0]),
    )
    assert state_index_at(path, 0.1) == 0
    assert state_index_at(path, 0.25) == 1
    assert state_index_at(path, 0.9) == 0
    assert np.allclose(path.occupations(0.0, 1.0), [0.55, 0.45], atol=1e-15)
    assert np.allclose(path.occupations(0.2, 0.8), [0.15, 0.45], atol=1e-15)
    integ = path.occupations(0.0, 1.0) @ model.states
    expected = 0.55 * model.states[0] + 0.45 * model.states[1]
    assert np.allclose(integ, expected, atol=1e-14)
    with pytest.raises(ValueError):
        path.occupations(0.5, 1.5)


def brute_force_occupations(path, t0, t1):
    """Time in each state during [t0, t1], over every piece of the path."""
    occ = np.zeros(path.model.n_states)
    ends = [*path.jump_times[1:], math.inf]
    for start, end, state in zip(path.jump_times, ends, path.state_indices):
        left, right = max(start, t0), min(end, t1)
        if right > left:
            occ[state] += right - left
    return occ


@settings(max_examples=60, deadline=None)
@given(
    fixture=st.sampled_from(["telegraph", "rotor"]),
    epsilon=st.sampled_from([0.5, 0.25, 0.1]),
    t_final=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_paths=st.integers(1, 5),
    data=st.data(),
)
def test_window_arrays_match_scalar_calls_and_brute_force(fixture, epsilon, t_final,
                                                          seed, n_paths, data):
    """The occupation table of a batch of paths over an array of windows
    equals one call per path and window and a sum over every piece of the
    path, bit for bit, and each window sums to its length."""
    if fixture == "telegraph":
        model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    else:
        model = rotor_noise(GRID, 1.0, 1, 2.0)
    rng = np.random.default_rng(seed)
    paths = [sample_path(model, epsilon, t_final, rng) for _ in range(n_paths)]
    # window ends anywhere, at jump times of any path and at t_final
    jumps = np.concatenate([path.jump_times for path in paths]).tolist()
    point = st.one_of(st.floats(0.0, t_final), st.sampled_from([*jumps, t_final]))
    pairs = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=20))
    t0 = np.array([min(pair) for pair in pairs])
    t1 = np.array([max(pair) for pair in pairs])
    table = occupation_table(paths, t0, t1)
    assert table.shape == (n_paths, len(pairs), model.n_states)
    for path, occ in zip(paths, table):
        assert np.array_equal(occ, path.occupations(t0, t1))
        for i in range(len(pairs)):
            assert np.array_equal(occ[i], path.occupations(float(t0[i]), float(t1[i])))
            assert np.array_equal(occ[i], brute_force_occupations(path, t0[i], t1[i]))
            assert abs(occ[i].sum() - (t1[i] - t0[i])) <= 1e-15
    stacked = occupation_table(paths, np.stack([t0, t0]), np.stack([t1, t1]))
    assert stacked.shape == (n_paths, 2, len(pairs), model.n_states)
    assert np.array_equal(stacked[:, 1], table)


def test_nan_jump_time_makes_later_windows_nan():
    """A NaN jump time spoils the later windows of its own row only."""
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    nan_path = NoisePath(model, 1.0, np.array([0.0, 0.4, np.nan]), np.array([0, 1, 1]))
    clean = NoisePath(model, 1.0, np.array([0.0, 0.25]), np.array([1, 0]))
    occ = occupation_table([clean, nan_path, clean],
                           np.array([0.0, 0.2, 0.3]), np.array([0.2, 0.3, 0.5]))
    assert np.array_equal(occ[1, :2], [[0.2, 0.0], [0.3 - 0.2, 0.0]])
    assert np.isnan(occ[1, 2]).any()
    expected = [[0.0, 0.2], [0.3 - 0.25, 0.25 - 0.2], [0.5 - 0.3, 0.0]]
    assert np.array_equal(occ[0], expected)
    assert np.array_equal(occ[2], expected)


def test_profile_integral_is_additive():
    model = rotor_noise(GRID, 1.0, 1, 2.0)
    rng = np.random.default_rng(9)
    path = sample_path(model, 0.5, 2.0, rng)
    left = path.occupations(0.0, 0.8) @ model.states
    right = path.occupations(0.8, 2.0) @ model.states
    total = path.occupations(0.0, 2.0) @ model.states
    assert np.allclose(left + right, total, atol=1e-12)


def test_sample_path_reproducible():
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    a = sample_path(model, 0.5, 3.0, np.random.default_rng(123))
    b = sample_path(model, 0.5, 3.0, np.random.default_rng(123))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.state_indices, b.state_indices)


def reference_sample_path(model, epsilon, t_final, rng):
    """The sampler as first written: it rebuilds the chain tables on every
    draw and draws the initial state with ``rng.choice``."""
    rates = -np.diag(model.generator) / epsilon**2
    jump_probs = model.generator - np.diag(np.diag(model.generator))
    jump_cdf = np.cumsum(jump_probs / jump_probs.sum(axis=1, keepdims=True), axis=1)
    state = int(rng.choice(model.n_states, p=model.stationary))
    times = [0.0]
    states = [state]
    t = float(rng.exponential(1.0 / rates[state]))
    while t < t_final:
        state = int(np.searchsorted(jump_cdf[state], rng.random()))
        times.append(t)
        states.append(state)
        t += float(rng.exponential(1.0 / rates[state]))
    return np.array(times), np.array(states, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    fixture=st.sampled_from(["telegraph", "rotor", "random"]),
    n_states=st.integers(2, 6),
    epsilon=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    t_final=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_path_matches_reference_sampler(fixture, n_states, epsilon, t_final, seed):
    """Cached chain tables and the inlined stationary draw leave every path
    and the generator's state after it bit for bit as they were."""
    if fixture == "telegraph":
        model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.5)
    elif fixture == "rotor":
        model = rotor_noise(GRID, 1.0, 1, 2.0)
    else:
        model = random_chain(np.random.default_rng(seed), n_states, GRID)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        path = sample_path(model, epsilon, t_final, rng)
        times, states = reference_sample_path(model, epsilon, t_final, reference_rng)
        assert np.array_equal(path.jump_times, times)
        assert np.array_equal(path.state_indices, states)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_holding_times_scale_with_epsilon():
    # flip rate 1 at epsilon = 1/2 means rate 4, mean dwell 0.25; the first
    # jump time of each path is an uncensored exponential sample
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    rng = np.random.default_rng(2024)
    dwells = np.array(
        [sample_path(model, 0.5, 5.0, rng).jump_times[1] for _ in range(1000)]
    )
    sem = dwells.std(ddof=1) / np.sqrt(len(dwells))
    assert abs(dwells.mean() - 0.25) <= 3.0 * sem


def test_occupation_fractions_approach_stationary_law():
    model = rotor_noise(GRID, 1.0, 1, 1.0)
    rng = np.random.default_rng(31)
    occ = np.zeros(3)
    for _ in range(200):
        occ += sample_path(model, 0.25, 1.0, rng).occupations(0.0, 1.0)
    frac = occ / occ.sum()
    assert np.allclose(frac, model.stationary, atol=0.02)


@pytest.mark.parametrize("builder", ["telegraph", "rotor"])
def test_time_reversal_half_kernel(builder):
    # E[ m_0(y) int_0^S m_t(x) dt ] = -sum_i nu_i n_i(y) psi_i(x) at epsilon = 1
    if builder == "telegraph":
        model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    else:
        model = rotor_noise(GRID, 1.0, 1, 1.0)
    stats = noise_statistics(model)
    ix, iy = 0, 5
    expected = -float(
        np.sum(stats.model.stationary * model.states[:, iy] * stats.poisson_profiles[:, ix])
    )
    rng = np.random.default_rng(900)
    vals = np.empty(3000)
    for k in range(vals.size):
        path = sample_path(model, 1.0, 8.0, rng)
        start = model.states[path.state_indices[0], iy]
        vals[k] = start * (path.occupations(0.0, 8.0) @ model.states)[ix]
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - expected) <= 3.0 * sem
