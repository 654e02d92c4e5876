"""Limit-equation solver: diffusion oracle, stability, noise-law checks."""

import math

import numpy as np
import pytest
from conftest import fixed_blocks
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rosselab import fourier
from rosselab.harness import rosseland_reference
from rosselab.limit import (
    STEPS_PER_DECAY,
    SpdeConfig,
    SpdeStepper,
    _integrate,
    rosseland_remainder,
    rosseland_rhs,
    run_limit,
    split_rate,
)
from rosselab.model import Opacity, TorusGrid, l2_norm_sq
from rosselab.noise import cosine_profile, noise_statistics, rotor_noise, telegraph_noise

GRID = TorusGrid(32)


def telegraph_stats(grid=GRID, amp=1.0, rate=1.0):
    return noise_statistics(telegraph_noise(grid, cosine_profile(grid, amp, 1), rate))


# --- deterministic diffusion ---------------------------------------------


def test_default_step_rule_does_not_depend_on_the_grid():
    # STEPS_PER_DECAY steps per decay time sigma_* / (4 pi^2 K): 79 steps on
    # the acceptance fixture at any n_x, one step with diffusion off
    for n_x in (16, 32, 128):
        cfg = SpdeConfig(TorusGrid(n_x), Opacity(1.0, 2.0), 1.0, t_final=0.25)
        assert cfg.n_steps == 79
    cfg = SpdeConfig(GRID, Opacity(2.0, 3.0), 0.5, t_final=0.25)
    decay = 2.0 / (4.0 * np.pi**2 * 0.5)
    assert cfg.dt <= decay / STEPS_PER_DECAY
    assert cfg.n_steps == math.ceil(STEPS_PER_DECAY * 0.25 / decay)
    off = SpdeConfig(GRID, Opacity(1.0, 2.0), 1.0, t_final=0.25, include_diffusion=False)
    assert off.n_steps == 1


def test_rosseland_rhs_constant_opacity_is_scaled_laplacian():
    x = GRID.axis_points()
    rho = 1.0 + 0.25 * np.cos(2.0 * np.pi * x)
    out = rosseland_rhs(GRID, Opacity(2.0, 2.0), 3.0, rho)
    expected = -(3.0 / 2.0) * 0.25 * 4.0 * np.pi**2 * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(out - expected)) <= 1e-11


def test_rosseland_rhs_chain_rule_route():
    # independent route: Lap G(rho) = G''(rho) |grad rho|^2 + G'(rho) Lap rho
    sigma = Opacity(1.0, 2.0)
    x = GRID.axis_points()
    rho = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    grad = -0.3 * 2.0 * np.pi * np.sin(2.0 * np.pi * x)
    lap = -0.3 * 4.0 * np.pi**2 * np.cos(2.0 * np.pi * x)
    h = 1e-5
    g1 = (sigma.primitive(rho + h) - sigma.primitive(rho - h)) / (2.0 * h)
    g2 = (sigma.primitive(rho + h) - 2.0 * sigma.primitive(rho) + sigma.primitive(rho - h)) / h**2
    expected = g2 * grad**2 + g1 * lap
    out = rosseland_rhs(GRID, sigma, 1.0, rho)
    assert np.max(np.abs(out - expected)) <= 1e-4 * np.max(np.abs(out))


def test_config_validation():
    # any dt dividing t_final is accepted, far above the explicit dx^2 bound
    assert SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, t_final=0.1, dt=0.05).n_steps == 2
    with pytest.raises(ValueError, match="multiple"):
        SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, t_final=0.1, dt=1.7e-4)
    with pytest.raises(ValueError, match="drift"):
        SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, t_final=0.1, drift="stratonovich")
    cfg = SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, t_final=0.1)
    assert cfg.dt <= 1.0 / (4.0 * np.pi**2 * STEPS_PER_DECAY)
    assert cfg.n_steps * cfg.dt == pytest.approx(0.1, rel=1e-12)


def test_heat_decay_light_fixture():
    grid = TorusGrid(32)
    x = grid.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    t_final = 0.05
    cfg = SpdeConfig(grid, Opacity(1.0, 1.0), 1.0, t_final, dt=1e-4, snapshot_stride=10**6)
    traj = run_limit(cfg, rho0)
    exact = 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t_final) * np.cos(2.0 * np.pi * x)
    assert np.sqrt(l2_norm_sq(grid, traj.densities[-1] - exact)) <= 5e-4


def test_constant_density_is_steady_without_noise():
    cfg = SpdeConfig(GRID, Opacity(1.0, 2.0), 1.0, t_final=0.02)
    traj = run_limit(cfg, np.full(GRID.shape, 1.7))
    assert np.max(np.abs(traj.densities[-1] - 1.7)) <= 1e-13
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-13


def test_deterministic_run_conserves_mass():
    x = GRID.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    cfg = SpdeConfig(GRID, Opacity(1.0, 2.0), 1.0, t_final=0.05)
    traj = run_limit(cfg, rho0)
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12


def test_positivity_monitor_aborts():
    x = GRID.axis_points()
    rho0 = 0.05 + np.cos(2.0 * np.pi * x)  # dips below zero
    cfg = SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, t_final=0.01)
    with pytest.raises(FloatingPointError, match="positivity"):
        run_limit(cfg, rho0)


#: ways a row of the block property fails from a step on: NaN normals, or
#: normals scaled so that the noise flow breaks positivity (through the
#: diffusion solve) or overflows
ALTERATIONS = {
    "nan": lambda xi: np.full_like(xi, np.nan),
    "hot": lambda xi: 300.0 * xi,
    "loud": lambda xi: 1e5 * xi,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    n_x=st.sampled_from([7, 8, 16]),
    rows=st.integers(1, 5),
    n_steps=st.integers(1, 24),
    stride=st.integers(1, 9),
    fixture=st.sampled_from(["telegraph", "rotor"]),
    block=st.one_of(st.sampled_from([1, None]), st.integers(2, 30)),
    failures=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(sorted(ALTERATIONS)),
                                st.floats(0.0, 1.0)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# row 1 turns NaN from step 1 and row 0 loses positivity at step 8 of the
# same block: the run names row 0 at step 8
@example(n_x=8, rows=2, n_steps=10, stride=1, fixture="telegraph", block=None,
         failures=[(1, "nan", 0.0), (0, "hot", 0.6)], seed=0)
def test_blocks_keep_every_row_and_failure(n_x, rows, n_steps, stride, fixture, block,
                                           failures, seed):
    """Any block length records the bits and raises the error that each row
    run alone does: mass, norm_sq and snapshots of every row, and with rows
    failing from random steps on, the error of the lowest row that fails
    alone.  Rows that step past their failure inside a block warn of
    nothing."""
    grid = TorusGrid(n_x)
    if fixture == "telegraph":
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
    else:
        model = rotor_noise(grid, 1.0, 1, 2.0)
    stats = noise_statistics(model)
    config = SpdeConfig(grid, Opacity(1.0, 2.0), 0.5, n_steps * 0.01, dt=0.01, noise=stats,
                        snapshot_stride=stride)
    rng = np.random.default_rng(seed)
    rho0 = rng.uniform(0.5, 1.5, n_x)
    normals = rng.standard_normal((n_steps, rows, stats.rank))
    for row, kind, when in failures:
        if row < rows:
            k = min(int(when * n_steps), n_steps - 1)
            normals[k:, row] = ALTERATIONS[kind](normals[k:, row])

    def run(block, row=None):
        # a lone row is sample ``row`` of a chunk, as in the batch
        lone = slice(None) if row is None else slice(row, row + 1)
        with fixed_blocks(block):
            try:
                return _integrate(config, rho0, normals[:, lone], first_sample=row or 0)
            except FloatingPointError as exc:
                return str(exc)

    single, blocked = run(1), run(block)
    alone = [run(1, row) for row in range(rows)]
    raised = [result for result in alone if isinstance(result, str)]
    if raised:
        assert single == blocked == raised[0]
        return
    # times, snapshots, step times, mass and norm_sq of every row
    for a, b in zip(single, blocked):
        assert a.tobytes() == b.tobytes()
    for row, lone in enumerate(alone):
        for i in (1, 3, 4):
            assert single[i][row].tobytes() == lone[i][0].tobytes()


# --- multiplicative noise in test mode (diffusion off) -------------------


def gbm_config(stats, t_final=0.25, dt=1e-3, drift="effective"):
    return SpdeConfig(
        GRID,
        Opacity(1.0, 1.0),
        1.0,
        t_final,
        dt=dt,
        noise=stats,
        drift=drift,
        include_diffusion=False,
        snapshot_stride=10**6,
    )


def final_densities(cfg, rho0, rng, n_samples):
    """Final densities of n_samples runs drawing their normals from rng in
    turn, as consecutive ``run_limit(cfg, rho0, rng=rng)`` calls do; the
    runs are integrated as one batch, which leaves each run's bits as they
    are alone."""
    normals = np.stack(
        [rng.standard_normal((cfg.n_steps, cfg.noise_rank)) for _ in range(n_samples)], axis=1
    )
    _, snaps, *_ = _integrate(cfg, rho0, normals)
    return snaps[:, -1]


def test_pointwise_mean_matches_geometric_growth():
    # with diffusion off each point follows the scalar geometric SDE
    # d rho = h rho dt + rho dW, which the noise flow samples exactly:
    # E rho_T = rho0 exp(h T)
    stats = telegraph_stats()
    cfg = gbm_config(stats)
    x_idx = 0
    h = stats.drift_effective.reshape(-1)[x_idx]
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(5150)
    vals = final_densities(cfg, rho0, rng, 1000)[:, x_idx]
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - np.exp(h * cfg.t_final)) <= 3.0 * sem


def test_error_halves_with_dt():
    # first order in dt for the linearly implicit step: diffusion on, noise
    # off, each run against a run with 4x the steps
    x = GRID.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)

    def final(n):
        cfg = SpdeConfig(GRID, Opacity(1.0, 2.0), 1.0, 0.1, dt=0.1 / n)
        return run_limit(cfg, rho0).densities[-1]

    errors = [math.sqrt(l2_norm_sq(GRID, final(n) - final(4 * n))) for n in (10, 20, 40)]
    assert 1.8 <= errors[0] / errors[1] <= 2.2
    assert 1.8 <= errors[1] / errors[2] <= 2.2


@pytest.mark.parametrize("maker", ["telegraph", "rotor"])
def test_log_density_is_centered_with_effective_drift(maker):
    # h_eff = k(x,x)/2 makes log rho a martingale, E log rho_T = log rho0,
    # for any chain: the rank-1 and rank-2 kernels share this structure
    if maker == "telegraph":
        stats = telegraph_stats()
    else:
        stats = noise_statistics(rotor_noise(GRID, 1.0, 1, 1.0))
    cfg = gbm_config(stats, dt=1e-3)
    rho0 = np.full(GRID.shape, 2.0)
    rng = np.random.default_rng(99)
    logs = np.log(final_densities(cfg, rho0, rng, 600)[:, 3])
    sem = logs.std(ddof=1) / np.sqrt(logs.size)
    assert abs(logs.mean() - np.log(2.0)) <= 3.0 * sem


def test_log_density_decays_with_paper_drift():
    # the opposite sign convention turns the zero log-drift into
    # h - k(x,x)/2 = -k(x,x): E log rho_T = log rho0 - k(x,x) T
    stats = telegraph_stats()
    x_idx = 0
    kxx = stats.kernel[x_idx, x_idx]
    cfg = gbm_config(stats, dt=1e-3, drift="paper")
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(77)
    logs = np.log(final_densities(cfg, rho0, rng, 500)[:, x_idx])
    sem = logs.std(ddof=1) / np.sqrt(logs.size)
    expected = -kxx * cfg.t_final
    assert abs(logs.mean() - expected) <= 3.0 * sem
    # clearly distinct from the centered behaviour
    assert abs(expected) > 10.0 * sem


def test_second_moment_growth_rate():
    # E rho_T^2 = rho0^2 exp((2 h + k(x,x)) T) pointwise when diffusion is off
    stats = telegraph_stats()
    x_idx = 2
    h = stats.drift_effective.reshape(-1)[x_idx]
    kxx = stats.kernel[x_idx, x_idx]
    cfg = gbm_config(stats, dt=1e-3)
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(31337)
    sq = final_densities(cfg, rho0, rng, 1200)[:, x_idx] ** 2
    sem = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - np.exp((2.0 * h + kxx) * cfg.t_final)) <= 3.0 * sem


# --- properties of the split ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_x=st.integers(8, 128),
    s0=st.floats(1e-2, 1e2),
    s1=st.floats(0.0, 1e2),
    diffusion=st.floats(1e-2, 1e2),
    dt=st.floats(1e-6, 10.0),
)
def test_noise_off_step_conserves_mass_and_never_gains_energy(data, n_x, s0, s1, diffusion, dt):
    # any positive field, rational opacity, K and dt, far above the dx^2
    # bound of an explicit step
    rho = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n_x, max_size=n_x)))
    grid = TorusGrid(n_x)
    opacity = Opacity(s0, s0 + s1)
    stepper = SpdeStepper(SpdeConfig(grid, opacity, diffusion, t_final=dt, dt=dt))
    out = stepper.step(rho, np.zeros(0))
    remainder = np.fft.irfft(rosseland_remainder(grid, opacity, diffusion, np.fft.rfft(rho)), n_x)
    scale = max(abs(rho.mean()), dt * np.max(np.abs(remainder)))
    assert abs(out.mean() - rho.mean()) <= 1e-13 * scale
    assert np.sum((out - out.mean()) ** 2) <= np.sum((rho - rho.mean()) ** 2)


@settings(max_examples=50, deadline=None)
@given(
    s0=st.floats(0.5, 2.0),
    ratio=st.floats(0.25, 1.5),
    diffusion=st.floats(0.25, 1.0),
    amp=st.floats(0.05, 0.5),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_etdrk4_reference_is_fourth_order(s0, ratio, diffusion, amp, phase):
    # observed order under dt-halving, each run against a run with twice
    # its steps, around the default 16 steps per snapshot interval, for
    # opacities with sigma^* / sigma_* from 1.25 to 2.5 (the fixtures have 2)
    grid = TorusGrid(32)
    x = grid.axis_points()
    rho0 = 1.0 + amp * np.cos(2.0 * np.pi * x + phase) + 0.5 * amp * np.sin(4.0 * np.pi * x)
    opacity = Opacity(s0, s0 + ratio * s0)
    interval = 0.05

    def final(steps):
        _, densities = rosseland_reference(grid, opacity, diffusion, rho0, interval, 2,
                                           dt=interval / steps)
        return densities[-1]

    runs = {steps: final(steps) for steps in (8, 16, 32)}
    coarse = math.sqrt(l2_norm_sq(grid, runs[8] - runs[16]))
    fine = math.sqrt(l2_norm_sq(grid, runs[16] - runs[32]))
    assert math.log2(coarse / fine) >= 3.5


# --- plumbing ------------------------------------------------------------


def test_run_reproducible_and_needs_rng():
    stats = telegraph_stats()
    cfg = SpdeConfig(GRID, Opacity(1.0, 2.0), 1.0, 0.01, noise=stats)
    x = GRID.axis_points()
    rho0 = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    a = run_limit(cfg, rho0, rng=np.random.default_rng(1))
    b = run_limit(cfg, rho0, rng=np.random.default_rng(1))
    assert np.array_equal(a.densities, b.densities)
    with pytest.raises(ValueError, match="rng"):
        run_limit(cfg, rho0)


def test_limit_stepper_matches_manual_update():
    # geometric noise flow, then (rho + dt N)_hat / (1 - dt c symbol) with
    # N = K Lap G(rho) - c Lap rho, in the full FFT layout
    stats = telegraph_stats()
    cfg = SpdeConfig(GRID, Opacity(1.0, 2.0), 0.5, 0.01, dt=1e-3, noise=stats)
    x = GRID.axis_points()
    rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
    xi = np.array([0.7])
    out = SpdeStepper(cfg).step(rho, xi)
    noise_field = np.sqrt(stats.mode_weights[0]) * stats.mode_profiles[0] * 0.7
    flowed = rho * np.exp(np.sqrt(cfg.dt) * noise_field)
    c = 0.5 * 0.5 * (1.0 / 1.0 + 1.0 / 2.0)
    assert split_rate(cfg.opacity, 0.5) == c
    remainder = rosseland_rhs(GRID, cfg.opacity, 0.5, flowed) - c * fourier.laplacian(GRID, flowed)
    symbol = -4.0 * np.pi**2 * np.fft.fftfreq(GRID.n_x, d=1.0 / GRID.n_x) ** 2
    manual = np.fft.ifft(np.fft.fft(flowed + cfg.dt * remainder) / (1.0 - cfg.dt * c * symbol)).real
    assert np.allclose(out, manual, rtol=0.0, atol=1e-14)


def test_remainder_completes_the_linear_part():
    # K Lap G(rho) = c Lap rho + N(rho); N vanishes for a constant opacity
    x = GRID.axis_points()
    rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * x) + 0.3 * np.sin(6.0 * np.pi * x)
    for opacity in (Opacity(1.0, 2.0), Opacity(0.5, 3.5)):
        c = split_rate(opacity, 0.7)
        remainder = np.fft.irfft(rosseland_remainder(GRID, opacity, 0.7, np.fft.rfft(rho)), 32)
        linear = c * fourier.laplacian(GRID, rho)
        full = rosseland_rhs(GRID, opacity, 0.7, rho)
        assert np.max(np.abs(linear + remainder - full)) <= 1e-13 * np.max(np.abs(linear))
    remainder = rosseland_remainder(GRID, Opacity(2.0, 2.0), 0.7, np.fft.rfft(rho))
    assert np.max(np.abs(remainder)) <= 1e-13


def test_paper_drift_flow_is_shifted_by_the_kernel_diagonal():
    # h - k(x,x)/2 = -k(x,x) for the paper drift, 0 for the effective one
    stats = telegraph_stats()
    rho = np.full(GRID.shape, 1.3)
    xi = np.array([-0.4])
    steps = {
        drift: SpdeStepper(SpdeConfig(GRID, Opacity(1.0, 1.0), 1.0, 0.01, dt=1e-3,
                                      noise=stats, drift=drift,
                                      include_diffusion=False)).step(rho, xi)
        for drift in ("effective", "paper")
    }
    kxx = np.diag(stats.kernel)
    assert np.allclose(steps["paper"], steps["effective"] * np.exp(-kxx * 1e-3),
                       rtol=1e-14, atol=0.0)
