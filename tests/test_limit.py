"""Limit-equation solver: diffusion oracle, stability, noise-law checks."""

import numpy as np
import pytest

from rosselab.limit import (
    SpdeConfig,
    SpdeStepper,
    _integrate,
    rosseland_rhs,
    run_limit,
    stable_dt,
)
from rosselab.model import (
    ConstantOpacity,
    RationalOpacity,
    TorusGrid,
    l2_norm_sq,
)
from rosselab.noise import cosine_profile, noise_statistics, rotor_noise, telegraph_noise

GRID = TorusGrid(32)


def telegraph_stats(grid=GRID, amp=1.0, rate=1.0):
    return noise_statistics(telegraph_noise(grid, cosine_profile(grid, amp, 1), rate))


# --- deterministic diffusion ---------------------------------------------


def test_stable_dt_value():
    assert stable_dt(GRID, ConstantOpacity(1.0), 1.0) == pytest.approx(0.2 / 1024.0, rel=1e-12)
    # scales with sigma_star and 1/K
    assert stable_dt(GRID, RationalOpacity(2.0, 1.0), 0.5) == pytest.approx(
        0.2 * 2.0 / (1024.0 * 0.5), rel=1e-12
    )


def test_rosseland_rhs_constant_opacity_is_scaled_laplacian():
    x = GRID.axis_points()
    rho = 1.0 + 0.25 * np.cos(2.0 * np.pi * x)
    out = rosseland_rhs(GRID, ConstantOpacity(2.0), 3.0, rho)
    expected = -(3.0 / 2.0) * 0.25 * 4.0 * np.pi**2 * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(out - expected)) <= 1e-11


def test_rosseland_rhs_chain_rule_route():
    # independent route: Lap G(rho) = G''(rho) |grad rho|^2 + G'(rho) Lap rho
    sigma = RationalOpacity()
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
    with pytest.raises(ValueError, match="stability"):
        SpdeConfig(GRID, ConstantOpacity(1.0), 1.0, t_final=0.1, dt=1e-3)
    with pytest.raises(ValueError, match="multiple"):
        SpdeConfig(GRID, ConstantOpacity(1.0), 1.0, t_final=0.1, dt=1.7e-4)
    with pytest.raises(ValueError, match="drift"):
        SpdeConfig(GRID, ConstantOpacity(1.0), 1.0, t_final=0.1, drift="stratonovich")
    cfg = SpdeConfig(GRID, ConstantOpacity(1.0), 1.0, t_final=0.1)
    assert cfg.dt <= stable_dt(GRID, ConstantOpacity(1.0), 1.0) + 1e-15
    assert cfg.n_steps * cfg.dt == pytest.approx(0.1, rel=1e-12)


def test_heat_decay_light_fixture():
    grid = TorusGrid(32)
    x = grid.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    t_final = 0.05
    cfg = SpdeConfig(grid, ConstantOpacity(1.0), 1.0, t_final, dt=1e-4, snapshot_stride=10**6)
    traj = run_limit(cfg, rho0)
    exact = 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t_final) * np.cos(2.0 * np.pi * x)
    assert np.sqrt(l2_norm_sq(grid, traj.final_density() - exact)) <= 5e-4


def test_constant_density_is_steady_without_noise():
    cfg = SpdeConfig(GRID, RationalOpacity(), 1.0, t_final=0.02)
    traj = run_limit(cfg, np.full(GRID.shape, 1.7))
    assert np.max(np.abs(traj.final_density() - 1.7)) <= 1e-13
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-13


def test_deterministic_run_conserves_mass():
    x = GRID.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    cfg = SpdeConfig(GRID, RationalOpacity(), 1.0, t_final=0.05)
    traj = run_limit(cfg, rho0)
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12


def test_positivity_monitor_aborts():
    x = GRID.axis_points()
    rho0 = 0.05 + np.cos(2.0 * np.pi * x)  # dips below zero
    cfg = SpdeConfig(GRID, ConstantOpacity(1.0), 1.0, t_final=0.01)
    with pytest.raises(FloatingPointError, match="positivity"):
        run_limit(cfg, rho0)


# --- multiplicative noise in test mode (diffusion off) -------------------


def gbm_config(stats, t_final=0.25, dt=1e-3, drift="effective"):
    return SpdeConfig(
        GRID,
        ConstantOpacity(1.0),
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
    _, snaps, *_ = _integrate(cfg, rho0, normals, history=False)
    return snaps[-1]


def test_pointwise_mean_matches_discrete_geometric_growth():
    # with diffusion off each point follows a scalar linear SDE whose
    # Euler mean is exactly rho0 (1 + h dt)^n
    stats = telegraph_stats()
    cfg = gbm_config(stats)
    x_idx = 0
    h = stats.drift_effective.reshape(-1)[x_idx]
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(5150)
    vals = final_densities(cfg, rho0, rng, 1000)[:, x_idx]
    discrete_mean = (1.0 + h * cfg.dt) ** cfg.n_steps
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - discrete_mean) <= 3.0 * sem
    # and the discrete mean itself is close to the continuous one
    assert discrete_mean == pytest.approx(np.exp(h * cfg.t_final), rel=2e-4)


def test_weak_error_of_mean_halves_with_dt():
    # first-order weak accuracy, checked on the exact discrete mean
    stats = telegraph_stats()
    h = float(np.max(stats.drift_effective))
    T = 0.5
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        n = round(T / dt)
        errors.append(abs((1.0 + h * dt) ** n - np.exp(h * T)))
    assert 1.8 <= errors[0] / errors[1] <= 2.2
    assert 1.8 <= errors[1] / errors[2] <= 2.2


@pytest.mark.parametrize("maker", ["telegraph", "rotor"])
def test_log_density_is_centered_with_effective_drift(maker):
    # h_eff = k(x,x)/2 makes log rho a discrete martingale up to O(dt) bias,
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
    assert abs(logs.mean() - np.log(2.0)) <= 3.0 * sem + 2e-3


def test_log_density_decays_with_paper_drift():
    # the opposite sign convention turns the zero log-drift into -k(x,x)
    stats = telegraph_stats()
    x_idx = 0
    kxx = stats.kernel[x_idx, x_idx]
    cfg = gbm_config(stats, dt=1e-3, drift="paper")
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(77)
    logs = np.log(final_densities(cfg, rho0, rng, 500)[:, x_idx])
    sem = logs.std(ddof=1) / np.sqrt(logs.size)
    expected = -kxx * cfg.t_final
    assert abs(logs.mean() - expected) <= 3.0 * sem + 2e-3
    # clearly distinct from the centered behaviour
    assert abs(expected) > 10.0 * sem


def test_second_moment_growth_rate():
    # d E rho^2 / dt = (2 h + k(x,x)) E rho^2 pointwise when diffusion is off
    stats = telegraph_stats()
    x_idx = 2
    h = stats.drift_effective.reshape(-1)[x_idx]
    kxx = stats.kernel[x_idx, x_idx]
    cfg = gbm_config(stats, dt=1e-3)
    rho0 = np.full(GRID.shape, 1.0)
    rng = np.random.default_rng(31337)
    sq = final_densities(cfg, rho0, rng, 1200)[:, x_idx] ** 2
    discrete = ((1.0 + h * cfg.dt) ** 2 + kxx * cfg.dt) ** cfg.n_steps
    sem = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - discrete) <= 3.0 * sem
    assert discrete == pytest.approx(np.exp((2.0 * h + kxx) * cfg.t_final), rel=2e-3)


# --- plumbing ------------------------------------------------------------


def test_run_reproducible_and_needs_rng():
    stats = telegraph_stats()
    cfg = SpdeConfig(GRID, RationalOpacity(), 1.0, 0.01, noise=stats)
    x = GRID.axis_points()
    rho0 = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    a = run_limit(cfg, rho0, rng=np.random.default_rng(1))
    b = run_limit(cfg, rho0, rng=np.random.default_rng(1))
    assert np.array_equal(a.densities, b.densities)
    with pytest.raises(ValueError, match="rng"):
        run_limit(cfg, rho0)


def test_limit_stepper_matches_manual_update():
    stats = telegraph_stats()
    cfg = SpdeConfig(GRID, RationalOpacity(), 0.5, 0.01, dt=1e-4, noise=stats)
    x = GRID.axis_points()
    rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
    xi = np.array([0.7])
    out = SpdeStepper(cfg).step(rho, xi)
    noise_field = np.sqrt(stats.mode_weights[0]) * stats.mode_profiles[0] * 0.7
    manual = (
        rho
        + cfg.dt * rosseland_rhs(GRID, cfg.opacity, 0.5, rho)
        + cfg.dt * stats.drift_effective * rho
        + np.sqrt(cfg.dt) * rho * noise_field
    )
    assert np.allclose(out, manual, atol=1e-14)
