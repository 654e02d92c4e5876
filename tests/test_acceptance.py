"""Acceptance battery: one criterion per test, one printed verdict line each.

The verdict lines are echoed in the terminal summary at the end of any
pytest run (see conftest.py).  Criteria 6 and 7 carry Monte Carlo weight;
the whole battery takes about half a minute on one core (see README.md).  The
scaling-limit fixture and every statistical threshold come from
configs/acceptance.ini, not from literals in this file.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import conftest
from rosselab.cli import main
from rosselab.config import parse_config
from rosselab.correctors import (
    FourierMode,
    build_correctors,
    generator_terms,
    martingale_residual,
)
from rosselab.harness import FUNCTIONAL_NAMES, deterministic_convergence, epsilon_sweep
from rosselab.kinetic import KineticConfig, iterate_kinetic, run_kinetic, transport_step
from rosselab.model import (
    TorusGrid,
    build_velocity_space,
    density,
    equilibrium_field,
    l2_norm_sq,
    make_opacity,
    relax_exact,
    relaxation_operator,
    weighted_inner,
)
from rosselab.noise import (
    cosine_profile,
    make_noise_model,
    noise_statistics,
    telegraph_noise,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"
RUN = parse_config(str(CONFIG_PATH))
MODE = FourierMode(1, "cos")


def verdict(criterion: int, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.VERDICTS.append(line)
    return ok


def random_chain(rng, n_states, grid):
    """Ergodic chain with random rates and random trigonometric profiles."""
    m = rng.uniform(0.5, 2.0, (n_states, n_states))
    np.fill_diagonal(m, 0.0)
    m -= np.diag(m.sum(axis=1))
    x = grid.axis_points()
    states = np.zeros((n_states, grid.n_x))
    for i in range(n_states):
        for k in range(1, 4):
            states[i] += rng.normal() * np.cos(2.0 * np.pi * k * x)
            states[i] += rng.normal() * np.sin(2.0 * np.pi * k * x)
    return make_noise_model(grid, states, m)


def test_criterion_1_structural_identities():
    tol = 1e-12
    grid = TorusGrid(16)
    opacity = make_opacity("rational", s0=1.0, s1=1.0)
    worst = 0.0
    rng = np.random.default_rng(100)
    for name in ("two-speed", "legendre"):
        quad = build_velocity_space(name)
        worst = max(worst, abs(quad.equilibrium_mass() - 1.0))
        worst = max(worst, abs(quad.null_flux()))
        assert quad.diffusion_coefficient() > 0.0
        for _ in range(50):
            f = 1.0 + 0.4 * rng.standard_normal(grid.shape + (quad.n_v,))
            relax = relaxation_operator(quad, f)
            dissip = weighted_inner(grid, quad, relax, f) + weighted_inner(grid, quad, relax, relax)
            worst = max(worst, abs(dissip))
            two_leg = relax_exact(quad, opacity, relax_exact(quad, opacity, f, 0.3), 0.5)
            one_leg = relax_exact(quad, opacity, f, 0.8)
            worst = max(worst, float(np.max(np.abs(two_leg - one_leg))))
    assert verdict(
        1, worst <= tol,
        f"mass/flux/dissipation/semigroup residuals <= {worst:.2e} (tol {tol:g})",
    )


def test_criterion_2_noise_algebra():
    tol = 1e-12
    grid = TorusGrid(16)
    amplitude, rate = 1.3, 0.7
    stats = noise_statistics(
        telegraph_noise(grid, cosine_profile(grid, amplitude, 1), rate)
    )
    profile = stats.model.states[0].ravel()
    worst = 0.0
    psi = stats.poisson_profiles.reshape(2, -1)
    n = stats.model.flat_states()
    worst = max(worst, float(np.max(np.abs(psi + n / (2.0 * rate)))))
    worst = max(worst, float(np.max(np.abs(stats.kernel - np.outer(profile, profile) / rate))))
    norm_sq = grid.integrate(profile**2)
    worst = max(worst, abs(stats.mode_weights[0] - norm_sq / rate))
    diag = np.diag(stats.kernel).reshape(grid.shape)
    worst = max(worst, float(np.max(np.abs(stats.drift_effective - 0.5 * diag))))
    worst = max(worst, float(np.max(np.abs(stats.drift_effective + stats.drift_paper))))

    poisson = 0.0
    for n_states in (3, 4, 5):
        model = random_chain(np.random.default_rng(200 + n_states), n_states, grid)
        chain_stats = noise_statistics(model)
        resid = model.generator @ chain_stats.poisson_profiles.reshape(n_states, -1) \
            - model.flat_states()
        poisson = max(poisson, float(np.max(np.abs(resid))))
    ok = worst <= tol and poisson <= tol
    assert verdict(
        2, ok,
        f"telegraph closed forms <= {worst:.2e}, random-chain Poisson residual "
        f"<= {poisson:.2e} (tol {tol:g})",
    )


def test_criterion_3_solver_oracles():
    grid = TorusGrid(32)
    x = grid.axis_points()
    quad = build_velocity_space("two-speed")

    f0 = np.stack([1.0 + 0.5 * np.cos(2.0 * np.pi * x)
                   + 0.3 * np.sin(4.0 * np.pi * x)] * 2, axis=-1)
    tau = 0.137
    shifted = transport_step(grid, quad, f0, tau)
    advect = 0.0
    for k, a in enumerate(quad.speeds):
        exact = (1.0 + 0.5 * np.cos(2.0 * np.pi * (x - a * tau))
                 + 0.3 * np.sin(4.0 * np.pi * (x - a * tau)))
        advect = max(advect, float(np.max(np.abs(shifted[..., k] - exact))))

    heat_grid = TorusGrid(64)
    xh = heat_grid.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * xh)
    config = KineticConfig(heat_grid, quad, make_opacity("constant", value=1.0),
                           epsilon=0.009, t_final=0.1, dt=1e-5)
    trajectory = run_kinetic(config, rho0)
    exact = 1.0 + 0.5 * math.exp(-4.0 * math.pi**2 * 0.1) * np.cos(2.0 * np.pi * xh)
    heat_err = math.sqrt(l2_norm_sq(heat_grid, trajectory.final_density() - exact))

    opacity = make_opacity("rational", s0=1.0, s1=1.0)
    rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)

    def final_state(dt):
        config = KineticConfig(grid, quad, opacity, epsilon=0.3, t_final=0.12, dt=dt)
        f = equilibrium_field(quad, rho)
        for _, _, fk in iterate_kinetic(config, f):
            out = fk
        return out

    fa, fb, fc = final_state(0.004), final_state(0.002), final_state(0.001)
    e1 = math.sqrt(sum(l2_norm_sq(grid, (fa - fb)[..., k]) for k in range(2)))
    e2 = math.sqrt(sum(l2_norm_sq(grid, (fb - fc)[..., k]) for k in range(2)))
    ratio = e1 / e2

    ok = advect <= 1e-12 and heat_err <= 1e-4 and 4.0 / 1.5 <= ratio <= 4.0 * 1.5
    assert verdict(
        3, ok,
        f"advection {advect:.2e} (<=1e-12), heat L2 error {heat_err:.3e} (<=1e-4), "
        f"Strang halving ratio {ratio:.2f} (order 2 within factor 1.5)",
    )


def test_criterion_4_deterministic_limit():
    grid = RUN.build_grid()
    quad = RUN.build_quad()
    opacity = RUN.build_opacity()
    rho0 = RUN.build_rho0(grid)
    report = deterministic_convergence(grid, quad, opacity, rho0, 0.5,
                                       [0.4, 0.2, 0.1, 0.05])
    ok = report.errors_strictly_decreasing() and report.slope >= RUN.slope_min
    errors = ", ".join(f"{e:.2e}" for e in report.errors)
    assert verdict(
        4, ok,
        f"errors [{errors}] strictly decreasing, slope {report.slope:.2f} "
        f"(>= {RUN.slope_min:g})",
    )


def test_criterion_5_corrector_algebra():
    tol = 1e-12
    grid = TorusGrid(16)
    x = grid.axis_points()
    quad = build_velocity_space("two-speed")
    opacity = make_opacity("rational", s0=1.0, s1=1.0)
    rho = 1.0 + 0.3 * np.cos(2.0 * np.pi * x) - 0.2 * np.sin(2.0 * np.pi * x)

    fixtures = [noise_statistics(telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0))]
    for seed in (31, 32):
        fixtures.append(noise_statistics(random_chain(np.random.default_rng(seed), 4, grid)))

    poisson = singular = balance = 0.0
    rng = np.random.default_rng(5)
    for stats in fixtures:
        model = stats.model
        first = build_correctors(stats, MODE).first_values(rho)
        p = MODE.profile(grid)
        forcing = np.array([grid.integrate(s * rho * p) for s in model.states])
        poisson = max(poisson, float(np.max(np.abs(model.generator @ first + forcing))))

        config = KineticConfig(grid, quad, opacity, epsilon=0.25, t_final=0.01,
                               noise=model)
        equilibrium = equilibrium_field(quad, rho)
        f_random = 1.0 + 0.3 * rng.standard_normal(grid.shape + (quad.n_v,))
        for state in range(model.n_states):
            terms_eq = generator_terms(config, stats, MODE, equilibrium, state)
            singular = max(singular, abs(terms_eq.transport_singular),
                           abs(terms_eq.relax_singular))
            terms_rand = generator_terms(config, stats, MODE, f_random, state)
            balance = max(balance, abs(terms_rand.eq2_residual))

    telegraph_stats = fixtures[0]
    phi2 = float(np.max(np.abs(build_correctors(telegraph_stats, MODE).second_profiles)))
    ok = max(poisson, singular, balance, phi2) <= tol
    assert verdict(
        5, ok,
        f"Poisson identity {poisson:.2e}, singular cancellations {singular:.2e}, "
        f"scale balance {balance:.2e}, telegraph phi2 {phi2:.2e} (tol {tol:g})",
    )


def test_criterion_6_martingale_problem():
    grid = RUN.build_grid()
    quad = RUN.build_quad()
    opacity = RUN.build_opacity()
    rho0 = RUN.build_rho0(grid)
    model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
    stats = noise_statistics(model)
    config = KineticConfig(grid, quad, opacity, epsilon=0.25, t_final=0.3,
                           dt=0.1 / 13.0, noise=model)
    check = martingale_residual(config, stats, MODE, rho0, 0.1, 0.3,
                                n_samples=10_000, base_seed=20260823)
    mean_sigmas = abs(check.weighted_mean) / check.weighted_sem
    qv_sigmas = abs(check.qv_gap_mean) / check.qv_gap_sem
    ok = check.mean_within(3.0) and check.variance_within(5.0)
    assert verdict(
        6, ok,
        f"residual mean at {mean_sigmas:.2f} sigma (<3), quadratic-variation "
        f"gap at {qv_sigmas:.2f} sigma (<5), {check.n_samples} samples",
    )


@pytest.fixture(scope="module")
def sweep_report():
    grid = RUN.build_grid()
    return epsilon_sweep(
        grid, RUN.build_quad(), RUN.build_opacity(), RUN.build_noise(grid),
        RUN.build_rho0(grid), RUN.t_final, RUN.epsilons,
        RUN.samples_kinetic, RUN.samples_limit, RUN.base_seed,
        mode=RUN.modes[0], sobolev_order=RUN.sobolev_order,
        dt_scale=RUN.dt_scale,
    )


def test_criterion_7_stochastic_limit(sweep_report):
    monotone = sweep_report.gaps_nonincreasing(RUN.slack_sigma)
    excess = sweep_report.paper_excess_sigmas()
    j = int(np.argmax(excess))
    ok = monotone and excess[j] >= RUN.paper_excess_min
    columns = "; ".join(
        f"{name} " + "->".join(
            f"{row.gaps[k]:.4f}" for row in sorted(sweep_report.rows, key=lambda r: -r.epsilon)
        )
        for k, name in enumerate(FUNCTIONAL_NAMES)
    )
    assert verdict(
        7, ok,
        f"gap columns non-increasing ({monotone}) [{columns}]; paper drift worse "
        f"by {excess[j]:.1f} sigma on {FUNCTIONAL_NAMES[j]} (>= {RUN.paper_excess_min:g})",
    )


def test_criterion_8_uniform_bound_diagnostics(sweep_report):
    bands = {
        "sup-energy": sweep_report.diagnostic_band("sup_energy_mean"),
        "defect": sweep_report.diagnostic_band("defect_integral_mean"),
        "hs": sweep_report.diagnostic_band("sobolev_mean"),
    }
    ok = all(band <= RUN.band_max for band in bands.values())
    detail = ", ".join(f"{name} band {band:.2f}" for name, band in bands.items())
    assert verdict(8, ok, f"{detail} (all <= {RUN.band_max:g})")


SMALL_INI = """
[model]
n_x = 16

[simulation]
epsilon = 0.3
epsilons = 0.5, 0.35
t_final = 0.05

[harness]
samples_kinetic = 4
samples_limit = 6
base_seed = 13
"""


def test_criterion_9_reproducibility(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text(SMALL_INI)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run-kinetic", "--config", str(config), "--out", str(out)]) == 0
        assert main(["noise-info", "--config", str(config), "--out", str(out)]) == 0
        # byte-identity is the criterion here, not the sweep thresholds, and
        # a 4-sample sweep is allowed to miss those
        assert main(["sweep", "--config", str(config), "--out", str(out)]) in (0, 1)
        outputs.append(out)
    a, b = outputs
    names = sorted(p.name for p in a.glob("*.csv"))
    mismatched = [
        name for name in names
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    ok = not mismatched and len(names) >= 7
    assert verdict(
        9, ok,
        f"{len(names)} CSV files byte-identical across reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
