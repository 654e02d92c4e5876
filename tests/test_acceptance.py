"""Acceptance battery: one criterion per test, one printed verdict line each.

The verdict lines are echoed in the terminal summary at the end of any
pytest run (see conftest.py), and each must equal its committed line in
tests/verdicts.txt word for word; a change that means to move a verdict
copies the new lines from that summary into the file.  Criteria 6 and 7
carry Monte Carlo weight; the whole battery takes about 6 seconds (see
README.md).  The scaling-limit fixture and every statistical threshold
come from configs/acceptance.ini, not from literals in this file.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import random_chain, stepped_fields, translate
from rosselab.cli import Setup, main
from rosselab.config import parse_config
from rosselab.correctors import FourierMode, build_correctors, martingale_residual
from rosselab.harness import (
    FUNCTIONAL_NAMES,
    deterministic_convergence,
    epsilon_sweep,
    identity_residuals,
)
from rosselab.kinetic import KineticConfig, run_kinetic
from rosselab.model import (
    Opacity,
    TorusGrid,
    build_velocity_space,
    equilibrium_field,
    l2_norm_sq,
    relax_exact,
)
from rosselab.noise import cosine_profile, noise_statistics, telegraph_noise

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"
RUN = parse_config(str(CONFIG_PATH))
#: the fixture's solver objects, built once as the command line builds them
SETUP = Setup(RUN)
MODE = FourierMode(1, "cos")
OPACITY = Opacity(1.0, 2.0)


#: the committed verdict line of each criterion, keyed "ACCEPTANCE <n>"
PINNED = dict(line.split(":", 1) for line in
              (Path(__file__).resolve().parent / "verdicts.txt").read_text().splitlines())


def verdict(criterion: int, ok: bool, detail: str) -> bool:
    """Print the verdict line of a criterion and check that it is the
    committed line of tests/verdicts.txt, word for word."""
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.VERDICTS.append(line)
    key, text = line.split(":", 1)
    assert text == PINNED[key], f"verdict line changed:\n  {line}\n  {key}:{PINNED[key]}"
    return ok


def battery(grid, quad, stats, f):
    """The identity battery at f, with the generator terms at eps = 1/4."""
    noise = None if stats is None else stats.model
    config = KineticConfig(grid, quad, OPACITY, epsilon=0.25, t_final=0.01, noise=noise)
    return identity_residuals(config, stats, MODE, f)


def test_criterion_1_structural_identities():
    tol = 1e-12
    grid = TorusGrid(16)
    worst = 0.0
    rng = np.random.default_rng(100)
    for name in ("two-speed", "legendre"):
        quad = build_velocity_space(name)
        assert quad.diffusion_coefficient() > 0.0
        for _ in range(50):
            f = 1.0 + 0.4 * rng.standard_normal((quad.n_v,) + grid.shape)
            found = battery(grid, quad, None, f)
            worst = max(worst, found["velocity-mass"], found["velocity-null-flux"],
                        found["relax-dissipation"])
            two_leg = relax_exact(quad, OPACITY, relax_exact(quad, OPACITY, f, 0.3), 0.5)
            one_leg = relax_exact(quad, OPACITY, f, 0.8)
            worst = max(worst, float(np.max(np.abs(two_leg - one_leg))))
    assert verdict(
        1, worst <= tol,
        f"mass/flux/dissipation/semigroup residuals <= {worst:.2e} (tol {tol:g})",
    )


def test_criterion_2_noise_algebra():
    tol = 1e-12
    grid = TorusGrid(16)
    quad = build_velocity_space("two-speed")
    f = np.ones((quad.n_v,) + grid.shape)
    amplitude, rate = 1.3, 0.7
    stats = noise_statistics(
        telegraph_noise(grid, cosine_profile(grid, amplitude, 1), rate)
    )
    found = battery(grid, quad, stats, f)
    worst = max(found[name] for name in (
        "telegraph-poisson-closed-form", "telegraph-mode-weight", "kernel-diag-drift",
        "drift-consistency"))
    profile = stats.model.states[0].ravel()
    worst = max(worst, float(np.max(np.abs(stats.kernel - np.outer(profile, profile) / rate))))

    poisson = 0.0
    for n_states in (3, 4, 5):
        model = random_chain(np.random.default_rng(200 + n_states), n_states, grid)
        found = battery(grid, quad, noise_statistics(model), f)
        poisson = max(poisson, found["poisson-residual"])
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
                   + 0.3 * np.sin(4.0 * np.pi * x)] * 2)
    tau = 0.137
    shifted = translate(grid, quad, f0, tau)
    advect = 0.0
    for k, a in enumerate(quad.speeds):
        exact = (1.0 + 0.5 * np.cos(2.0 * np.pi * (x - a * tau))
                 + 0.3 * np.sin(4.0 * np.pi * (x - a * tau)))
        advect = max(advect, float(np.max(np.abs(shifted[k] - exact))))

    heat_grid = TorusGrid(64)
    xh = heat_grid.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * xh)
    config = KineticConfig(heat_grid, quad, Opacity(1.0, 1.0),
                           epsilon=0.009, t_final=0.1, dt=1e-5)
    trajectory = run_kinetic(config, rho0)
    exact = 1.0 + 0.5 * math.exp(-4.0 * math.pi**2 * 0.1) * np.cos(2.0 * np.pi * xh)
    heat_err = math.sqrt(l2_norm_sq(heat_grid, trajectory.densities[-1] - exact))

    opacity = Opacity(1.0, 2.0)
    rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)

    def final_state(dt):
        config = KineticConfig(grid, quad, opacity, epsilon=0.3, t_final=0.12, dt=dt)
        return stepped_fields(config, equilibrium_field(quad, rho))[-1]

    fa, fb, fc = final_state(0.004), final_state(0.002), final_state(0.001)
    e1 = math.sqrt(sum(l2_norm_sq(grid, row) for row in fa - fb))
    e2 = math.sqrt(sum(l2_norm_sq(grid, row) for row in fb - fc))
    ratio = e1 / e2

    ok = advect <= 1e-12 and heat_err <= 1e-4 and 4.0 / 1.5 <= ratio <= 4.0 * 1.5
    assert verdict(
        3, ok,
        f"advection {advect:.2e} (<=1e-12), heat L2 error {heat_err:.3e} (<=1e-4), "
        f"Strang halving ratio {ratio:.2f} (order 2 within factor 1.5)",
    )


def test_criterion_4_deterministic_limit():
    report = deterministic_convergence(SETUP.grid, SETUP.quad, SETUP.opacity, SETUP.rho0,
                                       0.5, [0.4, 0.2, 0.1, 0.05])
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
    rho = 1.0 + 0.3 * np.cos(2.0 * np.pi * x) - 0.2 * np.sin(2.0 * np.pi * x)

    telegraph = noise_statistics(telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0))
    fixtures = [telegraph]
    for seed in (31, 32):
        fixtures.append(noise_statistics(random_chain(np.random.default_rng(seed), 4, grid)))

    poisson = singular = balance = 0.0
    rng = np.random.default_rng(5)
    for stats in fixtures:
        model = stats.model
        first = grid.cell_volume * (build_correctors(stats, MODE)[0] @ rho)
        p = MODE.profile(grid)
        forcing = np.array([grid.integrate(s * rho * p) for s in model.states])
        poisson = max(poisson, float(np.max(np.abs(model.generator @ first + forcing))))

        f_random = 1.0 + 0.3 * rng.standard_normal((quad.n_v,) + grid.shape)
        found = battery(grid, quad, stats, f_random)
        singular = max(singular, found["transport-singular"], found["relax-singular"])
        balance = max(balance, found["scale-balance-residual"])
        if stats is telegraph:
            phi2 = found["telegraph-second-corrector-null"]
    ok = max(poisson, singular, balance, phi2) <= tol
    assert verdict(
        5, ok,
        f"Poisson identity {poisson:.2e}, singular cancellations {singular:.2e}, "
        f"scale balance {balance:.2e}, telegraph phi2 {phi2:.2e} (tol {tol:g})",
    )


def test_criterion_6_martingale_problem():
    grid = SETUP.grid
    model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
    stats = noise_statistics(model)
    config = KineticConfig(grid, SETUP.quad, SETUP.opacity, epsilon=0.25, t_final=0.3,
                           dt=0.1 / 13.0, noise=model)
    check = martingale_residual(config, stats, MODE, SETUP.rho0, 0.1, 0.3,
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
    return epsilon_sweep(
        SETUP.grid, SETUP.quad, SETUP.opacity, SETUP.noise, SETUP.rho0,
        RUN.t_final, RUN.epsilons,
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
