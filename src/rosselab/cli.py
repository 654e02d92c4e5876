"""Command line front end.

Subcommands:

* ``noise-info``   tabulate the noise fixture: fields, drifts, eigenmodes
* ``run-kinetic``  one kinetic trajectory with per-step diagnostics
* ``run-spde``     one limit-equation trajectory
* ``sweep``        kinetic vs limit ensembles across the epsilon list
* ``rates``        noiseless convergence rate against the diffusion reference
* ``verify``       machine-precision identity battery on the configured fixture

Every command reads one config file (see ``config.py`` for the grammar),
prints its summary and returns its tables (``{file name: (header, rows)}``),
its checks, its seed and its extra manifest rows; it writes nothing. Once
the command has run, ``main`` creates the output directory, writes every
table there with ``checks.csv`` and ``manifest.csv``, and exits 0 on
success or 1 when a configured threshold is breached. A configuration,
solver or usage error exits 2 and leaves no output directory; an output
directory that cannot be created or written exits 2 as well.
Reruns with identical manifests produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .harness import (
    FUNCTIONAL_NAMES,
    deterministic_convergence,
    epsilon_sweep,
    identity_residuals,
)
from .kinetic import KineticConfig, run_kinetic
from .limit import SpdeConfig, run_limit
from .noise import DRIFTS, noise_statistics, sample_rng

#: fixed entropy for the random fields used by ``verify``
VERIFY_SEED = 12345
#: rows of floats ``write_csv`` formats at a time
CSV_BLOCK_ROWS = 1024


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """Write the header and the rows, values as ``format_value`` gives them.

    A 2-D float array of rows goes out CSV_BLOCK_ROWS rows at a time, with
    one ``%`` format per block ('%.17g' % x is format(x, '.17g')); rows of
    any other values go through ``csv.writer``.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                handle.write(line * len(block) % tuple(block.ravel().tolist()))
            return
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def manifest_rows(command: str, config_path: str, seed, extra=()) -> list:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    rows = [
        ("command", command),
        ("config_sha256", digest),
        ("seed", seed),
        ("package_version", __version__),
        ("numpy_version", np.__version__),
        ("python_version", platform.python_version()),
    ]
    rows.extend(extra)
    return rows


def check_status(value: float, threshold: float) -> str:
    """'pass' when value <= threshold, else 'FAIL' (NaN fails)."""
    return "pass" if value <= threshold else "FAIL"


class Setup:
    """Solver objects assembled once from a parsed run configuration."""

    def __init__(self, run: RunConfig):
        self.run = run
        self.grid = run.build_grid()
        self.quad = run.build_quad()
        self.opacity = run.build_opacity()
        self.noise = run.build_noise(self.grid)
        self.rho0 = run.build_rho0(self.grid)
        self.stats = None if self.noise is None else noise_statistics(self.noise)


def cmd_noise_info(setup: Setup, args):
    if setup.noise is None:
        raise ValueError("the configured noise fixture is 'off'")
    stats = setup.stats
    model = stats.model
    x = setup.grid.axis_points()
    states = model.states
    psi = stats.poisson_profiles
    header = (
        ["x"]
        + [f"n{i}" for i in range(model.n_states)]
        + [f"psi{i}" for i in range(model.n_states)]
        + ["drift_paper", "drift_effective"]
    )
    rows = np.column_stack((x, states.T, psi.T, stats.drift_paper, stats.drift_effective))
    mode_rows = [
        [j, stats.mode_weights[j], x[i], stats.mode_profiles[j, i]]
        for j in range(stats.rank)
        for i in range(setup.grid.n_x)
    ]
    tables = {"noise_fields.csv": (header, rows),
              "noise_modes.csv": (["mode_index", "weight", "x", "value"], mode_rows)}

    print(f"fixture: {setup.run.fixture} with {model.n_states} states, rank {stats.rank}")
    for j, weight in enumerate(stats.mode_weights):
        print(f"  mode {j}: weight {weight:.6g}")
    print(f"  sup_x |drift_paper + drift_effective| = "
          f"{np.max(np.abs(stats.drift_paper + stats.drift_effective)):.3e}")
    return tables, None, setup.run.base_seed, ()


def _run_tables(name: str, trajectory, columns: list[str]) -> dict:
    """``<name>_density.csv``, rows (t, x, density) of every snapshot with x
    fastest, and ``<name>_series.csv``, the step times, the mass and the
    trajectory's series ``columns`` per step."""
    x, times = trajectory.config.grid.axis_points(), trajectory.times
    density = np.column_stack(
        (np.repeat(times, len(x)), np.tile(x, len(times)), trajectory.densities.ravel()))
    series = [trajectory.step_times, trajectory.mass, *(getattr(trajectory, c) for c in columns)]
    return {f"{name}_density.csv": (["time", "x", "density"], density),
            f"{name}_series.csv": (["time", "mass", *columns], np.column_stack(series))}


def cmd_run_kinetic(setup: Setup, args):
    run = setup.run
    seed = run.base_seed if args.seed is None else args.seed
    config = KineticConfig(
        setup.grid, setup.quad, setup.opacity, epsilon=run.epsilon,
        t_final=run.t_final, dt=run.dt, noise=setup.noise,
        snapshot_stride=run.snapshot_stride,
    )
    rng = sample_rng(seed, 0) if setup.noise is not None else None
    trajectory = run_kinetic(config, setup.rho0, rng=rng)
    print(f"run-kinetic: {config.n_steps} steps at epsilon = {run.epsilon:g}, "
          f"final mass {trajectory.mass[-1]:.12g}")
    return (_run_tables("kinetic", trajectory, ["energy", "defect"]), None, seed,
            [("epsilon", run.epsilon), ("dt", config.dt)])


def cmd_run_spde(setup: Setup, args):
    run = setup.run
    seed = run.base_seed if args.seed is None else args.seed
    drift = run.drift if args.drift is None else args.drift
    config = SpdeConfig(
        setup.grid, setup.opacity, setup.quad.diffusion_coefficient(),
        run.t_final, dt=run.dt, noise=setup.stats, drift=drift,
        snapshot_stride=run.snapshot_stride,
    )
    rng = sample_rng(seed, 1) if setup.stats is not None else None
    trajectory = run_limit(config, setup.rho0, rng=rng)
    print(f"run-spde: {config.n_steps} steps with {drift} drift, "
          f"final mass {trajectory.mass[-1]:.12g}")
    return (_run_tables("spde", trajectory, ["norm_sq"]), None, seed,
            [("drift", drift), ("dt", config.dt)])


def cmd_sweep(setup: Setup, args):
    run = setup.run
    seed = run.base_seed if args.seed is None else args.seed
    drift = run.drift if args.drift is None else args.drift
    n_kinetic = run.samples_kinetic if args.samples is None else args.samples
    n_limit = run.samples_limit if args.samples is None else args.samples
    report = epsilon_sweep(
        setup.grid, setup.quad, setup.opacity, setup.noise, setup.rho0,
        run.t_final, run.epsilons, n_kinetic, n_limit, seed,
        mode=run.modes[0], sobolev_order=run.sobolev_order,
        dt_scale=run.dt_scale,
    )
    limit = report.limit_effective if drift == "effective" else report.limit_paper
    rows = []
    for row in report.rows:
        gaps = row.drift_gaps(drift)[0]
        for j, name in enumerate(FUNCTIONAL_NAMES):
            rows.append([
                row.epsilon, name, row.estimates.values[j], row.estimates.sems[j],
                limit.values[j], limit.sems[j], gaps[j],
            ])
    tables = {
        "sweep.csv": (["epsilon", "functional", "kinetic_mean", "kinetic_sem",
                       "limit_mean", "limit_sem", "gap"], rows),
        "hs.csv": (["epsilon", "sobolev_order", "hs_mean"],
                   [[row.epsilon, report.sobolev_order, row.sobolev_mean]
                    for row in report.rows]),
        "diagnostics.csv": (
            ["epsilon", "sup_energy_mean", "defect_integral_mean", "hs_mean"],
            [[row.epsilon, row.sup_energy_mean, row.defect_integral_mean, row.sobolev_mean]
             for row in report.rows]),
    }
    checks = [
        ("gap-monotone", 0.0 if report.gaps_nonincreasing(run.slack_sigma, drift) else 1.0, 0.0),
        ("sup-energy-band", report.diagnostic_band("sup_energy_mean"), run.band_max),
        ("defect-band", report.diagnostic_band("defect_integral_mean"), run.band_max),
        ("hs-band", report.diagnostic_band("sobolev_mean"), run.band_max),
    ]
    for row in report.rows:
        gaps = row.drift_gaps(drift)[0]
        print(f"sweep: eps = {row.epsilon:<8g} gaps "
              + "  ".join(f"{name} {gap:.3e}" for name, gap in zip(FUNCTIONAL_NAMES, gaps)))
    return tables, checks, seed, [("drift", drift), ("samples_kinetic", n_kinetic),
                                  ("samples_limit", n_limit)]


def cmd_rates(setup: Setup, args):
    run = setup.run
    report = deterministic_convergence(
        setup.grid, setup.quad, setup.opacity, setup.rho0, run.t_final, run.epsilons
    )
    tables = {"rates.csv": (
        ["epsilon", "error", "slope"],
        [[eps, err, report.slope] for eps, err in zip(report.epsilons, report.errors)])}
    checks = [
        ("slope-shortfall", run.slope_min - report.slope, 0.0),
        ("errors-decreasing", 0.0 if report.errors_strictly_decreasing() else 1.0, 0.0),
    ]
    print(f"rates: slope {report.slope:.3f} over {len(report.epsilons)} epsilons")
    return tables, checks, run.base_seed, ()


def cmd_verify(setup: Setup, args):
    run = setup.run
    rng = np.random.default_rng(VERIFY_SEED)
    # kinetic fields are (n_v, n_x): the draw keeps its (n_x, n_v) order
    f = (1.0 + 0.3 * rng.standard_normal(setup.grid.shape + (setup.quad.n_v,))).T
    config = KineticConfig(setup.grid, setup.quad, setup.opacity, epsilon=0.25,
                           t_final=0.01, noise=setup.noise)
    residuals = identity_residuals(config, setup.stats, run.modes[0], f)
    checks = [(name, value, run.identity_tol) for name, value in residuals.items()]
    width = max(len(name) for name, _, _ in checks)
    for name, value, threshold in checks:
        print(f"verify: {name:<{width}}  {value:.3e} <= {threshold:.0e}  "
              f"{check_status(value, threshold)}")
    return {}, checks, run.base_seed, ()


COMMANDS = {
    "noise-info": cmd_noise_info,
    "run-kinetic": cmd_run_kinetic,
    "run-spde": cmd_run_spde,
    "sweep": cmd_sweep,
    "rates": cmd_rates,
    "verify": cmd_verify,
}

HELP = {
    "noise-info": "tabulate the noise fixture fields, drifts and eigenmodes",
    "run-kinetic": "run one kinetic trajectory and dump density snapshots",
    "run-spde": "run one limit-equation trajectory and dump density snapshots",
    "sweep": "compare kinetic against limit ensembles across epsilons",
    "rates": "estimate the noiseless convergence rate to the diffusion limit",
    "verify": "run the machine-precision identity battery",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse fills a
    new namespace, so no call sees the options of another."""
    parser = argparse.ArgumentParser(
        prog="rosselab",
        description="kinetic transport with random relaxation vs its diffusion limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=HELP[name])
        cmd.add_argument("--config", required=True, help="path to the run configuration")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the configured base seed")
        if name in ("run-spde", "sweep"):
            cmd.add_argument("--drift", choices=DRIFTS, default=None,
                             help="override the limit drift convention")
        if name == "sweep":
            cmd.add_argument("--samples", type=int, default=None,
                             help="override both ensemble sample counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        tables, checks, seed, extra = COMMANDS[args.command](Setup(run), args)
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    failures = 0
    if checks is not None:
        rows = [(name, value, threshold, check_status(value, threshold))
                for name, value, threshold in checks]
        tables["checks.csv"] = (["check", "value", "threshold", "status"], rows)
        failures = sum(row[3] == "FAIL" for row in rows)
    tables["manifest.csv"] = (["key", "value"],
                              manifest_rows(args.command, args.config, seed, extra))
    out = Path(args.out if args.out is not None else run.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
    except OSError as exc:
        print(f"{args.command}: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"{args.command}: {failures} check(s) failed, see checks.csv", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
