"""The benchmark's workloads, each driven through the public rosselab API.

A workload builds its inputs once per set-up (``setup``) and then runs one
operation batch per call (``run``).  ``run`` returns one :class:`Operation`
per unit the failure share counts (one ensemble call, one martingale call
or one CLI command) plus the check values for the results file.  Every
operation carries a digest of its outputs, so repeated batches and traced
batches can be compared bit for bit.

Modules are always looked up through the ``pkg`` namespace at call time, so
the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import tempfile
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ACCEPTANCE_INI = ROOT / "configs" / "acceptance.ini"
FINE_GRID_INI = BENCH_DIR / "fine_grid.ini"
#: scratch space for CLI outputs, emptied after every batch
TMP_DIR = BENCH_DIR / "tmp"


class Operation(NamedTuple):
    label: str
    ok: bool
    digest: str


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


class AcceptanceSweep:
    """``harness.epsilon_sweep`` on configs/acceptance.ini, telegraph noise."""

    name = "acceptance-sweep"
    default_seed = 123
    #: the fixture's 600/2500 samples divided by one common factor, small
    #: enough for several timed batches per run
    sample_divisor = 50

    def setup(self, pkg):
        run = pkg.config.parse_config(str(ACCEPTANCE_INI))
        grid = run.build_grid()
        noise = run.build_noise(grid)
        return SimpleNamespace(
            run=run, grid=grid, quad=run.build_quad(), opacity=run.build_opacity(),
            noise=noise, rho0=run.build_rho0(grid), stats=pkg.noise.noise_statistics(noise),
            n_kinetic=run.samples_kinetic // self.sample_divisor,
            n_limit=run.samples_limit // self.sample_divisor,
        )

    def n_operations(self, inputs) -> int:
        return len(inputs.run.epsilons) + 2

    def run(self, pkg, inputs, seed):
        run = inputs.run
        report = pkg.harness.epsilon_sweep(
            inputs.grid, inputs.quad, inputs.opacity, inputs.noise, inputs.rho0,
            run.t_final, run.epsilons, inputs.n_kinetic, inputs.n_limit, seed,
            mode=run.modes[0], sobolev_order=run.sobolev_order, dt_scale=run.dt_scale,
        )
        ops = []
        for row in report.rows:
            diagnostics = [row.sup_energy_mean, row.defect_integral_mean, row.sobolev_mean]
            arrays = (row.estimates.values, row.estimates.sems, row.gaps, row.gap_sems,
                      row.gaps_paper, row.gap_paper_sems, diagnostics)
            ops.append(Operation(f"kinetic-ensemble eps={row.epsilon:g}",
                                 _all_finite(*arrays), _digest(*arrays)))
        for label, triple in (("limit-ensemble effective", report.limit_effective),
                              ("limit-ensemble paper", report.limit_paper)):
            ops.append(Operation(label, _all_finite(triple.values, triple.sems),
                                 _digest(triple.values, triple.sems)))
        bands = {name: report.diagnostic_band(name)
                 for name in ("sup_energy_mean", "defect_integral_mean", "sobolev_mean")}
        excess = float(report.paper_excess_sigmas()[
            pkg.harness.FUNCTIONAL_NAMES.index("normsq-mean")])
        # The excess in combined sigmas grows as sqrt(samples), so the
        # fixture's threshold is scaled down with the sample counts.
        excess_min = run.paper_excess_min / math.sqrt(self.sample_divisor)
        checks = {f"band {name} (<= {run.band_max:g})": value for name, value in bands.items()}
        checks[f"paper excess sigmas normsq-mean (>= {excess_min:.3g})"] = excess
        sweep_ok = max(bands.values()) <= run.band_max and excess >= excess_min
        if not sweep_ok:
            ops = [op._replace(ok=False) for op in ops]
        return ops, checks


class Martingale:
    """``correctors.martingale_residual`` on the acceptance criterion-6 fixture."""

    name = "martingale"
    default_seed = 20260823
    #: reduced from the acceptance test's 10^4
    samples = 500

    def setup(self, pkg):
        run = pkg.config.parse_config(str(ACCEPTANCE_INI))
        grid = run.build_grid()
        model = pkg.noise.telegraph_noise(grid, pkg.noise.cosine_profile(grid, 1.0, 1), 1.0)
        config = pkg.kinetic.KineticConfig(
            grid, run.build_quad(), run.build_opacity(), epsilon=0.25, t_final=0.3,
            dt=0.1 / 13.0, noise=model,
        )
        return SimpleNamespace(
            config=config, stats=pkg.noise.noise_statistics(model),
            rho0=run.build_rho0(grid), mode=pkg.correctors.FourierMode(1, "cos"),
        )

    def n_operations(self, inputs) -> int:
        return 1

    def run(self, pkg, inputs, seed):
        check = pkg.correctors.martingale_residual(
            inputs.config, inputs.stats, inputs.mode, inputs.rho0, 0.1, 0.3,
            n_samples=self.samples, base_seed=seed,
        )
        fields = [check.weighted_mean, check.weighted_sem, check.qv_gap_mean,
                  check.qv_gap_sem, check.qv_mean]
        ok = check.mean_within(3.0) and check.variance_within(5.0) and _all_finite(fields)
        checks = {
            "mean sigmas (<= 3)": abs(check.weighted_mean) / check.weighted_sem,
            "qv gap sigmas (<= 5)": abs(check.qv_gap_mean) / check.qv_gap_sem,
        }
        return [Operation("martingale_residual", ok, _digest(fields))], checks


class CliFineGrid:
    """In-process ``rosselab.cli.main`` commands on benchmarks/fine_grid.ini."""

    name = "cli-fine-grid"
    default_seed = 123
    commands = ("noise-info", "verify", "run-kinetic", "run-spde", "rates")

    def setup(self, pkg):
        return pkg.cli.Setup(pkg.config.parse_config(str(FINE_GRID_INI)))

    def n_operations(self, inputs) -> int:
        return len(self.commands)

    def run(self, pkg, inputs, seed):
        ops = []
        csv_bytes = 0
        TMP_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
            for command in self.commands:
                out = Path(tmp) / command
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pkg.cli.main([command, "--config", str(FINE_GRID_INI),
                                         "--out", str(out), "--seed", str(seed)])
                h = hashlib.sha256()
                for path in sorted(out.glob("*.csv")):
                    data = path.read_bytes()
                    csv_bytes += len(data)
                    h.update(path.name.encode())
                    h.update(data)
                ops.append(Operation(command, code == 0, h.hexdigest()[:16]))
        return ops, {"csv bytes": csv_bytes}


def run_batch(workload, pkg, inputs, seed):
    """One operation batch; a batch that raises fails all its operations."""
    try:
        return workload.run(pkg, inputs, seed)
    except Exception:
        traceback.print_exc()
        n = workload.n_operations(inputs)
        return [Operation(f"operation {i}", False, "") for i in range(n)], {"raised": 1}


WORKLOADS = {w.name: w for w in (AcceptanceSweep(), Martingale(), CliFineGrid())}
