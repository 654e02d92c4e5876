"""Ensemble statistics, scaling sweeps and deterministic convergence checks.

The sweep compares kinetic ensembles against limit-equation ensembles on a
fixed triple of density functionals: the mean and variance of one Fourier
mode projection at the final time and the mean squared L^2 norm.  Sample
seeds derive from a base seed and the sample index through ``SeedSequence``,
so every ensemble is reproducible and individual samples can be regenerated
in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fourier
from .correctors import FourierMode
from .kinetic import DT_CAP, KineticConfig, _sample_chunks, _trajectories, run_kinetic
from .limit import SpdeConfig, _integrate, rosseland_rhs, run_limit, stable_dt
from .model import Opacity, TorusGrid, VelocityQuadrature, l2_norm_sq
from .noise import NoiseModel, _entropy, noise_statistics, sample_rng

#: names of the sweep functionals, in report order
FUNCTIONAL_NAMES = ("mode-mean", "mode-var", "normsq-mean")
#: most standard normals stacked for one batch of a limit ensemble (32 MiB)
_NORMALS_BUDGET = 2**22


def hs_norm(trajectory, order: float) -> float:
    """Time integral of the squared H^order norm over a trajectory.

    Uses the recorded density snapshots and the trapezoid rule in time.
    Accepts kinetic and limit trajectories; kinetic runs additionally
    require the order to stay below half the smoothing exponent of their
    velocity model, which is where the uniform regularity bound lives.
    """
    config = trajectory.config
    if order <= 0.0:
        raise ValueError(f"the Sobolev order must be positive, got {order}")
    quad = getattr(config, "quad", None)
    if quad is not None and order >= quad.smoothing_exponent / 2.0:
        raise ValueError(
            f"Sobolev order {order} is not below half the smoothing exponent "
            f"{quad.smoothing_exponent} of the velocity space"
        )
    values = [
        fourier.sobolev_norm_sq(config.grid, rho, order)
        for rho in trajectory.densities
    ]
    return float(np.trapezoid(values, trajectory.times))


@dataclass(frozen=True, eq=False)
class FunctionalTriple:
    """Estimates and standard errors of the three sweep functionals."""

    values: np.ndarray  # (3,)
    sems: np.ndarray  # (3,)
    n_samples: int


def functional_triple(mode_values: np.ndarray, norm_sq: np.ndarray) -> FunctionalTriple:
    """Mean and variance of the mode projection plus the mean squared norm.

    The standard error of the sample variance uses the asymptotic formula
    (m4 - s^4) / n with the central fourth moment m4.
    """
    n = len(mode_values)
    if n < 2 or len(norm_sq) != n:
        raise ValueError("need at least two samples of both functionals")
    mean_p = mode_values.mean()
    centered = mode_values - mean_p
    s2 = float(centered @ centered) / (n - 1)
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - ((n - 3) / (n - 1)) * s2 * s2, 0.0) / n
    values = np.array([mean_p, s2, norm_sq.mean()])
    sems = np.array([
        float(mode_values.std(ddof=1)) / math.sqrt(n),
        math.sqrt(var_of_var),
        float(norm_sq.std(ddof=1)) / math.sqrt(n),
    ])
    return FunctionalTriple(values, sems, n)


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def _check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")


def _final_functionals(trajectory, mode: FourierMode) -> tuple[float, float]:
    """<rho_T, p> and ||rho_T||^2 of one trajectory."""
    grid = trajectory.config.grid
    rho = trajectory.final_density()
    return mode.apply(grid, rho), l2_norm_sq(grid, rho)


def _kinetic_reduction(trajectory, mode: FourierMode, sobolev_order: float) -> tuple:
    """Final functionals and uniform-bound diagnostics of one kinetic run."""
    return (
        *_final_functionals(trajectory, mode),
        float(trajectory.energy.max()),
        _trapezoid(trajectory.defect**2, trajectory.config.dt),
        hs_norm(trajectory, sobolev_order),
    )


@dataclass(frozen=True, eq=False)
class KineticEnsemble:
    """Per-sample functional values and uniform-bound diagnostics."""

    mode_values: np.ndarray  # <rho_T, p> per sample
    norm_sq: np.ndarray  # ||rho_T||^2 per sample
    sup_energy: np.ndarray  # max over time of the squared weighted norm
    defect_integral: np.ndarray  # int_0^T ||<f>F - f||^2 / eps^2 dt
    sobolev: np.ndarray  # int_0^T squared H^s norm dt over the snapshots

    def functionals(self) -> FunctionalTriple:
        return functional_triple(self.mode_values, self.norm_sq)


def kinetic_ensemble(
    config: KineticConfig,
    rho0: np.ndarray,
    mode: FourierMode,
    n_samples: int,
    seed,
    sobolev_order: float = 0.4,
) -> KineticEnsemble:
    """Independent kinetic runs reduced to functionals and diagnostics.

    Sample k follows the path ``sample_rng(seed, k)`` draws for a lone
    ``run_kinetic``, so it equals that run bit for bit.  The samples run
    together on a leading axis, in chunks of bounded memory.  A failing
    sample aborts the ensemble with the error of the lowest failing sample,
    prefixed ``sample k: ``.
    """
    _check_samples(n_samples)
    rows = []
    for start, paths in _sample_chunks(config, n_samples, seed):
        for trajectory in _trajectories(config, rho0, paths, first_sample=start):
            rows.append(_kinetic_reduction(trajectory, mode, sobolev_order))
    return KineticEnsemble(*(np.array(column) for column in zip(*rows)))


@dataclass(frozen=True, eq=False)
class LimitEnsemble:
    """Per-sample functional values of limit-equation runs."""

    mode_values: np.ndarray
    norm_sq: np.ndarray

    def functionals(self) -> FunctionalTriple:
        return functional_triple(self.mode_values, self.norm_sq)


def limit_ensemble(
    config: SpdeConfig,
    rho0: np.ndarray,
    mode: FourierMode,
    n_samples: int,
    seed,
) -> LimitEnsemble:
    """Independent limit-equation runs reduced to the sweep functionals.

    Sample k integrates the normals ``sample_rng(seed, k)`` draws for a lone
    ``run_limit``, so it equals that run bit for bit.  The samples run
    together on a leading axis, in batches whose stacked normals stay
    within ``_NORMALS_BUDGET``; only the final densities are kept.  A
    failing sample aborts the ensemble with the error of the lowest failing
    sample, prefixed ``sample k: ``.
    """
    _check_samples(n_samples)
    n_steps, rank = config.n_steps, config.noise_rank
    batch = max(_NORMALS_BUDGET // (n_steps * max(rank, 1)), 1)
    finals = []
    for start in range(0, n_samples, batch):
        samples = range(start, min(start + batch, n_samples))
        normals = np.empty((n_steps, len(samples), rank))
        for row, k in enumerate(samples):
            normals[:, row] = sample_rng(seed, k).standard_normal((n_steps, rank))
        _, snaps, *_ = _integrate(config, rho0, normals, first_sample=start, history=False)
        finals.extend(snaps[-1])
    grid = config.grid
    return LimitEnsemble(
        np.array([mode.apply(grid, rho) for rho in finals]),
        np.array([l2_norm_sq(grid, rho) for rho in finals]),
    )


@dataclass(frozen=True, eq=False)
class SweepRow:
    """Kinetic ensemble at one epsilon compared against the limit ensembles.

    ``gaps`` and the sem arrays have one entry per functional in
    FUNCTIONAL_NAMES order; ``gaps_paper`` compares against the
    paper-drift limit ensemble instead of the effective-drift one.
    """

    epsilon: float
    estimates: FunctionalTriple
    gaps: np.ndarray
    gap_sems: np.ndarray
    gaps_paper: np.ndarray
    gap_paper_sems: np.ndarray
    sup_energy_mean: float
    defect_integral_mean: float
    sobolev_mean: float
    det_error: float | None = None  # L^2 distance to the limit run, noise off only


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Scaling-limit comparison across epsilons with both drift conventions."""

    rows: tuple[SweepRow, ...]
    limit_effective: FunctionalTriple
    limit_paper: FunctionalTriple
    sobolev_order: float

    def _ordered(self) -> list[SweepRow]:
        return sorted(self.rows, key=lambda r: -r.epsilon)

    def gaps_nonincreasing(self, slack_sigma: float = 1.0) -> bool:
        """Every functional's gap column shrinks as epsilon does.

        Consecutive epsilons may violate monotonicity by at most
        ``slack_sigma`` combined standard errors."""
        ordered = self._ordered()
        for j in range(len(FUNCTIONAL_NAMES)):
            for a, b in zip(ordered, ordered[1:]):
                slack = slack_sigma * math.hypot(a.gap_sems[j], b.gap_sems[j])
                if b.gaps[j] > a.gaps[j] + slack:
                    return False
        return True

    def paper_excess_sigmas(self) -> np.ndarray:
        """Per functional: how many combined sigmas the paper-drift gap
        exceeds the effective-drift gap at the smallest epsilon."""
        row = min(self.rows, key=lambda r: r.epsilon)
        scale = np.hypot(row.gap_sems, row.gap_paper_sems)
        return (row.gaps_paper - row.gaps) / np.where(scale > 0.0, scale, np.inf)

    def diagnostic_band(self, name: str) -> float:
        """Max/min ratio of an ensemble-mean diagnostic across epsilons."""
        values = [getattr(row, name) for row in self.rows]
        low = min(values)
        if low <= 0.0:
            raise ValueError(f"diagnostic {name} is not positive")
        return max(values) / low

    def det_errors(self) -> np.ndarray:
        """Deterministic final-time errors by descending epsilon (noise off)."""
        values = [row.det_error for row in self._ordered()]
        if any(v is None for v in values):
            raise ValueError("deterministic errors are only recorded in noise-off sweeps")
        return np.array(values)


def _degenerate_triple(mode_value: float, norm_sq: float) -> FunctionalTriple:
    """Functional triple of a deterministic run (zero variance and sems)."""
    return FunctionalTriple(np.array([mode_value, 0.0, norm_sq]), np.zeros(3), 2)


def epsilon_sweep(
    grid: TorusGrid,
    quad: VelocityQuadrature,
    opacity: Opacity,
    noise_model: NoiseModel | None,
    rho0: np.ndarray,
    t_final: float,
    epsilons: Sequence[float],
    n_kinetic: int,
    n_limit: int,
    base_seed,
    mode: FourierMode | None = None,
    sobolev_order: float = 0.4,
    dt_scale: float = 0.125,
) -> SweepReport:
    """Compare kinetic ensembles across epsilons with the limit equation.

    Kinetic steps use dt ~ dt_scale * eps^2 (rounded so that nine density
    snapshots resolve the time integrals); the limit equation runs at its
    stability cap with both drift conventions.  With ``noise_model=None``
    both dynamics are deterministic: the sample counts are ignored, the
    drift conventions coincide, and each row additionally records the
    final-time L^2 distance to the limit solution.
    """
    if mode is None:
        mode = FourierMode(1, "cos")
    if not 0.0 < dt_scale <= DT_CAP:
        raise ValueError(f"dt_scale must lie in (0, {DT_CAP}]")
    if sobolev_order >= quad.smoothing_exponent / 2.0:
        raise ValueError(
            f"sobolev order {sobolev_order} is not below half the smoothing "
            f"exponent {quad.smoothing_exponent} of the velocity space"
        )
    stats = None if noise_model is None else noise_statistics(noise_model)
    diffusion = quad.diffusion_coefficient()
    entropy = _entropy(base_seed)

    n = max(int(math.ceil(t_final / stable_dt(grid, opacity, diffusion) - 1e-12)), 1)

    def limit_config(drift: str) -> SpdeConfig:
        return SpdeConfig(
            grid, opacity, diffusion, t_final, dt=t_final / n, noise=stats,
            drift=drift, snapshot_stride=n,
        )

    limit_final = None
    if stats is None:
        limit_run = run_limit(limit_config("effective"), rho0)
        limit_final = limit_run.final_density()
        limit_eff = _degenerate_triple(*_final_functionals(limit_run, mode))
        limit_pap = limit_eff
    else:
        limit_eff = limit_ensemble(
            limit_config("effective"), rho0, mode, n_limit, (*entropy, 20)
        ).functionals()
        limit_pap = limit_ensemble(
            limit_config("paper"), rho0, mode, n_limit, (*entropy, 21)
        ).functionals()

    rows = []
    for i, eps in enumerate(sorted(epsilons, reverse=True)):
        steps = 8 * max(int(math.ceil(t_final / (dt_scale * eps**2) / 8 - 1e-12)), 1)
        config = KineticConfig(
            grid, quad, opacity, epsilon=eps, t_final=t_final,
            dt=t_final / steps, noise=noise_model, snapshot_stride=steps // 8,
        )
        det_error = None
        if stats is None:
            trajectory = run_kinetic(config, rho0)
            mode_value, norm_sq, sup_energy, defect_integral, sobolev = _kinetic_reduction(
                trajectory, mode, sobolev_order
            )
            est = _degenerate_triple(mode_value, norm_sq)
            det_error = math.sqrt(l2_norm_sq(grid, trajectory.final_density() - limit_final))
        else:
            ensemble = kinetic_ensemble(config, rho0, mode, n_kinetic,
                                        (*entropy, 10 + i), sobolev_order)
            est = ensemble.functionals()
            sup_energy = float(ensemble.sup_energy.mean())
            defect_integral = float(ensemble.defect_integral.mean())
            sobolev = float(ensemble.sobolev.mean())
        rows.append(SweepRow(
            eps,
            est,
            np.abs(est.values - limit_eff.values),
            np.hypot(est.sems, limit_eff.sems),
            np.abs(est.values - limit_pap.values),
            np.hypot(est.sems, limit_pap.sems),
            sup_energy,
            defect_integral,
            sobolev,
            det_error,
        ))
    return SweepReport(tuple(rows), limit_eff, limit_pap, sobolev_order)


def rosseland_reference(
    grid: TorusGrid,
    opacity: Opacity,
    diffusion: float,
    rho0: np.ndarray,
    t_final: float,
    n_snapshots: int,
    dt: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 reference solution of d rho/dt = K Lap G(rho).

    Returns (times, densities) at n_snapshots equispaced times including
    both endpoints.  The default step keeps the fastest spectral mode inside
    the RK4 stability interval.
    """
    if n_snapshots < 2:
        raise ValueError("need at least the two endpoint snapshots")
    interval = t_final / (n_snapshots - 1)
    if dt is None:
        rate = diffusion / opacity.sigma_star * math.pi**2 * grid.n_x**2
        dt = 2.5 / rate
    steps = max(int(math.ceil(interval / dt - 1e-12)), 1)
    dt = interval / steps

    def rhs(r: np.ndarray) -> np.ndarray:
        return rosseland_rhs(grid, opacity, diffusion, r)

    rho = np.array(rho0, dtype=float)
    times = np.empty(n_snapshots)
    densities = np.empty((n_snapshots,) + grid.shape)
    times[0] = 0.0
    densities[0] = rho
    for j in range(1, n_snapshots):
        for _ in range(steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[j] = j * interval
        densities[j] = rho
    return times, densities


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Space-time errors of noiseless kinetic runs against the diffusion limit."""

    epsilons: np.ndarray  # descending
    errors: np.ndarray  # L^2(0, T; L^2) distance to the reference
    slope: float  # log-log least-squares slope of error vs epsilon

    def errors_strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.errors) < 0.0))


def deterministic_convergence(
    grid: TorusGrid,
    quad: VelocityQuadrature,
    opacity: Opacity,
    rho0: np.ndarray,
    t_final: float,
    epsilons: Sequence[float],
    n_snapshots: int = 11,
    dt_scale: float = DT_CAP,
) -> ConvergenceReport:
    """Error of the noiseless kinetic solver against the RK4 limit solution.

    Each epsilon runs at its step cap aligned with the common snapshot grid;
    errors are trapezoid-in-time L^2 norms over the snapshots.
    """
    eps_sorted = sorted(epsilons, reverse=True)
    if len(eps_sorted) < 2:
        raise ValueError("need at least two epsilons for a slope")
    interval = t_final / (n_snapshots - 1)
    times, reference = rosseland_reference(
        grid, opacity, quad.diffusion_coefficient(), rho0, t_final, n_snapshots
    )
    errors = np.empty(len(eps_sorted))
    for i, eps in enumerate(eps_sorted):
        stride = max(int(math.ceil(interval / (dt_scale * eps**2) - 1e-12)), 1)
        config = KineticConfig(
            grid, quad, opacity, epsilon=eps, t_final=t_final,
            dt=interval / stride, snapshot_stride=stride,
        )
        trajectory = run_kinetic(config, rho0)
        if trajectory.densities.shape != reference.shape:
            raise RuntimeError("snapshot grids of run and reference disagree")
        sq = np.array([
            l2_norm_sq(grid, trajectory.densities[j] - reference[j])
            for j in range(n_snapshots)
        ])
        errors[i] = math.sqrt(_trapezoid(sq, interval))
    slope = float(np.polyfit(np.log(eps_sorted), np.log(errors), 1)[0])
    return ConvergenceReport(np.array(eps_sorted), errors, slope)
