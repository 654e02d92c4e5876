"""Ensemble statistics, scaling sweeps, deterministic convergence checks and
the identity battery.

The sweep compares kinetic ensembles against limit-equation ensembles on a
fixed triple of density functionals: the mean and variance of one Fourier
mode projection at the final time and the mean squared L^2 norm.  Sample
seeds derive from a base seed and the sample index through ``SeedSequence``,
so every ensemble is reproducible and individual samples can be regenerated
in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import fourier
from .correctors import FourierMode, GeneratorEvaluator
from .kinetic import (DT_CAP, KineticConfig, KineticTrajectory, _sample_chunks, _trajectories, check_dt_scale,
                      eps_squared, run_kinetic)
from .limit import SpdeConfig, _floats_per_sample, _integrate, rosseland_remainder, split_rate
from .model import (Opacity, TorusGrid, VelocityQuadrature, check_sobolev_order, density, equilibrium_field,
                    l2_norm_sq, relaxation_operator, step_count, weighted_inner)
from .noise import (NoiseModel, NoiseStatistics, _entropy, check_drift, noise_statistics, sample_chunks,
                    sample_rng)

#: names of the sweep functionals, in report order
FUNCTIONAL_NAMES = ("mode-mean", "mode-var", "normsq-mean")
#: contour points of the ETDRK4 coefficient means (Kassam & Trefethen 2005)
CONTOUR_POINTS = 32


def hs_norm(trajectory: KineticTrajectory, order: float):
    """Time integral of the squared H^order norm over a kinetic trajectory.

    Uses the recorded density snapshots and the trapezoid rule in time.
    Snapshots of several runs stacked on leading axes, (..., n_snapshots,
    n_x), give one integral per run.  The order must lie in
    (0, SMOOTHING_EXPONENT / 2), where the uniform regularity bound of
    kinetic runs lives (``model.check_sobolev_order``).
    """
    check_sobolev_order(order)
    values = fourier.sobolev_norm_sq(trajectory.config.grid, trajectory.densities, order)
    return np.trapezoid(values, trajectory.times, axis=-1)


@dataclass(frozen=True, eq=False)
class FunctionalTriple:
    """Estimates and standard errors of the three sweep functionals."""

    values: np.ndarray  # (3,)
    sems: np.ndarray  # (3,)


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
    return FunctionalTriple(values, sems)


def _trapezoid(values: np.ndarray, dt: float):
    """Trapezoid rule along the last axis of values on a grid of step dt."""
    return dt * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def _kinetic_reduction(batch: KineticTrajectory, mode: FourierMode, sobolev_order: float) -> np.ndarray:
    """Final functionals and uniform-bound diagnostics of a batch of kinetic
    runs of one configuration, stacked on a leading axis: the rows
    <rho_T, p>, ||rho_T||^2, sup energy, defect integral and H^s integral,
    one column per run.  Every reduction acts on each run alone, so a run's
    values do not depend on its batch."""
    grid, finals = batch.config.grid, batch.densities[:, -1]
    return np.array([
        mode.apply(grid, finals),
        l2_norm_sq(grid, finals),
        batch.energy.max(axis=-1),
        _trapezoid(batch.defect**2, batch.config.dt),
        hs_norm(batch, sobolev_order),
    ])


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
    prefixed ``sample k: ``.  Raises ValueError without a noise model.
    """
    if config.noise is None:
        raise ValueError("a kinetic ensemble needs the configuration's noise model")
    columns = [
        _kinetic_reduction(KineticTrajectory(config, *_trajectories(config, rho0, paths, first_sample=start)),
                           mode, sobolev_order)
        for start, paths in _sample_chunks(config, n_samples, seed)
    ]
    return KineticEnsemble(*np.concatenate(columns, axis=1))


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
    together on a leading axis, in the chunks of ``noise.sample_chunks``,
    and only the final densities are kept.  A failing sample aborts the
    ensemble with the error of the lowest failing sample, prefixed
    ``sample k: ``.  Raises ValueError without the noise statistics.
    """
    if config.noise is None:
        raise ValueError("a limit ensemble needs the noise statistics of the configuration's noise model")
    config = replace(config, snapshot_stride=config.n_steps)
    shape = (config.n_steps, config.noise_rank)
    finals = np.concatenate([
        _integrate(config, rho0, np.stack(normals, axis=1), first_sample=start)[1][:, -1]
        for start, normals in sample_chunks(n_samples, _floats_per_sample(config),
                                            lambda k: sample_rng(seed, k).standard_normal(shape))
    ])
    return LimitEnsemble(mode.apply(config.grid, finals), l2_norm_sq(config.grid, finals))


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

    def drift_gaps(self, drift: str) -> tuple[np.ndarray, np.ndarray]:
        """The gaps and their sems against the limit ensemble of ``drift``."""
        check_drift(drift)
        if drift == "paper":
            return self.gaps_paper, self.gap_paper_sems
        return self.gaps, self.gap_sems


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Scaling-limit comparison across epsilons with both drift conventions."""

    rows: tuple[SweepRow, ...]
    limit_effective: FunctionalTriple
    limit_paper: FunctionalTriple
    sobolev_order: float

    def gaps_nonincreasing(self, slack_sigma: float = 1.0, drift: str = "effective") -> bool:
        """Every functional's gap column against the ``drift`` limit
        ensemble shrinks as epsilon does.

        Consecutive epsilons may violate monotonicity by at most
        ``slack_sigma`` combined standard errors."""
        ordered = [row.drift_gaps(drift) for row in sorted(self.rows, key=lambda r: -r.epsilon)]
        for j in range(len(FUNCTIONAL_NAMES)):
            for (gaps_a, sems_a), (gaps_b, sems_b) in zip(ordered, ordered[1:]):
                slack = slack_sigma * math.hypot(sems_a[j], sems_b[j])
                if gaps_b[j] > gaps_a[j] + slack:
                    return False
        return True

    def paper_excess_sigmas(self) -> np.ndarray:
        """Per functional: how many combined sigmas the paper-drift gap
        exceeds the effective-drift gap at the smallest epsilon."""
        row = min(self.rows, key=lambda r: r.epsilon)
        # a kernel that clips to rank 0 leaves every sample alike: zero sems
        scale = np.hypot(row.gap_sems, row.gap_paper_sems)
        return (row.gaps_paper - row.gaps) / np.where(scale > 0.0, scale, np.inf)

    def diagnostic_band(self, name: str) -> float:
        """Max/min ratio of an ensemble-mean diagnostic across epsilons."""
        values = [getattr(row, name) for row in self.rows]
        low = min(values)
        if low <= 0.0:
            raise ValueError(f"diagnostic {name} is not positive")
        return max(values) / low


def epsilon_sweep(
    grid: TorusGrid,
    quad: VelocityQuadrature,
    opacity: Opacity,
    noise_model: NoiseModel,
    rho0: np.ndarray,
    t_final: float,
    epsilons: Sequence[float],
    n_kinetic: int,
    n_limit: int,
    base_seed,
    *,
    mode: FourierMode,
    sobolev_order: float,
    dt_scale: float,
) -> SweepReport:
    """Compare kinetic ensembles across epsilons with the limit equation.

    Kinetic steps use dt ~ dt_scale * eps^2 (rounded so that nine density
    snapshots resolve the time integrals), with dt_scale under the kinetic
    step cap (``kinetic.check_dt_scale``); the limit equation runs at its
    default step with both drift conventions.  The comparison is in law,
    so it needs a noise model; ``deterministic_convergence`` is the
    noiseless comparison.  Every kinetic configuration is built, and the
    arguments checked (both sample counts by ``noise.sample_chunks``),
    before the first ensemble runs.
    """
    if noise_model is None:
        raise ValueError("the epsilon sweep needs a noise model; noise is off")
    check_dt_scale(dt_scale)
    check_sobolev_order(sobolev_order)
    for n_samples in (n_kinetic, n_limit):
        sample_chunks(n_samples, 1, None)  # refuses the count at the call, before any draw
    configs = []
    for eps in sorted(epsilons, reverse=True):
        steps = 8 * step_count(t_final, 8 * dt_scale * eps_squared(eps))
        configs.append(KineticConfig(grid, quad, opacity, epsilon=eps, t_final=t_final,
                                     dt=t_final / steps, noise=noise_model, snapshot_stride=steps // 8))
    stats = noise_statistics(noise_model)
    diffusion = quad.diffusion_coefficient()
    entropy = _entropy(base_seed)

    def limit_config(drift: str) -> SpdeConfig:
        return SpdeConfig(grid, opacity, diffusion, t_final, noise=stats, drift=drift)

    limit_eff = limit_ensemble(limit_config("effective"), rho0, mode, n_limit, (*entropy, 20)).functionals()
    limit_pap = limit_ensemble(limit_config("paper"), rho0, mode, n_limit, (*entropy, 21)).functionals()

    rows = []
    for i, config in enumerate(configs):
        ensemble = kinetic_ensemble(config, rho0, mode, n_kinetic, (*entropy, 10 + i), sobolev_order)
        est = ensemble.functionals()
        rows.append(SweepRow(
            config.epsilon,
            est,
            np.abs(est.values - limit_eff.values),
            np.hypot(est.sems, limit_eff.sems),
            np.abs(est.values - limit_pap.values),
            np.hypot(est.sems, limit_pap.sems),
            float(ensemble.sup_energy.mean()),
            float(ensemble.defect_integral.mean()),
            float(ensemble.sobolev.mean()),
        ))
    return SweepReport(tuple(rows), limit_eff, limit_pap, sobolev_order)


def _etdrk4_coefficients(linear: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """exp(dt L), exp(dt L / 2) and the ETDRK4 weights Q, f1, f2, f3 of
    Cox & Matthews (2002) for the diagonal linear part L.

    The phi-functions are means over CONTOUR_POINTS points of the unit
    circle around each dt L (Kassam & Trefethen 2005), which avoids the
    cancellation of their closed forms near dt L = 0.
    """
    z0 = dt * linear
    roots = np.exp(1j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
    z = z0[:, None] + roots
    ez, z3 = np.exp(z), z**3

    def mean(values):
        return dt * values.mean(axis=-1).real

    q = mean((np.exp(z / 2.0) - 1.0) / z)
    f1 = mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3)
    f2 = mean((2.0 + z + ez * (z - 2.0)) / z3)
    f3 = mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3)
    return np.exp(z0), np.exp(z0 / 2.0), q, f1, f2, f3


def rosseland_reference(
    grid: TorusGrid,
    opacity: Opacity,
    diffusion: float,
    rho0: np.ndarray,
    t_final: float,
    n_snapshots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """ETDRK4 reference solution of d rho/dt = K Lap G(rho).

    Returns (times, densities) at n_snapshots equispaced times including
    both endpoints.  The linear part c Lap rho of the limit solver's split
    is integrated exactly and the remainder N(rho) by the fourth-order
    exponential Runge-Kutta scheme of Cox & Matthews (2002), in Fourier
    space, 16 steps per snapshot interval on any grid.
    """
    if n_snapshots < 2:
        raise ValueError("need at least the two endpoint snapshots")
    interval = t_final / (n_snapshots - 1)
    steps = 16
    linear = split_rate(opacity, diffusion) * fourier.half_laplace_symbol(grid.n_x)
    e, e2, q, f1, f2, f3 = _etdrk4_coefficients(linear, interval / steps)

    def nonlinear(v: np.ndarray) -> np.ndarray:
        return rosseland_remainder(grid, opacity, diffusion, v)

    v = np.fft.rfft(np.asarray(rho0, dtype=float))
    densities = np.empty((n_snapshots,) + grid.shape)
    densities[0] = rho0
    for j in range(1, n_snapshots):
        for _ in range(steps):
            nv = nonlinear(v)
            a = e2 * v + q * nv
            na = nonlinear(a)
            b = e2 * v + q * na
            nb = nonlinear(b)
            c = e2 * a + q * (2.0 * nb - nv)
            v = e * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nonlinear(c)
        densities[j] = np.fft.irfft(v, grid.n_x)
    return np.arange(n_snapshots) * interval, densities


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
) -> ConvergenceReport:
    """Error of the noiseless kinetic solver against the ETDRK4 limit solution.

    The errors are trapezoid-in-time L^2 norms over 11 equispaced
    snapshots; each epsilon runs at its step cap aligned with them.  Every
    kinetic configuration is built before the reference runs.
    """
    eps_sorted = sorted(epsilons, reverse=True)
    if len(eps_sorted) < 2:
        raise ValueError("need at least two epsilons for a slope")
    n_snapshots = 11
    interval = t_final / (n_snapshots - 1)
    configs = []
    for eps in eps_sorted:
        stride = step_count(interval, DT_CAP * eps_squared(eps))
        configs.append(KineticConfig(grid, quad, opacity, epsilon=eps, t_final=t_final,
                                     dt=interval / stride, snapshot_stride=stride))
    _, reference = rosseland_reference(
        grid, opacity, quad.diffusion_coefficient(), rho0, t_final, n_snapshots
    )
    errors = np.array([
        math.sqrt(_trapezoid(l2_norm_sq(grid, run_kinetic(config, rho0).densities - reference), interval))
        for config in configs
    ])
    bad = [f"eps = {eps:g}: {err:g}" for eps, err in zip(eps_sorted, errors) if not err > 0.0]
    if bad:
        raise ValueError(f"non-positive errors against the limit solution ({', '.join(bad)}); "
                         "a log-log slope needs positive errors")
    slope = float(np.polyfit(np.log(eps_sorted), np.log(errors), 1)[0])
    return ConvergenceReport(np.array(eps_sorted), errors, slope)


def _telegraph_rate(model: NoiseModel) -> float | None:
    """The flip rate of a telegraph chain (two states n and -n swapped at
    one rate), None for any other chain."""
    m = model.generator
    if (model.n_states == 2 and m[0, 1] == m[1, 0]
            and np.array_equal(model.states[1], -model.states[0])):
        return float(m[0, 1])
    return None


def identity_residuals(
    config: KineticConfig,
    stats: NoiseStatistics | None,
    mode: FourierMode,
    f: np.ndarray,
) -> dict[str, float]:
    """The exact identities behind the scaling limit, as named residuals.

    Every residual vanishes in exact arithmetic.  Always: the moments of the
    velocity quadrature, the normalization of the mode, and the dissipation
    of the relaxation operator and the duality of transport at the field f
    (n_v, n_x).  With noise: the Poisson equation of the chain, the symmetry
    of the kernel and both drift identities, then the generator algebra at
    eps = config.epsilon: the 1/eps^2 terms vanish at the equilibrium of
    <f>, the 1/eps bracket cancels at f, and the state-dependent drift
    equals int <f> h_eff p dx in every state.  A telegraph chain adds the
    closed forms of psi and of its mode weight and phi_2 = 0.
    """
    grid, quad = config.grid, config.quad
    p = mode.profile(grid)
    out = {
        "velocity-mass": abs(quad.equilibrium_mass() - 1.0),
        "velocity-null-flux": abs(quad.null_flux()),
        "mode-normalization": abs(grid.integrate(p * p) - 1.0),
    }
    relax = relaxation_operator(quad, f)
    out["relax-dissipation"] = abs(
        weighted_inner(grid, quad, relax, f) + weighted_inner(grid, quad, relax, relax))
    transport = np.stack([a * fourier.gradient(grid, row) for a, row in zip(quad.speeds, f)])
    flux = (quad.weights * quad.speeds) @ f
    lhs = weighted_inner(grid, quad, transport, equilibrium_field(quad, p))
    rhs = -grid.integrate(flux * fourier.gradient(grid, p))
    out["transport-duality"] = abs(lhs - rhs)
    if stats is not None:
        model = stats.model
        psi = stats.poisson_profiles
        out["poisson-residual"] = np.max(np.abs(model.generator @ psi - model.states))
        out["kernel-symmetry"] = np.max(np.abs(stats.kernel - stats.kernel.T))
        out["drift-consistency"] = np.max(np.abs(stats.drift_paper + stats.drift_effective))
        diag = np.diag(stats.kernel)
        out["kernel-diag-drift"] = np.max(np.abs(diag - 2.0 * stats.drift_effective))
        rate = _telegraph_rate(model)
        if rate is not None:
            out["telegraph-poisson-closed-form"] = np.max(np.abs(psi + model.states / (2.0 * rate)))
            profile_sq = grid.integrate(model.states[0] ** 2)
            # the top weight is 0 when the clip keeps no mode
            out["telegraph-mode-weight"] = abs(stats.mode_weights.max(initial=0.0) - profile_sq / rate)
        rho = density(quad, f)
        evaluator = GeneratorEvaluator(config, stats, mode)
        at_rest = evaluator.per_state(equilibrium_field(quad, rho))
        out["transport-singular"] = np.max(np.abs(at_rest["transport_singular"]))
        out["relax-singular"] = np.max(np.abs(at_rest["relax_singular"]))
        terms = evaluator.per_state(f)
        bracket = terms["noise_singular"] + terms["chain_first"] + terms["relax_first"]
        out["scale-balance-residual"] = np.max(np.abs(config.epsilon * bracket))
        drift = terms["noise_first"] + terms["chain_second"]
        out["drift-state-independence"] = np.max(np.abs(
            drift - grid.integrate(rho * stats.drift_effective * p)))
        if rate is not None:
            out["telegraph-second-corrector-null"] = np.max(np.abs(evaluator.u_profiles))
    return {name: float(value) for name, value in out.items()}
