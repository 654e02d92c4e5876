"""Stiff-stable solvers for the stochastic nonlinear diffusion limit.

The limit density solves

    d rho = K Lap G(rho) dt + h(x) rho dt + rho dW(t, x),

where G is the opacity primitive (G' = 1/sigma), K the velocity diffusion
coefficient, W the Q-Wiener field with covariance kernel k(x, y), and h the
drift field.  The Stratonovich-consistent Ito drift is h = h_eff = k(x,x)/2;
the opposite sign convention h = H = -h_eff is kept selectable for
comparison runs.

Both integrators of the diffusion term split it the same way:

    K Lap G(rho) = c Lap rho + N(rho),   c = K (1/sigma_* + 1/sigma^*) / 2,

a linear part solved in Fourier space and the explicit remainder
N(rho) = Lap(K G(rho) - c rho) (``split_rate``, ``rosseland_remainder``).
G' lies between 1/sigma^* and 1/sigma_*, so c is at least half the largest
diffusivity K / sigma_*, which makes the linearised implicit step below
stable at any dt (Douglas-Dupont stabilisation).  For a constant opacity
N = 0.

One limit step composes the exact geometric flow of the noise,

    rho <- rho exp(dW + (h - k(x,x)/2) dt),
    dW = sqrt(dt) sum_j sqrt(lambda_j) e_j(x) xi_j,

which keeps rho positive and is exactly exp(dW) for h = h_eff, with one
linearly implicit diffusion solve,

    rho_hat <- (rho + dt N(rho))_hat / (1 - dt c symbol).

No step is capped by the grid spacing; ``SpdeConfig`` documents the
default step rule.  ``harness.rosseland_reference`` integrates the
noise-free equation by ETDRK4 on the same split.

The loop steps a batch of samples, densities of shape (B, n_x) with one row
of normals per sample: every operation of a step acts on each row alone, so
a sample's path does not depend on the batch it is integrated in.
``_integrate`` runs the step on the block loop both solvers share,
``noise.step_blocks``, whose docstring states the block rule and the
failure rule.  ``run_limit`` is its one-sample case, and
``harness.limit_ensemble`` runs its samples through it in the chunks of
``noise.sample_chunks``, as the kinetic ensembles do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .model import Opacity, TorusGrid, check_whole_steps, l2_norm_sq, step_count
from .noise import NoiseStatistics, check_drift, record_blocks, step_blocks

#: ``SpdeConfig(dt=None)`` takes at least this many steps per decay time
#: sigma_* / (4 pi^2 K) of the first Fourier mode at the largest diffusivity
STEPS_PER_DECAY = 8


def rosseland_rhs(grid: TorusGrid, opacity: Opacity, diffusion: float, rho: np.ndarray) -> np.ndarray:
    """K Lap G(rho), the nonlinear diffusion term, evaluated spectrally.

    The integrators work through ``split_rate`` and ``rosseland_remainder``
    instead; this direct form is the independent route the tests check them
    against, and the benchmark's tracer names it.
    """
    return diffusion * fourier.laplacian(grid, opacity.primitive(rho))


def split_rate(opacity: Opacity, diffusion: float) -> float:
    """c = K (1/sigma_* + 1/sigma^*) / 2, the rate of the linear part c Lap rho."""
    return 0.5 * diffusion * (1.0 / opacity.sigma_star + 1.0 / opacity.sigma_upper)


def rosseland_remainder(
    grid: TorusGrid, opacity: Opacity, diffusion: float, rho_hat: np.ndarray
) -> np.ndarray:
    """N(rho) = K Lap G(rho) - c Lap rho in the rfft layout, from the rfft
    coefficients rho_hat (leading sample axes allowed)."""
    rho = np.fft.irfft(rho_hat, grid.n_x)
    potential = diffusion * opacity.primitive(rho) - split_rate(opacity, diffusion) * rho
    return fourier.half_laplace_symbol(grid.n_x) * np.fft.rfft(potential)


@dataclass(frozen=True)
class SpdeConfig:
    """Discretization of one limit-equation run.

    ``dt=None`` takes n = ceil(STEPS_PER_DECAY * t_final / tau) equal steps,
    where tau = sigma_* / (4 pi^2 K) is the decay time of the first Fourier
    mode at the largest diffusivity.  The rule does not depend on the grid,
    since the step is stable at any dt; at a diffusion of 1e-300 it is one
    step, and the solve adds less than half an ulp to a density of order
    one.  An explicit dt must divide t_final.
    """

    grid: TorusGrid
    opacity: Opacity
    diffusion: float
    t_final: float
    dt: float | None = None
    noise: NoiseStatistics | None = None
    drift: str = "effective"
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if self.t_final <= 0.0 or self.diffusion <= 0.0:
            raise ValueError("t_final and diffusion must be positive")
        check_drift(self.drift)
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        if self.noise is not None and self.noise.model.grid != self.grid:
            raise ValueError("noise statistics live on a different grid")
        if self.dt is None:
            decay = self.opacity.sigma_star / (4.0 * math.pi**2 * self.diffusion)
            n = step_count(self.t_final, decay / STEPS_PER_DECAY)
            object.__setattr__(self, "dt", self.t_final / n)
        else:
            check_whole_steps(self.t_final, self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def noise_rank(self) -> int:
        return 0 if self.noise is None else self.noise.rank


@dataclass(frozen=True, eq=False)
class SpdeTrajectory:
    """Snapshots and per-step diagnostics of one limit run."""

    config: SpdeConfig
    times: np.ndarray
    densities: np.ndarray
    step_times: np.ndarray
    mass: np.ndarray
    norm_sq: np.ndarray  # spatial L^2 norm squared per step


class SpdeStepper:
    """Geometric noise flow followed by one linearly implicit diffusion
    solve, with the noise modes and the solve's multipliers precomputed."""

    def __init__(self, config: SpdeConfig):
        self.config = config
        dt, diffusion = config.dt, config.diffusion
        symbol = fourier.half_laplace_symbol(config.grid.n_x)
        rate = split_rate(config.opacity, diffusion)
        # (rho + dt N(rho))_hat / (1 - dt c symbol)
        #   = rho_hat + dt K symbol G(rho)_hat / (1 - dt c symbol),
        # one forward and one inverse transform per step
        self.gain = dt * diffusion * symbol / (1.0 - dt * rate * symbol)
        if config.noise is None:
            self.modes = np.zeros((0, config.grid.n_x))
        else:
            noise = config.noise
            self.modes = np.sqrt(noise.mode_weights)[:, None] * noise.mode_profiles
            # (h - k(x,x)/2) dt, exactly zero for the effective drift
            self.log_drift = (noise.drift(config.drift) - noise.drift_effective) * dt

    def step(self, rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One step of rho, shape (..., n_x).

        xi, shape (..., rank), holds one standard normal per noise mode and
        per sample; leading axes of rho and xi are sample axes.
        """
        cfg = self.config
        if len(self.modes):
            # sum_j xi_j sqrt(lambda_j) e_j, one mode at a time: a matrix
            # product may block the sum differently for different batch
            # sizes, and a sample's field must not depend on its batch
            field = xi[..., 0, None] * self.modes[0]
            for j in range(1, len(self.modes)):
                field = field + xi[..., j, None] * self.modes[j]
            rho = rho * np.exp(math.sqrt(cfg.dt) * field + self.log_drift)
        g_hat = np.fft.rfft(cfg.opacity.primitive(rho))
        return rho + np.fft.irfft(self.gain * g_hat, cfg.grid.n_x)


def _integrate(
    config: SpdeConfig,
    rho0: np.ndarray,
    normals: np.ndarray,
    first_sample: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Advance B samples from rho0 with normals (n_steps, B, rank):
    ``noise.record_blocks`` with the series mass and norm_sq.  A row fails
    at a non-finite norm_sq or a density that is not positive.
    """
    n_steps, rows = normals.shape[:2]
    dt, grid = config.dt, config.grid
    stepper = SpdeStepper(config)

    def step(rho: np.ndarray, k: int) -> np.ndarray:
        return stepper.step(rho, normals[k])

    def check(rho: np.ndarray):
        sq = l2_norm_sq(grid, rho)
        return sq, ~(np.isfinite(sq) & (rho.min(axis=-1) > 0.0))

    def describe(k: int, row: int, rho: np.ndarray) -> str:
        if np.isfinite(l2_norm_sq(grid, rho)):
            return f"density lost positivity at t = {k * dt:g} (min = {rho.min():.3e})"
        return f"density lost finiteness at step {k} (t = {k * dt:g})"

    def measure(rho: np.ndarray, at: np.ndarray):
        return rho[at], grid.cell_volume * rho.sum(axis=-1)

    rho = np.repeat(np.asarray(rho0, dtype=float)[None], rows, axis=0)
    blocks = step_blocks(step, rho, n_steps, first_sample, check, describe)
    return record_blocks(blocks, n_steps, config.snapshot_stride, dt, measure)


def _floats_per_sample(config: SpdeConfig) -> int:
    """Floats one sample of a chunk holds: its normals, its density and the
    temporaries of a step (8 densities' worth), its snapshots and its
    per-step mass and norm_sq."""
    n_snap = -(-config.n_steps // config.snapshot_stride) + 1
    return config.n_steps * (config.noise_rank + 2) + (8 + n_snap) * config.grid.n_x + 2


def run_limit(
    config: SpdeConfig,
    rho0: np.ndarray,
    rng: np.random.Generator | None = None,
) -> SpdeTrajectory:
    """Run the limit equation from rho0 and record diagnostics.

    With noise on, the increments are one (n_steps, rank) array of standard
    normals drawn from ``rng``.  The run is the one-sample case of the
    batched loop: it aborts with ``FloatingPointError`` at the first step
    whose density is not finite or not positive.
    """
    n_steps, rank = config.n_steps, config.noise_rank
    if rank > 0 and rng is None:
        raise ValueError("pass rng when noise is on")
    normals = rng.standard_normal((n_steps, rank)) if rank > 0 else np.empty((n_steps, 0))
    times, snaps, step_times, mass, norm_sq = _integrate(config, rho0, normals[:, None])
    return SpdeTrajectory(config, times, snaps[0], step_times, mass[0], norm_sq[0])
