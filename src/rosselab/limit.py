"""Euler-Maruyama solver for the stochastic nonlinear diffusion limit.

The limit density solves

    d rho = div( K grad G(rho) ) dt + h(x) rho dt + rho dW(t, x),

where G is the opacity primitive (G' = 1/sigma), K the velocity diffusion
coefficient, W the Q-Wiener field with covariance kernel k(x, y), and h the
drift field.  The Stratonovich-consistent Ito drift is h = h_eff = k(x,x)/2;
the opposite sign convention h = H = -h_eff is kept selectable for
comparison runs.

The noise increment uses the covariance eigenmodes,
    dW = sum_j sqrt(lambda_j) e_j(x) dbeta_j,
so one step reads

    rho <- rho + dt (K Lap G(rho) + h rho) + sqrt(dt) rho sum_j sqrt(lambda_j) e_j xi_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .model import Opacity, TorusGrid, l2_norm_sq
from .noise import NoiseStatistics

#: dt <= STAB_CAP * dx^2 * sigma_star / K; 0.2 is just under the explicit
#: stability threshold 2/pi^2 for the spectral Laplacian
STAB_CAP = 0.2


def stable_dt(grid: TorusGrid, opacity: Opacity, diffusion: float) -> float:
    """Largest stable step for the explicit diffusion update."""
    return STAB_CAP * grid.spacing**2 * opacity.sigma_star / diffusion


def rosseland_rhs(grid: TorusGrid, opacity: Opacity, diffusion: float, rho: np.ndarray) -> np.ndarray:
    """K Lap G(rho), the nonlinear diffusion term, evaluated spectrally."""
    return diffusion * fourier.laplacian(grid, opacity.primitive(rho))


@dataclass(frozen=True)
class SpdeConfig:
    """Discretization of one limit-equation run.

    ``dt=None`` picks the largest stable step dividing t_final.  With
    ``include_diffusion=False`` the parabolic part is switched off (pure
    multiplicative-noise test mode) and the stability cap does not apply.
    """

    grid: TorusGrid
    opacity: Opacity
    diffusion: float
    t_final: float
    dt: float | None = None
    noise: NoiseStatistics | None = None
    drift: str = "effective"
    include_diffusion: bool = True
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if self.t_final <= 0.0 or self.diffusion <= 0.0:
            raise ValueError("t_final and diffusion must be positive")
        if self.drift not in ("effective", "paper"):
            raise ValueError(f"unknown drift convention {self.drift!r}; use 'paper' or 'effective'")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        if self.noise is not None and self.noise.model.grid != self.grid:
            raise ValueError("noise statistics live on a different grid")
        cap = stable_dt(self.grid, self.opacity, self.diffusion)
        if self.dt is None:
            limit = cap if self.include_diffusion else self.t_final
            n = max(int(math.ceil(self.t_final / limit - 1e-12)), 1)
            object.__setattr__(self, "dt", self.t_final / n)
        else:
            if self.include_diffusion and self.dt > cap * (1.0 + 1e-9):
                raise ValueError(f"dt = {self.dt:g} exceeds the stability cap {cap:g}")
            n = round(self.t_final / self.dt)
            if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * self.t_final:
                raise ValueError("t_final must be an integer multiple of dt")

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

    def final_density(self) -> np.ndarray:
        return self.densities[-1]


class SpdeStepper:
    """Euler-Maruyama stepper with precomputed drift and noise modes."""

    def __init__(self, config: SpdeConfig):
        self.config = config
        grid = config.grid
        if config.noise is None:
            self.drift_field = np.zeros(grid.shape)
            self.modes = np.zeros((0, grid.n_x))
        else:
            self.drift_field = config.noise.drift(config.drift)
            self.modes = np.sqrt(config.noise.mode_weights)[:, None] * config.noise.mode_profiles

    def step(self, rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One Euler-Maruyama step; xi holds one standard normal per noise mode."""
        cfg = self.config
        dt = cfg.dt
        out = rho + dt * (self.drift_field * rho)
        if cfg.include_diffusion:
            out = out + dt * rosseland_rhs(cfg.grid, cfg.opacity, cfg.diffusion, rho)
        if xi.size:
            out = out + math.sqrt(dt) * rho * (xi @ self.modes)
        return out


def run_limit(
    config: SpdeConfig,
    rho0: np.ndarray,
    rng: np.random.Generator | None = None,
    normals: np.ndarray | None = None,
) -> SpdeTrajectory:
    """Run the limit equation from rho0 and record diagnostics.

    Noise increments are drawn from ``rng`` unless an (n_steps, rank) array
    of standard normals is supplied.  Deterministic runs (no noise) monitor
    positivity and abort when the density touches zero.
    """
    grid = config.grid
    n_steps = config.n_steps
    rank = config.noise_rank
    if rank > 0 and normals is None:
        if rng is None:
            raise ValueError("pass rng (or a normals array) when noise is on")
        normals = rng.standard_normal((n_steps, rank))
    if normals is None:
        normals = np.zeros((n_steps, 0))
    if normals.shape != (n_steps, rank):
        raise ValueError(f"normals must have shape ({n_steps}, {rank})")
    stepper = SpdeStepper(config)
    rho = np.array(rho0, dtype=float)
    step_times = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    norm_sq = np.empty(n_steps + 1)
    snap_times = []
    snaps = []
    deterministic = rank == 0
    for k in range(n_steps + 1):
        t = k * config.dt
        step_times[k] = t
        mass[k] = grid.integrate(rho)
        norm_sq[k] = l2_norm_sq(grid, rho)
        if not np.isfinite(norm_sq[k]):
            raise FloatingPointError(f"density lost finiteness at step {k} (t = {t:g})")
        if deterministic and np.min(rho) <= 0.0:
            raise FloatingPointError(
                f"density lost positivity at t = {t:g} (min = {np.min(rho):.3e})"
            )
        if k % config.snapshot_stride == 0 or k == n_steps:
            snap_times.append(t)
            snaps.append(rho.copy())
        if k < n_steps:
            rho = stepper.step(rho, normals[k])
    return SpdeTrajectory(
        config,
        np.array(snap_times),
        np.array(snaps),
        step_times,
        mass,
        norm_sq,
    )
