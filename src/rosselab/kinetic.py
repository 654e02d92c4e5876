"""Strang-split solver for the scaled kinetic equation.

One step of size dt advances

    d_t f + (1/eps) a(v) . grad_x f
        = (1/eps^2) sigma(<f>) (<f> F - f) + (1/eps) f m(t/eps^2, x)

by the symmetric composition

    T(dt/2) N(first half) R(dt) N(second half) T(dt/2),

where T is the exact spectral transport flow at speed a/eps, N multiplies by
exp((1/eps) int m ds) with the chain integral evaluated exactly on each half
interval, and R is the exact relaxation flow over dt/eps^2.  The splitting
is second order in dt at fixed eps and unconditionally stable; dt is capped
at eps^2/2 so that relaxation and noise are resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Opacity,
    TorusGrid,
    VelocityQuadrature,
    density,
    relax_exact,
    weighted_norm,
    weighted_norm_sq,
)
from .noise import NoiseModel, NoisePath, sample_path

#: dt <= DT_CAP * eps^2 keeps the stiff relaxation and noise resolved
DT_CAP = 0.5
#: abort if a noise exponent exceeds this (exp would overflow usefulness)
EXPONENT_LIMIT = 50.0


def transport_phases(grid: TorusGrid, quad: VelocityQuadrature, tau: float) -> np.ndarray:
    """Spectral multipliers shifting node k by tau * a_k, rfft layout."""
    freqs = np.fft.rfftfreq(grid.n_x, d=grid.spacing)
    return np.exp(-2j * np.pi * tau * np.outer(freqs, quad.speeds))


def _translate(f: np.ndarray, phases: np.ndarray) -> np.ndarray:
    f_hat = np.fft.rfft(f, axis=0)
    f_hat *= phases
    return np.fft.irfft(f_hat, n=f.shape[0], axis=0)


def transport_step(
    grid: TorusGrid, quad: VelocityQuadrature, f: np.ndarray, tau: float
) -> np.ndarray:
    """Translate node k by tau * a_k; exact for trigonometric data below the
    Nyquist frequency.  The Nyquist mode itself cannot be translated off the
    grid and is damped by the real-part projection, so the step never gains
    energy."""
    return _translate(f, transport_phases(grid, quad, tau))


def noise_factor(path: NoisePath, t0: float, dt: float, epsilon: float) -> np.ndarray:
    """exp((1/eps) int_{t0}^{t0+dt} m(s, x) ds), exact for the sampled chain."""
    exponent = path.profile_integral(t0, t0 + dt) / epsilon
    peak = float(np.max(np.abs(exponent)))
    if peak > EXPONENT_LIMIT:
        raise FloatingPointError(
            f"noise exponent {peak:.2f} exceeds {EXPONENT_LIMIT}; "
            "noise amplitude / epsilon too large for this dt"
        )
    return np.exp(exponent)


@dataclass(frozen=True)
class KineticConfig:
    """Discretization of one kinetic run.

    ``dt=None`` selects the largest step of the form t_final / n not
    exceeding DT_CAP * eps^2; an explicit dt must divide t_final and respect
    the cap.
    """

    grid: TorusGrid
    quad: VelocityQuadrature
    opacity: Opacity
    epsilon: float
    t_final: float
    dt: float | None = None
    noise: NoiseModel | None = None
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0 or self.t_final <= 0.0:
            raise ValueError("epsilon and t_final must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        cap = DT_CAP * self.epsilon**2
        if self.dt is None:
            n = max(int(math.ceil(self.t_final / cap - 1e-12)), 1)
            object.__setattr__(self, "dt", self.t_final / n)
        else:
            if self.dt > cap * (1.0 + 1e-9):
                raise ValueError(f"dt = {self.dt:g} exceeds the cap {cap:g} = eps^2/2")
            n = round(self.t_final / self.dt)
            if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * self.t_final:
                raise ValueError("t_final must be an integer multiple of dt")
        if self.noise is not None and self.noise.grid != self.grid:
            raise ValueError("noise model lives on a different grid")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass(frozen=True, eq=False)
class KineticTrajectory:
    """Snapshots and per-step diagnostics of one kinetic run."""

    config: KineticConfig
    times: np.ndarray  # snapshot times
    densities: np.ndarray  # (n_snapshots, n_x)
    step_times: np.ndarray  # (n_steps + 1,)
    mass: np.ndarray  # total mass per step
    energy: np.ndarray  # squared weighted norm per step
    defect: np.ndarray  # ||<f>F - f|| / eps per step
    path: NoisePath | None

    def final_density(self) -> np.ndarray:
        return self.densities[-1]


class KineticStepper:
    """Reusable stepper with cached transport phases for one configuration."""

    def __init__(self, config: KineticConfig, path: NoisePath | None):
        if config.noise is not None and path is None:
            raise ValueError("a sampled noise path is required when noise is on")
        if path is not None and path.t_final < config.t_final - 1e-9:
            raise ValueError("noise path is shorter than the run")
        self.config = config
        self.path = path
        self.half_phases = transport_phases(config.grid, config.quad, config.dt / (2.0 * config.epsilon))

    def step(self, f: np.ndarray, t: float) -> np.ndarray:
        """One splitting step from t to t + dt."""
        cfg = self.config
        half = 0.5 * cfg.dt
        f = _translate(f, self.half_phases)
        if self.path is not None:
            f = f * noise_factor(self.path, t, half, cfg.epsilon)[:, None]
        f = relax_exact(cfg.quad, cfg.opacity, f, cfg.dt / cfg.epsilon**2)
        if self.path is not None:
            f = f * noise_factor(self.path, t + half, half, cfg.epsilon)[:, None]
        return _translate(f, self.half_phases)


def iterate_kinetic(config: KineticConfig, f0: np.ndarray, path: NoisePath | None = None):
    """Yield (step index, time, kinetic field) from step 0 to n_steps."""
    stepper = KineticStepper(config, path)
    f = np.array(f0, dtype=float)
    yield 0, 0.0, f
    for k in range(config.n_steps):
        f = stepper.step(f, k * config.dt)
        yield k + 1, (k + 1) * config.dt, f


def run_kinetic(
    config: KineticConfig,
    rho0: np.ndarray,
    rng: np.random.Generator | None = None,
    path: NoisePath | None = None,
) -> KineticTrajectory:
    """Run from the well-prepared state rho0(x) F(v) and record diagnostics.

    With noise on, a path is sampled from ``rng`` unless one is supplied.
    """
    if config.noise is not None and path is None:
        if rng is None:
            raise ValueError("pass rng (or a pre-sampled path) when noise is on")
        path = sample_path(config.noise, config.epsilon, config.t_final, rng)
    grid, quad = config.grid, config.quad
    f0 = np.multiply.outer(np.asarray(rho0, dtype=float), quad.equilibrium)
    n_steps = config.n_steps
    step_times = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    energy = np.empty(n_steps + 1)
    defect = np.empty(n_steps + 1)
    snap_times = []
    snaps = []
    for k, t, f in iterate_kinetic(config, f0, path):
        rho = density(quad, f)
        step_times[k] = t
        mass[k] = grid.integrate(rho)
        energy[k] = weighted_norm_sq(grid, quad, f)
        lf = np.multiply.outer(rho, quad.equilibrium) - f
        defect[k] = weighted_norm(grid, quad, lf) / config.epsilon
        if not np.isfinite(energy[k]):
            raise FloatingPointError(f"kinetic field lost finiteness at step {k} (t = {t:g})")
        if k % config.snapshot_stride == 0 or k == n_steps:
            snap_times.append(t)
            snaps.append(rho)
    return KineticTrajectory(
        config,
        np.array(snap_times),
        np.array(snaps),
        step_times,
        mass,
        energy,
        defect,
        path,
    )
