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

Consecutive steps meet in T(dt/2) T(dt/2) = T(dt), so the loop runs on the
spectrum: a kinetic field has shape (..., n_v, n_x), space last, and the
loop state is its rfft along x, shape (B, n_v, n_x // 2 + 1).  A step
multiplies by the half-step phases, takes one irfft for N R N and one rfft
back, and multiplies by the phases again.  For even n_x it then sets the
Nyquist coefficient to its real part, as the inverse transform between the
two half translations of the unfused composition does, so both agree in
exact arithmetic.  Energy and defect come from the spectrum by Parseval,
mass from its zero mode; densities return to physical space only where a
caller records them.

The solver steps a batch of samples with one noise path per row.  Every
operation of a step acts on each row alone (transforms along x, one
vector-matrix product per row), so a sample's bits do not depend on the
batch it runs in.  ``_strang`` runs the step on the block loop both solvers
share, ``noise.step_blocks``, whose docstring states the block rule and the
failure rule.  ``run_kinetic`` is its one-sample case, and
``harness.kinetic_ensemble`` and ``correctors.martingale_residual`` run
their samples through it in the chunks of ``noise.sample_chunks``
(``_sample_chunks``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import fourier
from .model import (Opacity, TorusGrid, VelocityQuadrature, check_whole_steps, density, equilibrium_field,
                    relax_exact, step_count)
from .noise import (NoiseModel, NoisePath, occupation_table, record_blocks, sample_chunks, sample_path,
                    sample_rng, step_blocks)

#: dt <= DT_CAP * eps^2 keeps the stiff relaxation and noise resolved
DT_CAP = 0.5
#: a noise exponent above this fails its sample (exp would overflow usefulness)
EXPONENT_LIMIT = 50.0


def eps_squared(epsilon: float) -> float:
    """eps^2 for the kinetic step caps; ValueError unless it is a normal float."""
    square = epsilon * epsilon
    if not math.isfinite(square):
        raise ValueError(f"epsilon = {epsilon:g} is too large: eps^2 overflows")
    if square < np.finfo(float).tiny:
        raise ValueError(f"epsilon = {epsilon:g} is too small: eps^2 underflows")
    return square


def check_step(epsilon: float, dt: float) -> None:
    """Raise ValueError unless dt <= DT_CAP * eps^2, to a relative 1e-9."""
    cap = DT_CAP * eps_squared(epsilon)
    if dt > cap * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:g} violates the step rule dt <= eps^2/2 "
                         f"(eps = {epsilon:g} gives cap {cap:g})")


def check_dt_scale(dt_scale: float) -> None:
    """Raise ValueError unless steps of dt_scale * eps^2 keep the step rule at every eps."""
    if not 0.0 < dt_scale <= DT_CAP * (1.0 + 1e-9):
        raise ValueError(f"dt_scale = {dt_scale:g} violates the step rule dt <= eps^2/2")


def transport_phases(grid: TorusGrid, quad: VelocityQuadrature, tau: float) -> np.ndarray:
    """Spectral multipliers shifting node k by tau * a_k, shape (n_v, n_x // 2 + 1)."""
    freqs = np.fft.rfftfreq(grid.n_x, d=grid.spacing)
    return np.exp(-2j * np.pi * tau * np.outer(quad.speeds, freqs))


@functools.lru_cache(maxsize=16)
def _energy_weights(grid: TorusGrid, quad: VelocityQuadrature) -> np.ndarray:
    """Flattened c_kj with ||f||^2 = sum_kj c_kj |f_hat_kj|^2 over the rfft
    modes j: (w_k / F_k) (dx / n_x) m_j, with the Parseval multiplicities m_j
    of ``fourier.rfft_multiplicities``."""
    parseval = fourier.rfft_multiplicities(grid.n_x) * (grid.cell_volume / grid.n_x)
    weights = np.outer(quad.weights / quad.equilibrium, parseval).ravel()
    weights.flags.writeable = False  # shared by every caller of the cache
    return weights


def spectral_energy(grid: TorusGrid, quad: VelocityQuadrature, f_hat: np.ndarray) -> np.ndarray:
    """Squared weighted norm of each field from its rfft along x, shape
    (..., n_v, n_x // 2 + 1), by Parseval; the Nyquist coefficient of an even
    n_x must be real, as it is for the rfft of a real field."""
    weights = _energy_weights(grid, quad)
    power = f_hat.real**2 + f_hat.imag**2
    # one dot product per row: a product over the sample axis blocks sums by batch
    return (power.reshape(power.shape[:-2] + (1, weights.size)) @ weights)[..., 0]


def _exponent(model: NoiseModel, occupations: np.ndarray, epsilon: float) -> np.ndarray:
    """(1/eps) int m(s, x) ds, shape (..., n_x), per window of ``occupations``."""
    # one vector-matrix product per window, so a row's bits do not depend on
    # its batch (a batched matrix product blocks its sums differently)
    return (occupations[..., None, :] @ model.states)[..., 0, :] / epsilon


def noise_factor(model: NoiseModel, occupations: np.ndarray, epsilon: float) -> np.ndarray:
    """exp((1/eps) int m(s, x) ds) per window, exact for the sampled chain.

    ``occupations``, shape (rows, ..., n_states), holds each sample's time in
    every chain state over each of its windows; the result has shape
    (rows, ..., n_x).  It never raises: a window with an exponent above
    EXPONENT_LIMIT comes back all NaN, without an overflow warning.
    """
    exponent = _exponent(model, occupations, epsilon)
    over = np.abs(exponent).max(axis=-1) > EXPONENT_LIMIT
    if over.any():
        exponent[over] = np.nan
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
        if self.dt is None:
            n = step_count(self.t_final, DT_CAP * eps_squared(self.epsilon))
            object.__setattr__(self, "dt", self.t_final / n)
        else:
            check_step(self.epsilon, self.dt)
            check_whole_steps(self.t_final, self.dt)
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


class KineticStepper:
    """Stepper for a batch of samples of one configuration, on the spectral
    state: row b of the state, shape (B, n_v, n_x // 2 + 1), is the rfft
    along x of sample b's field.

    It caches the transport phases of a half step and, with noise on, the
    occupation times of both half steps of every step of each sample's path,
    taken in one ``occupation_table`` call for the batch.
    """

    def __init__(self, config: KineticConfig, paths: Sequence[NoisePath | None]):
        self.config = config
        self.half_phases = transport_phases(config.grid, config.quad, config.dt / (2.0 * config.epsilon))
        self.occupations = None
        if config.noise is None:
            return
        half = 0.5 * config.dt
        starts = np.arange(config.n_steps) * config.dt
        mids = starts + half
        windows = np.stack([starts, mids], axis=-1), np.stack([mids, mids + half], axis=-1)
        # (n_steps, B, 2 halves, n_states), contiguous
        self.occupations = np.ascontiguousarray(occupation_table(paths, *windows).swapaxes(0, 1))

    def step(self, f: np.ndarray, k: int) -> np.ndarray:
        """One splitting step of every row from k dt to (k + 1) dt.

        Takes and returns the spectral state; row b follows path b.  It
        never raises: a row whose noise exponent exceeds EXPONENT_LIMIT in a
        half step turns NaN.
        """
        cfg = self.config
        g = np.fft.irfft(f * self.half_phases, n=cfg.grid.n_x)
        if self.occupations is not None:
            factors = noise_factor(cfg.noise, self.occupations[k], cfg.epsilon)
            g *= factors[:, None, 0]
        g = relax_exact(cfg.quad, cfg.opacity, g, cfg.dt / cfg.epsilon**2)
        if self.occupations is not None:
            g *= factors[:, None, 1]
        f = np.fft.rfft(g)
        f *= self.half_phases
        if cfg.grid.n_x % 2 == 0:
            f.imag[..., -1] = 0.0
        return f


def _strang(
    config: KineticConfig,
    f0: np.ndarray,
    paths: Sequence[NoisePath | None],
    n_steps: int | None = None,
    first_sample: int | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``noise.step_blocks`` of the steps k = 0..n_steps (default: the run),
    yielding (k, f, energy) per block: the spectral states (K, B, n_v,
    n_x // 2 + 1) of rows that start from the field f0 (n_v, n_x) and follow
    one path each, and their squared weighted norms (K, B).  A row fails at
    a non-finite energy, named as a noise exponent when one broke the limit.
    """
    n_steps = config.n_steps if n_steps is None else n_steps
    stepper = KineticStepper(config, paths)
    # C order: a row's matrix-vector products must not see the batch
    f = np.repeat(np.fft.rfft(np.asarray(f0, dtype=float))[None], len(paths), axis=0)

    def check(f: np.ndarray):
        energy = spectral_energy(config.grid, config.quad, f)
        return energy, ~np.isfinite(energy)

    def describe(k: int, row: int, f: np.ndarray) -> str:
        if k and stepper.occupations is not None:
            exponent = _exponent(config.noise, stepper.occupations[k - 1, row], config.epsilon)
            over = [peak for peak in np.abs(exponent).max(axis=-1) if peak > EXPONENT_LIMIT]
            if over:  # the step's first half window over the limit
                return (f"noise exponent {over[0]:.2f} exceeds {EXPONENT_LIMIT}; "
                        "noise amplitude / epsilon too large for this dt")
        return f"kinetic field lost finiteness at step {k} (t = {k * config.dt:g})"

    return step_blocks(stepper.step, f, n_steps, first_sample, check, describe)


def _trajectories(
    config: KineticConfig,
    rho0: np.ndarray,
    paths: Sequence[NoisePath | None],
    first_sample: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Run one sample per path from rho0(x) F(v): ``noise.record_blocks``
    with the series mass, energy and defect, one pass per block each."""
    grid, quad = config.grid, config.quad
    f0 = equilibrium_field(quad, np.asarray(rho0, dtype=float))

    def measure(f: np.ndarray, at: np.ndarray):
        rho = density(quad, f)
        defect_sq = spectral_energy(grid, quad, equilibrium_field(quad, rho) - f)
        return (np.fft.irfft(rho[at], n=grid.n_x), grid.cell_volume * rho[..., 0].real,
                np.sqrt(np.maximum(defect_sq, 0.0)) / config.epsilon)

    blocks = _strang(config, f0, paths, first_sample=first_sample)
    return record_blocks(blocks, config.n_steps, config.snapshot_stride, config.dt, measure)


def run_kinetic(
    config: KineticConfig,
    rho0: np.ndarray,
    rng: np.random.Generator | None = None,
) -> KineticTrajectory:
    """Run from the well-prepared state rho0(x) F(v) and record diagnostics.

    With noise on, a path is sampled from ``rng``.  The run is the
    one-sample case of the batched loop: it aborts with
    ``FloatingPointError`` at the first step whose field is not finite,
    naming the noise exponent when one above EXPONENT_LIMIT made it so.
    """
    path = None
    if config.noise is not None:
        if rng is None:
            raise ValueError("pass rng when noise is on")
        path = sample_path(config.noise, config.epsilon, config.t_final, rng)
    times, snaps, step_times, *series = _trajectories(config, rho0, [path])
    return KineticTrajectory(config, times, snaps[0], step_times, *(values[0] for values in series))


def _floats_per_sample(config: KineticConfig) -> int:
    """Floats one sample of a chunk holds: its field and the temporaries of
    a step (16 fields' worth), its half-step occupation table and its
    per-step diagnostics."""
    return 16 * config.grid.n_x * config.quad.n_v + config.n_steps * (2 * config.noise.n_states + 3)


def _sample_chunks(config: KineticConfig, n_samples: int, seed) -> Iterator[tuple[int, list]]:
    """Yield (first sample, paths) for the chunks of ``noise.sample_chunks``.

    Sample k draws its path from ``sample_rng(seed, k)``, as a lone run of
    sample k does.
    """
    def draw(k: int) -> NoisePath:
        return sample_path(config.noise, config.epsilon, config.t_final, sample_rng(seed, k))

    return sample_chunks(n_samples, _floats_per_sample(config), draw)
