"""Perturbed test functions and the generator algebra of the scaled process.

For a normalized Fourier mode p(x) the cylinder functional phi(f) = int <f> p dx
is perturbed to phi_eps = phi + eps phi_1 + eps^2 phi_2 with

    phi_1(f, n_i) = -int <f> psi_i p dx,
    phi_2(f, n_i) =  int <f> u_i p-profile dx,   u = -Minv[c - nu.c],
                     c_i = -n_i psi_i p,

so that in the full generator

    L_eps phi_eps = -(1/eps)(A f, D phi_eps)
                    + (1/eps^2)(sigma(<f>) L f, D phi_eps)
                    + (1/eps)(f n_i, D phi_eps) + (1/eps^2) (M phi_eps)_i

the 1/eps^2 relaxation term vanishes on density functionals, the 1/eps noise
term cancels against M phi_1, and the phi_2 chain term replaces the
state-dependent drift by the effective drift h_eff = k(x,x)/2.  What remains
is the limit generator plus a remainder exactly linear in eps.

``martingale_residual`` accumulates Delta phi_eps - int L_eps phi_eps along
simulated trajectories; the chain dependence of the time integral is handled
with exact per-state occupation times, so only the smooth part is subject to
trapezoid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinetic import KineticConfig, _sample_chunks, _strang
from .model import TorusGrid, density, equilibrium_field
from .noise import NoiseStatistics, solve_poisson


def _rows(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for every row of x (..., n): one matrix-vector product per
    row, so a row's bits do not depend on its batch (a batched matrix
    product blocks its sums differently)."""
    return (matrix @ x[..., None])[..., 0]


@dataclass(frozen=True)
class FourierMode:
    """Normalized real Fourier mode, sqrt(2) cos(2 pi k x) or the sine twin.

    frequency 0 with parity "cos" is the constant mode p = 1.
    """

    frequency: int
    parity: str = "cos"

    def __post_init__(self) -> None:
        if self.parity not in ("cos", "sin"):
            raise ValueError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        if self.frequency < 0 or (self.parity == "sin" and self.frequency == 0):
            raise ValueError("invalid mode index")

    def profile(self, grid: TorusGrid) -> np.ndarray:
        if self.frequency >= grid.n_x / 2:
            raise ValueError(f"mode {self.frequency} is not resolved on n_x = {grid.n_x}")
        if self.frequency == 0:
            return np.ones(grid.shape)
        angle = 2.0 * np.pi * self.frequency * grid.axis_points()
        wave = np.cos(angle) if self.parity == "cos" else np.sin(angle)
        return math.sqrt(2.0) * wave

    def apply(self, grid: TorusGrid, rho: np.ndarray) -> float:
        """The cylinder functional int rho p dx."""
        return float(grid.cell_volume * np.sum(rho * self.profile(grid)))

    @property
    def label(self) -> str:
        return f"{self.parity}{self.frequency}"


def parse_mode(token: str) -> FourierMode:
    token = token.strip().lower()
    for parity in ("cos", "sin"):
        if token.startswith(parity):
            return FourierMode(int(token[len(parity):]), parity)
    raise ValueError(f"cannot parse mode token {token!r}; use e.g. 'cos1' or 'sin2'")


@dataclass(frozen=True, eq=False)
class CorrectorSet:
    """Density profiles of the first and second correctors for one mode.

    phi_1(f, n_i) = int <f> first_profiles[i] dx and likewise for phi_2, so
    both correctors are linear functionals of the density.
    """

    stats: NoiseStatistics
    first_profiles: np.ndarray  # (n_states, grid.size)
    second_profiles: np.ndarray

    def first_values(self, rho: np.ndarray) -> np.ndarray:
        """phi_1 for every chain state, shape (..., n_states)."""
        return self.stats.model.grid.cell_volume * _rows(self.first_profiles, rho)

    def second_values(self, rho: np.ndarray) -> np.ndarray:
        """phi_2 for every chain state, shape (..., n_states)."""
        return self.stats.model.grid.cell_volume * _rows(self.second_profiles, rho)


def build_correctors(stats: NoiseStatistics, mode: FourierMode) -> CorrectorSet:
    grid = stats.model.grid
    p = mode.profile(grid)
    psi = stats.poisson_profiles.reshape(stats.model.n_states, -1)
    states = stats.model.flat_states()
    first = -psi * p
    c = -states * psi * p
    centered = c - stats.model.stationary @ c
    second = -solve_poisson(stats.model.generator, stats.model.stationary, centered)
    return CorrectorSet(stats, first, second)


@dataclass(frozen=True)
class GeneratorTerms:
    """Term-by-term evaluation of L_eps phi_eps at one state.

    Each field already carries its power of eps, so ``total`` is their sum.
    ``eq2_residual`` is the unscaled 1/eps bracket (noise against the base
    mode, the phi_1 chain term and the relaxation leakage), which the
    Poisson equation for phi_1 cancels.
    """

    eps: float
    transport_singular: float  # -(1/eps) (A f, p F)
    transport_first: float  # -(A f, Dphi_1)
    transport_second: float  # -eps (A f, Dphi_2)
    relax_singular: float  # (1/eps^2) (sigma L f, p F): zero on density functionals
    relax_first: float  # (1/eps) (sigma L f, Dphi_1)
    relax_second: float  # (sigma L f, Dphi_2)
    noise_singular: float  # (1/eps) (f n, p F)
    noise_first: float  # (f n, Dphi_1)
    noise_second: float  # eps (f n, Dphi_2)
    chain_first: float  # (1/eps) (M phi_1)_i
    chain_second: float  # (M phi_2)_i

    @property
    def total(self) -> float:
        return (
            self.transport_singular
            + self.transport_first
            + self.transport_second
            + self.relax_singular
            + self.relax_first
            + self.relax_second
            + self.noise_singular
            + self.noise_first
            + self.noise_second
            + self.chain_first
            + self.chain_second
        )

    @property
    def eq2_residual(self) -> float:
        return self.eps * (self.noise_singular + self.chain_first + self.relax_first)

    @property
    def drift_term(self) -> float:
        """State-dependent drift pieces; equals int rho h_eff p dx exactly."""
        return self.noise_first + self.chain_second

    @property
    def order_eps(self) -> float:
        return self.transport_second + self.noise_second


class GeneratorEvaluator:
    """Fast per-state evaluation of L_eps phi_eps along one configuration."""

    def __init__(self, config: KineticConfig, stats: NoiseStatistics | None, mode: FourierMode):
        if (stats is None) != (config.noise is None):
            raise ValueError("noise statistics must match the configuration")
        if stats is not None and stats.model is not config.noise:
            raise ValueError("noise statistics belong to a different model")
        self.config = config
        grid, quad = config.grid, config.quad
        self.p = mode.profile(grid)
        self.flux_weights = quad.weights * quad.speeds
        self.freq = 2j * np.pi * np.fft.rfftfreq(grid.n_x, d=grid.spacing)
        self.cell = grid.cell_volume
        if stats is None:
            self.correctors = None
            return
        self.correctors = build_correctors(stats, mode)
        self.states = stats.model.flat_states()
        self.generator = stats.model.generator
        w, u = self.correctors.first_profiles, self.correctors.second_profiles
        self.w_profiles = w
        self.u_profiles = u
        self.noise_base = self.states * self.p  # rows n_i p
        self.noise_w = self.states * w  # rows n_i W_i
        self.noise_u = self.states * u

    def _div_flux(self, f: np.ndarray) -> np.ndarray:
        flux = f @ self.flux_weights
        return np.fft.irfft(self.freq * np.fft.rfft(flux), n=self.config.grid.n_x)

    def per_state(self, f: np.ndarray) -> dict[str, np.ndarray]:
        """All generator terms for f of shape (..., n_x, n_v), each of shape
        (..., n_states) (n_states = 1 if no noise)."""
        cfg = self.config
        eps = cfg.epsilon
        quad = cfg.quad
        rho = density(quad, f)
        div_flux = self._div_flux(f)
        relax_avg = density(quad, equilibrium_field(quad, rho) - f)
        sig_relax = cfg.opacity(rho) * relax_avg
        t_sing = -self.cell * _rows(self.p[None], div_flux) / eps
        r_sing = self.cell * _rows(self.p[None], sig_relax) / eps**2
        if self.correctors is None:
            zero = np.zeros(t_sing.shape)
            return {
                "transport_singular": t_sing,
                "transport_first": zero,
                "transport_second": zero,
                "relax_singular": r_sing,
                "relax_first": zero,
                "relax_second": zero,
                "noise_singular": zero,
                "noise_first": zero,
                "noise_second": zero,
                "chain_first": zero,
                "chain_second": zero,
            }
        first_vals = self.correctors.first_values(rho)
        second_vals = self.correctors.second_values(rho)
        return {
            "transport_singular": np.broadcast_to(t_sing, first_vals.shape),
            "transport_first": -self.cell * _rows(self.w_profiles, div_flux),
            "transport_second": -eps * self.cell * _rows(self.u_profiles, div_flux),
            "relax_singular": np.broadcast_to(r_sing, first_vals.shape),
            "relax_first": self.cell * _rows(self.w_profiles, sig_relax) / eps,
            "relax_second": self.cell * _rows(self.u_profiles, sig_relax),
            "noise_singular": self.cell * _rows(self.noise_base, rho) / eps,
            "noise_first": self.cell * _rows(self.noise_w, rho),
            "noise_second": eps * self.cell * _rows(self.noise_u, rho),
            "chain_first": _rows(self.generator, first_vals) / eps,
            "chain_second": _rows(self.generator, second_vals),
        }

    def totals(self, f: np.ndarray) -> np.ndarray:
        terms = self.per_state(f)
        return sum(terms.values())

    def gamma(self, rho: np.ndarray) -> np.ndarray:
        """Carre du champ of phi_1 + eps phi_2 under the chain, per state.

        This is the quadratic-variation density of the martingale part of
        phi_eps (the 1/eps^2 jump rates cancel the eps^2 scale of the
        corrector jumps).  ``rho`` has shape (..., n_x)."""
        if self.correctors is None:
            return np.zeros(rho.shape[:-1] + (1,))
        v = self.correctors.first_values(rho)
        v = v + self.config.epsilon * self.correctors.second_values(rho)
        jumps = (v[..., None, :] - v[..., :, None]) ** 2
        return np.einsum("il,...il->...i", self.generator, jumps)

    def perturbed(self, f: np.ndarray) -> np.ndarray:
        """phi + eps phi_1 + eps^2 phi_2 for every chain state."""
        rho = density(self.config.quad, f)
        base = self.cell * _rows(self.p[None], rho)
        if self.correctors is None:
            return base
        eps = self.config.epsilon
        return (base + eps * self.correctors.first_values(rho)
                + eps**2 * self.correctors.second_values(rho))


def generator_terms(
    config: KineticConfig,
    stats: NoiseStatistics | None,
    mode: FourierMode,
    f: np.ndarray,
    state: int = 0,
) -> GeneratorTerms:
    """Evaluate every generator term at one chain state."""
    terms = GeneratorEvaluator(config, stats, mode).per_state(f)
    return GeneratorTerms(config.epsilon, **{k: float(v[state]) for k, v in terms.items()})


def limit_generator(
    grid: TorusGrid,
    opacity,
    diffusion: float,
    stats: NoiseStatistics | None,
    rho: np.ndarray,
    mode: FourierMode,
    drift: str = "effective",
) -> float:
    """Generator of the limit equation on the cylinder functional of a mode."""
    from .limit import rosseland_rhs

    p = mode.profile(grid)
    value = grid.cell_volume * np.sum(rosseland_rhs(grid, opacity, diffusion, rho) * p)
    if stats is not None:
        value += grid.cell_volume * np.sum(stats.drift(drift) * rho * p)
    return float(value)


@dataclass(frozen=True)
class MartingaleCheck:
    """Ensemble statistics of the martingale residual of phi_eps."""

    n_samples: int
    weighted_mean: float  # mean of (Delta phi_eps - int L_eps phi_eps) Psi(rho_s)
    weighted_sem: float
    qv_gap_mean: float  # mean of residual^2 - int Gamma
    qv_gap_sem: float
    qv_mean: float

    def mean_within(self, n_sigma: float) -> bool:
        return abs(self.weighted_mean) <= n_sigma * self.weighted_sem

    def variance_within(self, n_sigma: float) -> bool:
        return abs(self.qv_gap_mean) <= n_sigma * self.qv_gap_sem


def _at_states(values: np.ndarray, paths: list, t: float) -> np.ndarray:
    """Row b of per-state values at the state of path b at time t (state 0
    with noise off)."""
    states = [0 if path is None else path.state_index_at(t) for path in paths[:len(values)]]
    return values[np.arange(len(states)), states]


def martingale_residual(
    config: KineticConfig,
    stats: NoiseStatistics | None,
    mode: FourierMode,
    rho0: np.ndarray,
    t_start: float,
    t_end: float,
    n_samples: int,
    base_seed: int,
) -> MartingaleCheck:
    """Sample Delta phi_eps - int_s^t L_eps phi_eps over kinetic trajectories.

    The time integral uses exact per-state occupation times of the chain and
    the trapezoid rule for the smooth field dependence.  The weight is
    Psi(rho_s) = tanh(int rho_s p dx).  Residual squares are paired with the
    integrated carre du champ for the quadratic-variation check.
    """
    dt = config.dt
    k_start = round(t_start / dt)
    k_end = round(t_end / dt)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if not 0 <= k_start < k_end <= config.n_steps:
        raise ValueError("window must satisfy 0 <= t_start < t_end <= t_final")
    for name, t, k in (("t_start", t_start, k_start), ("t_end", t_end, k_end)):
        if abs(k * dt - t) > 1e-9 * max(t, dt):
            raise ValueError(f"{name} = {t} is not a multiple of dt = {dt}")
    evaluator = GeneratorEvaluator(config, stats, mode)
    grid, quad = config.grid, config.quad
    f0 = np.multiply.outer(np.asarray(rho0, dtype=float), quad.equilibrium)
    noisy = config.noise is not None
    weighted = np.empty(n_samples)
    squares = np.empty(n_samples)
    qvs = np.empty(n_samples)
    # right ends of the trapezoid intervals [t - dt, t] of the window
    ends = np.arange(k_start + 1, k_end + 1) * dt
    for first, paths in _sample_chunks(config, n_samples, base_seed):
        rows = len(paths)
        if noisy:
            occupations = np.stack([path.occupations(ends - dt, ends) for path in paths], axis=1)
        else:
            occupations = np.full((len(ends), rows, 1), dt)
        integral = np.zeros(rows)
        qv = np.zeros(rows)
        for k, t, f, rho, _ in _strang(config, f0, paths, k_end, first_sample=first):
            live = len(f)
            if k == k_start:
                weight = np.array([math.tanh(mode.apply(grid, rho_s)) for rho_s in rho])
                start_value = _at_states(evaluator.perturbed(f), paths, t)
            if k >= k_start:
                g_now = evaluator.totals(f)
                gamma_now = evaluator.gamma(rho)
                if k > k_start:
                    occ = occupations[k - k_start - 1, :live, None, :]
                    integral[:live] += _rows(occ, g_prev[:live] + g_now)[:, 0] / 2.0
                    qv[:live] += _rows(occ, gamma_prev[:live] + gamma_now)[:, 0] / 2.0
                g_prev, gamma_prev = g_now, gamma_now
        residual = _at_states(evaluator.perturbed(f), paths, t_end) - start_value - integral
        weighted[first:first + rows] = residual * weight
        squares[first:first + rows] = residual**2
        qvs[first:first + rows] = qv
    gaps = squares - qvs

    def sem(x):
        return float(x.std(ddof=1) / math.sqrt(len(x)))

    return MartingaleCheck(
        n_samples,
        float(weighted.mean()),
        sem(weighted),
        float(gaps.mean()),
        sem(gaps),
        float(qvs.mean()),
    )
