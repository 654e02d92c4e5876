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
trapezoid error.  Since the relaxation terms vanish and the correctors are
density functionals, L_eps phi_eps and the carre du champ are linear
functionals of f (Gamma up to its squared jumps), which ``GeneratorEvaluator``
applies to the kinetic loop's spectral state directly: the window transforms
back only the densities at its two ends.

The correctors solve the chain's Poisson equations, so this layer needs a
noise model: ``GeneratorEvaluator`` and ``martingale_residual`` raise
ValueError without the statistics of the configuration's noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .kinetic import KineticConfig, _sample_chunks, _strang
from .model import TorusGrid, density, equilibrium_field, relaxation_operator
from .noise import NoiseStatistics, _bordered_solve, _locate, occupation_table


def _rows(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for every row of x (..., n): one matrix-vector product per
    row, so a row's bits do not depend on its batch (a batched matrix
    product blocks its sums differently)."""
    return (matrix @ x[..., None])[..., 0]


def _real_view(f_hat: np.ndarray) -> np.ndarray:
    """Spectral states (..., n_v, n_k) as real rows (..., 2 n_v n_k), with the
    real and imaginary part of each coefficient side by side."""
    return f_hat.reshape(f_hat.shape[:-2] + (-1,)).view(float)


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

    def resolved(self, n_x: int) -> bool:
        """Whether n_x grid points resolve the mode without aliasing."""
        return self.frequency < n_x / 2

    def profile(self, grid: TorusGrid) -> np.ndarray:
        if not self.resolved(grid.n_x):
            raise ValueError(f"mode {self.frequency} is not resolved on n_x = {grid.n_x}")
        if self.frequency == 0:
            return np.ones(grid.shape)
        angle = 2.0 * np.pi * self.frequency * grid.axis_points()
        wave = np.cos(angle) if self.parity == "cos" else np.sin(angle)
        return math.sqrt(2.0) * wave

    def apply(self, grid: TorusGrid, rho: np.ndarray):
        """The cylinder functional int rho p dx of each density of rho (..., n_x)."""
        return grid.cell_volume * np.sum(rho * self.profile(grid), axis=-1)

    @property
    def label(self) -> str:
        return f"{self.parity}{self.frequency}"


def parse_mode(token: str) -> FourierMode:
    token = token.strip().lower()
    for parity in ("cos", "sin"):
        if token.startswith(parity):
            return FourierMode(int(token[len(parity):]), parity)
    raise ValueError(f"cannot parse mode token {token!r}; use e.g. 'cos1' or 'sin2'")


def build_correctors(stats: NoiseStatistics, mode: FourierMode) -> tuple[np.ndarray, np.ndarray]:
    """Density profiles (first, second), each (n_states, n_x), of the mode's
    correctors: phi_1(f, n_i) = int <f> first[i] dx, and phi_2 with second."""
    p = mode.profile(stats.model.grid)
    psi = stats.poisson_profiles
    first = -psi * p
    c = -stats.model.states * psi * p
    nu = stats.model.stationary
    centered = c - nu @ c
    # measured against c: for the telegraph chain c is the same in every
    # state and its centred value is pure rounding noise
    scale = max(np.max(np.abs(c)), 1.0)
    if np.max(np.abs(nu @ centered)) > 1e-12 * scale:
        raise ValueError("second-corrector forcing is not centered under the stationary law")
    second = -_bordered_solve(stats.model.generator, nu, centered, scale)
    return first, second


class GeneratorEvaluator:
    """Per-state evaluation of L_eps phi_eps and Gamma along one configuration.

    ``per_state`` and ``terms`` break L_eps phi_eps into its terms on
    physical fields, for the identity battery.  ``totals`` and ``gamma``
    serve the martingale window on the kinetic loop's spectral state f_hat,
    the rfft along x of f, shape (..., n_v, n_x // 2 + 1).  Both are linear
    in f_hat, bar Gamma's squared jumps: phi_1 and phi_2 are density
    functionals, and the only terms that are not linear in f, the 1/eps^2
    relaxation terms (sigma(<f>) L f, D phi_eps), vanish identically, since
    <L f> = (<F> - 1) rho and <F> = 1 (criterion 5 checks that ``per_state``
    finds them zero).  So ``__init__`` builds real "spectral rows": for a real
    profile a, cell sum_x a rho = sum_j Re(c_j rho_hat_j) with
    c_j = (cell / n_x) m_j conj(a_hat_j) and the Parseval multiplicities m_j,
    and with the velocity weights and the i kappa of the flux divergence
    folded in, one row per chain state acts on f_hat viewed as real numbers.
    """

    def __init__(self, config: KineticConfig, stats: NoiseStatistics, mode: FourierMode):
        if not isinstance(stats, NoiseStatistics) or stats.model is not config.noise:
            raise ValueError("need the noise statistics of the configuration's noise model")
        self.config = config
        grid, quad = config.grid, config.quad
        eps = config.epsilon
        self.p = mode.profile(grid)
        self.flux_weights = quad.weights * quad.speeds
        self.freq = 2j * np.pi * np.fft.rfftfreq(grid.n_x, d=grid.spacing)
        self.cell = grid.cell_volume
        states = stats.model.states
        self.generator = stats.model.generator
        w, u = build_correctors(stats, mode)
        self.w_profiles, self.u_profiles = w, u
        self.noise_base = states * self.p  # rows n_i p
        self.noise_w = states * w  # rows n_i W_i
        self.noise_u = states * u
        # phi_eps / (eps cell) per state is the density functional of `scaled`
        scaled = self.p / eps + w + eps * u
        # transport: -(1/eps)(A f, D phi_eps); noise: (1/eps)(f n_i, D phi_eps);
        # chain: (1/eps^2)(M phi_eps), whose base part M phi vanishes
        self.total_rows = self._spectral_rows(states * scaled + self.generator @ (w / eps + u),
                                              -scaled)
        self.corrector_rows = self._spectral_rows(w + eps * u, np.zeros_like(w))

    def _spectral_rows(self, rho_profiles: np.ndarray, div_profiles: np.ndarray) -> np.ndarray:
        """Real rows R, one per profile pair (a_i, b_i), with
        R @ ``_real_view(f_hat)`` = cell sum_x (a_i rho + b_i div <a f>)."""
        quad, n_x = self.config.quad, self.config.grid.n_x
        parseval = (self.cell / n_x) * fourier.rfft_multiplicities(n_x)
        on_rho = parseval * np.conj(np.fft.rfft(rho_profiles))
        on_div = parseval * np.conj(np.fft.rfft(div_profiles)) * self.freq
        c = (quad.weights[:, None] * on_rho[:, None, :]
             + self.flux_weights[:, None] * on_div[:, None, :])
        # Re(c z) = Re c Re z - Im c Im z, on the interleaved (Re z, Im z)
        return np.stack([c.real, -c.imag], axis=-1).reshape(len(c), -1)

    def fields(self, f: np.ndarray) -> np.ndarray:
        """The density, the flux divergence div <a f> and the relaxation
        average <L f> of fields f (..., n_v, n_x), stacked as (..., 3, n_x)."""
        quad = self.config.quad
        flux = self.flux_weights @ f
        div_flux = np.fft.irfft(self.freq * np.fft.rfft(flux), n=self.config.grid.n_x)
        return np.stack([density(quad, f), div_flux,
                         density(quad, relaxation_operator(quad, f))], axis=-2)

    def per_state(self, f: np.ndarray) -> dict[str, np.ndarray]:
        """All generator terms for f of shape (..., n_v, n_x); see ``terms``."""
        return self.terms(self.fields(f))

    def terms(self, fields: np.ndarray) -> dict[str, np.ndarray]:
        """All generator terms of the ``fields`` of f, each of shape
        (..., n_states).

        Each term already carries its power of eps, so their sum is
        L_eps phi_eps.  transport_* are -(1/eps)(A f, D phi_eps), relax_*
        (1/eps^2)(sigma L f, D phi_eps), noise_* (1/eps)(f n, D phi_eps),
        chain_* (1/eps^2)(M phi_eps); *_singular pairs with the base mode
        p F, *_first with eps phi_1 and *_second with eps^2 phi_2."""
        cfg = self.config
        eps = cfg.epsilon
        rho, div_flux, relax_avg = fields[..., 0, :], fields[..., 1, :], fields[..., 2, :]
        sig_relax = cfg.opacity(rho) * relax_avg
        t_sing = -self.cell * _rows(self.p[None], div_flux) / eps
        r_sing = self.cell * _rows(self.p[None], sig_relax) / eps**2
        first_vals = self.cell * _rows(self.w_profiles, rho)
        second_vals = self.cell * _rows(self.u_profiles, rho)
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

    def totals(self, f_hat: np.ndarray) -> np.ndarray:
        """L_eps phi_eps per state at the spectral state f_hat (..., n_v,
        n_x // 2 + 1): the sum of the ``terms``, without the relaxation terms,
        which vanish identically (see the class docstring)."""
        return _rows(self.total_rows, _real_view(f_hat))

    def gamma(self, f_hat: np.ndarray) -> np.ndarray:
        """Carre du champ of phi_1 + eps phi_2 under the chain, per state, at
        the spectral state f_hat (..., n_v, n_x // 2 + 1).

        This is the quadratic-variation density of the martingale part of
        phi_eps (the 1/eps^2 jump rates cancel the eps^2 scale of the
        corrector jumps)."""
        v = _rows(self.corrector_rows, _real_view(f_hat))
        jumps = (v[..., None, :] - v[..., :, None]) ** 2
        return np.einsum("il,...il->...i", self.generator, jumps)

    def perturbed(self, rho: np.ndarray) -> np.ndarray:
        """phi + eps phi_1 + eps^2 phi_2 for every chain state at the density
        rho (..., n_x)."""
        eps = self.config.epsilon
        base = self.cell * _rows(self.p[None], rho)
        first = self.cell * _rows(self.w_profiles, rho)
        second = self.cell * _rows(self.u_profiles, rho)
        return base + eps * first + eps**2 * second


def generator_terms(
    config: KineticConfig,
    stats: NoiseStatistics,
    mode: FourierMode,
    f: np.ndarray,
) -> dict[str, np.ndarray]:
    """Every generator term of L_eps phi_eps at f, per chain state; see
    ``GeneratorEvaluator.per_state``."""
    return GeneratorEvaluator(config, stats, mode).per_state(f)


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
    """Row b of per-state values at the state of path b at time t."""
    _, _, states, index = _locate(paths, np.array([t]))
    return values[np.arange(len(paths)), states[index[:, 0]]]


def martingale_residual(
    config: KineticConfig,
    stats: NoiseStatistics,
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
    integrated carre du champ for the quadratic-variation check.  Each
    window step evaluates L_eps phi_eps and Gamma on the spectral state of
    the chunk's rows (``GeneratorEvaluator.totals`` and ``gamma``, one
    matrix-vector product per row each); the densities are transformed back
    only at the window's ends, for the weight and the two values of phi_eps.
    """
    dt = config.dt
    k_start = round(t_start / dt)
    k_end = round(t_end / dt)
    if not 0 <= k_start < k_end <= config.n_steps:
        raise ValueError("window must satisfy 0 <= t_start < t_end <= t_final")
    for name, t, k in (("t_start", t_start, k_start), ("t_end", t_end, k_end)):
        if abs(k * dt - t) > 1e-9 * max(t, dt):
            raise ValueError(f"{name} = {t} is not a multiple of dt = {dt}")
    evaluator = GeneratorEvaluator(config, stats, mode)
    chunks = _sample_chunks(config, n_samples, base_seed)
    grid, quad = config.grid, config.quad
    f0 = equilibrium_field(quad, np.asarray(rho0, dtype=float))
    weighted = np.empty(n_samples)
    squares = np.empty(n_samples)
    qvs = np.empty(n_samples)
    # right ends of the trapezoid intervals [t - dt, t] of the window
    ends = np.arange(k_start + 1, k_end + 1) * dt
    for first, paths in chunks:
        rows = len(paths)
        # (window steps, B, n_states), contiguous
        occupations = np.ascontiguousarray(occupation_table(paths, ends - dt, ends).swapaxes(0, 1))
        integral = np.zeros(rows)
        qv = np.zeros(rows)
        for start, block, _ in _strang(config, f0, paths, k_end, first_sample=first):
            for k, f in enumerate(block, start):
                if k < k_start:
                    continue
                if k == k_start:
                    rho = np.fft.irfft(density(quad, f), n=grid.n_x)
                    # math.tanh, not np.tanh: the two differ in the last bit
                    weight = np.array([math.tanh(v) for v in mode.apply(grid, rho)])
                    start_value = _at_states(evaluator.perturbed(rho), paths, k * dt)
                g_now = evaluator.totals(f)
                gamma_now = evaluator.gamma(f)
                if k > k_start:
                    occ = occupations[k - k_start - 1, :, None, :]
                    integral += _rows(occ, g_prev + g_now)[:, 0] / 2.0
                    qv += _rows(occ, gamma_prev + gamma_now)[:, 0] / 2.0
                g_prev, gamma_prev = g_now, gamma_now
        # f is the state at k_end, the last one the loop yields
        rho = np.fft.irfft(density(quad, f), n=grid.n_x)
        residual = _at_states(evaluator.perturbed(rho), paths, t_end) - start_value - integral
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
