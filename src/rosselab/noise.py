"""Finite-state Markov forcing of the relaxation rate.

A noise model is an ergodic continuous-time Markov chain on a finite set of
smooth spatial profiles n_i(x), centered under its stationary law nu.  The
module computes the chain statistics that drive the diffusion limit:

* psi_i = the centered solution of the Poisson problem  M psi = n,
* the drift fields  H(x) = sum_i nu_i n_i(x) psi_i(x)  and  h_eff = -H,
* the spatial covariance kernel
      k(x, y) = -sum_i nu_i [ n_i(y) psi_i(x) + n_i(x) psi_i(y) ],
* the eigendecomposition of the covariance operator with kernel k.

``sample_path`` draws exact trajectories of the accelerated chain (rates
divided by epsilon^2) with jump times stored in physical time, and
``sample_rng`` seeds the generator of one ensemble member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .model import TorusGrid

#: relative floor below which covariance eigenvalues are clipped to zero
EIG_CLIP = 1e-10
#: relative threshold for declaring the covariance kernel indefinite
EIG_NEGATIVE = 1e-8


def _check_generator(generator: np.ndarray) -> np.ndarray:
    m = np.asarray(generator, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("rate matrix must be square")
    if m.shape[0] < 2:
        raise ValueError("the chain needs at least 2 states")
    scale = max(np.max(np.abs(m)), 1.0)
    off = m - np.diag(np.diag(m))
    if np.min(off) < -1e-12 * scale:
        raise ValueError("off-diagonal rates must be nonnegative")
    if np.max(np.abs(m.sum(axis=1))) > 1e-12 * scale:
        raise ValueError("rate matrix rows must sum to zero")
    return m


def stationary_law(generator: np.ndarray) -> np.ndarray:
    """Stationary probability vector nu with nu M = 0.

    Raises if the null space of M is degenerate (chain not ergodic) or if
    the stationary law has zero mass on some state (transient states).
    """
    m = _check_generator(generator)
    _, svals, vt = np.linalg.svd(m.T)
    scale = max(svals[0], 1.0)
    if svals[-2] <= 1e-10 * scale:
        raise ValueError("rate matrix has a degenerate null space; chain is not ergodic")
    nu = vt[-1]
    nu = nu / nu.sum()
    if np.min(nu) <= 1e-12:
        raise ValueError("stationary law vanishes on some state; chain has transient states")
    return nu


def solve_poisson(generator: np.ndarray, stationary: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Solve M psi = values with nu . psi = 0, componentwise over trailing axes.

    ``values`` must be centered under the stationary law (sum_i nu_i values_i
    = 0); this is exactly the solvability condition for the singular system.
    """
    m = np.asarray(generator, dtype=float)
    nu = np.asarray(stationary, dtype=float)
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(vals.shape[0], -1)
    mean = nu @ flat
    scale = max(np.max(np.abs(flat)), 1.0)
    if np.max(np.abs(mean)) > 1e-12 * scale:
        raise ValueError("values are not centered under the stationary law")
    # Adding the rank-one term 1 (x) nu makes the system nonsingular without
    # changing the solution on the centered subspace.
    bordered = m + np.outer(np.ones(len(nu)), nu)
    psi = np.linalg.solve(bordered, flat - mean)
    psi -= np.outer(np.ones(len(nu)), nu @ psi)
    residual = np.max(np.abs(m @ psi - (flat - mean)))
    if residual > 1e-10 * scale:
        raise ValueError(f"Poisson solve residual {residual:.3e} too large")
    return psi.reshape(vals.shape)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Ergodic finite-state chain of centered spatial profiles."""

    grid: TorusGrid
    states: np.ndarray  # (n_states,) + grid.shape
    generator: np.ndarray  # (n_states, n_states) rate matrix
    stationary: np.ndarray  # (n_states,)
    sup_bound: float  # max over states of the W^{1,inf} norm of the profile

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def flat_states(self) -> np.ndarray:
        return self.states.reshape(self.n_states, -1)


def make_noise_model(
    grid: TorusGrid,
    states: np.ndarray,
    generator: np.ndarray,
    center: bool = True,
) -> NoiseModel:
    """Validate a chain of profiles and package it as a NoiseModel.

    With ``center=True`` the nu-average profile is subtracted from every
    state; otherwise profiles must already be centered.
    """
    states = np.asarray(states, dtype=float)
    if states.shape[1:] != grid.shape:
        raise ValueError(f"state profiles must have shape (n_states,) + {grid.shape}")
    nu = stationary_law(generator)
    if states.shape[0] != len(nu):
        raise ValueError("number of profiles must match the rate matrix size")
    flat = states.reshape(states.shape[0], -1)
    mean = nu @ flat
    if center:
        states = states - mean.reshape(grid.shape)
    elif np.max(np.abs(mean)) > 1e-12 * max(np.max(np.abs(flat)), 1.0):
        raise ValueError("profiles are not centered under the stationary law")
    bound = 0.0
    for profile in states:
        grad = fourier.gradient(grid, profile)
        bound = max(bound, float(np.max(np.abs(profile))), float(np.max(np.abs(grad))))
    return NoiseModel(grid, states, np.asarray(generator, dtype=float), nu, bound)


def telegraph_noise(grid: TorusGrid, profile: np.ndarray, rate: float) -> NoiseModel:
    """Two-state flip chain between +profile and -profile at the given rate."""
    if rate <= 0.0:
        raise ValueError("flip rate must be positive")
    states = np.stack([profile, -np.asarray(profile, dtype=float)])
    generator = rate * np.array([[-1.0, 1.0], [1.0, -1.0]])
    return make_noise_model(grid, states, generator, center=False)


def rotor_noise(grid: TorusGrid, amplitude: float, frequency: int, rate: float) -> NoiseModel:
    """Three-state cyclic chain of phase-shifted cosines.

    States are A cos(2 pi (k x + i/3)), i = 0, 1, 2, visited cyclically at
    the given rate; their uniform average vanishes identically.
    """
    if rate <= 0.0:
        raise ValueError("rotation rate must be positive")
    x = grid.axis_points()
    states = np.stack(
        [amplitude * np.cos(2.0 * np.pi * (frequency * x + i / 3.0)) for i in range(3)]
    )
    generator = rate * (np.roll(np.eye(3), 1, axis=1) - np.eye(3))
    return make_noise_model(grid, states, generator)


def cosine_profile(grid: TorusGrid, amplitude: float, frequency: int) -> np.ndarray:
    """A cos(2 pi k x) on the grid."""
    return amplitude * np.cos(2.0 * np.pi * frequency * grid.axis_points())


@dataclass(frozen=True, eq=False)
class NoiseStatistics:
    """Chain statistics entering the limit equation."""

    model: NoiseModel
    poisson_profiles: np.ndarray  # psi_i, same shape as model.states
    drift_paper: np.ndarray  # H(x) = sum_i nu_i n_i psi_i
    drift_effective: np.ndarray  # h_eff(x) = k(x, x) / 2 = -H(x)
    kernel: np.ndarray  # (grid.size, grid.size), symmetric PSD
    mode_weights: np.ndarray  # (rank,) positive eigenvalues, descending
    mode_profiles: np.ndarray  # (rank,) + grid.shape, L^2-orthonormal

    @property
    def rank(self) -> int:
        return self.mode_weights.shape[0]

    def drift(self, convention: str) -> np.ndarray:
        if convention == "paper":
            return self.drift_paper
        if convention == "effective":
            return self.drift_effective
        raise ValueError(f"unknown drift convention {convention!r}; use 'paper' or 'effective'")


def noise_statistics(model: NoiseModel) -> NoiseStatistics:
    """Poisson profiles, drift fields and covariance eigenmodes of a chain."""
    grid = model.grid
    psi = solve_poisson(model.generator, model.stationary, model.states)
    n_flat = model.flat_states()
    p_flat = psi.reshape(model.n_states, -1)
    drift_paper = np.einsum("i,ix,ix->x", model.stationary, n_flat, p_flat).reshape(grid.shape)
    half = p_flat.T @ (model.stationary[:, None] * n_flat)
    kernel = -(half + half.T)
    drift_effective = (0.5 * np.diag(kernel)).reshape(grid.shape)
    eigvals, eigvecs = np.linalg.eigh(kernel * grid.cell_volume)
    top = max(eigvals[-1], 0.0)
    scale = max(np.max(np.abs(eigvals)) if eigvals.size else 0.0, 1e-300)
    if eigvals[0] < -EIG_NEGATIVE * scale:
        raise ValueError("covariance kernel is not positive semidefinite")
    keep = np.flatnonzero(eigvals > EIG_CLIP * top)[::-1]
    weights = eigvals[keep]
    profiles = (eigvecs[:, keep].T / np.sqrt(grid.cell_volume)).reshape((-1,) + grid.shape)
    return NoiseStatistics(model, psi, drift_paper, drift_effective, kernel, weights, profiles)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One exact trajectory of the accelerated chain on [0, t_final].

    ``jump_times[k]`` is the entry time into ``state_indices[k]`` (physical
    time; the first entry is 0), so the path is right-continuous piecewise
    constant.
    """

    model: NoiseModel
    epsilon: float
    t_final: float
    jump_times: np.ndarray
    state_indices: np.ndarray

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times) - 1

    def state_index_at(self, t: float) -> int:
        k = int(np.searchsorted(self.jump_times, t, side="right")) - 1
        return int(self.state_indices[max(k, 0)])

    def occupations(self, t0, t1) -> np.ndarray:
        """Time spent in each state during [t0, t1], shape (..., n_states).

        ``t0`` and ``t1`` are one window or arrays of windows.  Each window
        is cut into its pieces between jumps and the pieces are added in
        time order, so a window gets the same bits alone as in an array.
        A NaN jump time makes the occupations of the windows it bounds NaN.
        """
        t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
        bad = (t0 < -1e-12) | (t1 > self.t_final + 1e-9) | (t1 < t0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"window [{t0.flat[i]}, {t1.flat[i]}] outside the sampled path")
        times = self.jump_times
        lo, hi = t0.ravel(), t1.ravel()
        first = np.maximum(np.searchsorted(times, lo, side="right") - 1, 0)
        last = np.maximum(np.searchsorted(times, hi, side="right") - 1, 0)
        counts = last - first + 1
        window = np.repeat(np.arange(lo.size), counts)
        piece = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        left = np.maximum(times[piece], lo[window])
        right = np.minimum(np.append(times[1:], np.inf)[piece], hi[window])
        occ = np.zeros((lo.size, self.model.n_states))
        np.add.at(occ, (window, self.state_indices[piece]), np.maximum(right - left, 0.0))
        return occ.reshape(t0.shape + (self.model.n_states,))

    def profile_integral(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} m(s, x) ds as a field on the grid."""
        occ = self.occupations(t0, t1)
        return (occ @ self.model.flat_states()).reshape(self.model.grid.shape)


def _entropy(seed) -> tuple[int, ...]:
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def sample_rng(seed, index: int) -> np.random.Generator:
    """Generator for one ensemble member, independent across indices."""
    return np.random.default_rng(np.random.SeedSequence((*_entropy(seed), index)))


def sample_path(
    model: NoiseModel,
    epsilon: float,
    t_final: float,
    rng: np.random.Generator,
) -> NoisePath:
    """Draw a chain trajectory with rates accelerated by 1/epsilon^2.

    The initial state is drawn from the stationary law, so the path is
    stationary in law on [0, t_final].
    """
    if epsilon <= 0.0 or t_final <= 0.0:
        raise ValueError("epsilon and t_final must be positive")
    rates = -np.diag(model.generator) / epsilon**2
    if np.min(rates) <= 0.0:
        raise ValueError("every state needs a positive departure rate")
    jump_probs = model.generator - np.diag(np.diag(model.generator))
    jump_cdf = np.cumsum(jump_probs / jump_probs.sum(axis=1, keepdims=True), axis=1)
    state = int(rng.choice(model.n_states, p=model.stationary))
    times = [0.0]
    states = [state]
    t = float(rng.exponential(1.0 / rates[state]))
    while t < t_final:
        state = int(np.searchsorted(jump_cdf[state], rng.random()))
        times.append(t)
        states.append(state)
        t += float(rng.exponential(1.0 / rates[state]))
    return NoisePath(model, epsilon, t_final, np.array(times), np.array(states, dtype=np.int64))
