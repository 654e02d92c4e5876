"""Finite-state Markov forcing of the relaxation rate.

A noise model is an ergodic continuous-time Markov chain on a finite set of
smooth spatial profiles n_i(x), centered under its stationary law nu.  The
module computes the chain statistics that drive the diffusion limit:

* psi_i = the centered solution of the Poisson problem  M psi = n,
* the drift fields  H(x) = sum_i nu_i n_i(x) psi_i(x)  and  h_eff = -H,
* the spatial covariance kernel
      k(x, y) = -sum_i nu_i [ n_i(y) psi_i(x) + n_i(x) psi_i(y) ],
* the eigendecomposition of the covariance operator with kernel k, from
  its rank-2s factor k dx = A C A^T, A = [n | psi]^T over the s states: a
  thin QR of A and a 2s x 2s symmetric eigenproblem, with each mode
  profile signed so that its first entry of at least half its largest
  magnitude is positive.

``sample_path`` draws exact trajectories of the accelerated chain (rates
divided by epsilon^2) with jump times stored in physical time,
``occupation_table`` integrates a batch of them over shared time windows
(the time each path spends in each state, in one vectorized pass per
batch), ``sample_rng`` seeds the generator of one ensemble member, and
``sample_chunks`` splits an ensemble into chunks of bounded memory.  Both
solvers advance a chunk on the block loop ``step_blocks`` and lay its run
out by ``record_blocks``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import TorusGrid

#: relative floor below which covariance eigenvalues are clipped to zero
EIG_CLIP = 1e-10
#: relative threshold for declaring the covariance kernel indefinite
EIG_NEGATIVE = 1e-8
#: most floats of per-sample state that one chunk of an ensemble holds:
#: 1 MiB, 101 samples of the criterion-6 martingale fixture
CHUNK_BUDGET = 2**17


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
    nu = np.asarray(stationary, dtype=float)
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(vals.shape[0], -1)
    scale = max(np.max(np.abs(flat)), 1.0)
    if np.max(np.abs(nu @ flat)) > 1e-12 * scale:
        raise ValueError("values are not centered under the stationary law")
    return _bordered_solve(generator, nu, flat, scale).reshape(vals.shape)


def _bordered_solve(generator, nu: np.ndarray, flat: np.ndarray, scale: float) -> np.ndarray:
    """psi with M psi = flat - nu . flat and nu . psi = 0 for values
    (n_states, k) whose centring the caller has checked; the residual is
    checked against ``scale``, the size of the forcing."""
    m = np.asarray(generator, dtype=float)
    centered = flat - nu @ flat
    # Adding the rank-one term 1 (x) nu makes the system nonsingular without
    # changing the solution on the centered subspace.
    bordered = m + np.outer(np.ones(len(nu)), nu)
    psi = np.linalg.solve(bordered, centered)
    psi -= np.outer(np.ones(len(nu)), nu @ psi)
    residual = np.max(np.abs(m @ psi - centered))
    if residual > 1e-10 * scale:
        raise ValueError(f"Poisson solve residual {residual:.3e} too large")
    return psi


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Ergodic finite-state chain of centered spatial profiles."""

    grid: TorusGrid
    states: np.ndarray  # (n_states,) + grid.shape
    generator: np.ndarray  # (n_states, n_states) rate matrix
    stationary: np.ndarray  # (n_states,)

    @property
    def n_states(self) -> int:
        return self.states.shape[0]


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
    mean = nu @ states
    if center:
        states = states - mean
    elif np.max(np.abs(mean)) > 1e-12 * max(np.max(np.abs(states)), 1.0):
        raise ValueError("profiles are not centered under the stationary law")
    return NoiseModel(grid, states, np.asarray(generator, dtype=float), nu)


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
    kernel: np.ndarray  # (n_x, n_x), symmetric PSD
    mode_weights: np.ndarray  # (rank,) positive eigenvalues of k dx, descending, rank <= 2s
    mode_profiles: np.ndarray  # (rank,) + grid.shape, L^2-orthonormal, signed by _orient

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
    """Poisson profiles, drift fields and covariance eigenmodes of a chain.

    The kernel has rank at most 2s for s states: k dx = A C A^T with the
    factor A = [n | psi]^T, shape (n_x, 2s), and C = -[[0, D_nu], [D_nu, 0]].
    With the thin QR factorization A = QR, the nonzero spectrum of k dx is
    that of the (at most) 2s x 2s matrix dx R C R^T, with eigenvectors QV;
    the rest of the spectrum is 0.  The indefiniteness check and the clip
    act on this full spectrum.  Each mode profile is oriented by
    ``_orient``.
    """
    grid = model.grid
    psi = solve_poisson(model.generator, model.stationary, model.states)
    states, nu = model.states, model.stationary
    drift_paper = np.einsum("i,ix,ix->x", nu, states, psi)
    half = psi.T @ (nu[:, None] * states)
    kernel = -(half + half.T)
    drift_effective = 0.5 * np.diag(kernel)
    s = model.n_states
    q, r = np.linalg.qr(np.concatenate([states, psi]).T)
    reduced = r[:, s:] @ (nu[:, None] * r[:, :s].T)
    eigvals, eigvecs = np.linalg.eigh(-(reduced + reduced.T) * grid.cell_volume)
    # 0 is in the spectrum of k dx whenever Q does not span the whole grid
    spectrum = eigvals if len(eigvals) == grid.n_x else np.append(eigvals, 0.0)
    top = max(spectrum.max(), 0.0)
    if spectrum.min() < -EIG_NEGATIVE * max(np.max(np.abs(spectrum)), 1e-300):
        raise ValueError("covariance kernel is not positive semidefinite")
    keep = np.flatnonzero(eigvals > EIG_CLIP * top)[::-1]
    weights = eigvals[keep]
    profiles = _orient((q @ eigvecs[:, keep]).T) / np.sqrt(grid.cell_volume)
    return NoiseStatistics(model, psi, drift_paper, drift_effective, kernel, weights, profiles)


def _orient(vectors: np.ndarray) -> np.ndarray:
    """The rows of ``vectors`` with signs chosen so that the first entry of
    each row whose magnitude is at least half the row's largest is positive."""
    size = np.abs(vectors)
    lead = np.argmax(size >= 0.5 * size.max(axis=1, keepdims=True), axis=1)
    return vectors * np.sign(vectors[np.arange(len(vectors)), lead])[:, None]


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One exact trajectory of the accelerated chain on [0, t_final].

    ``jump_times[k]`` is the entry time into ``state_indices[k]`` (physical
    time; the first entry is 0), so the path is right-continuous piecewise
    constant.
    """

    model: NoiseModel
    t_final: float
    jump_times: np.ndarray
    state_indices: np.ndarray

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times) - 1

    def occupations(self, t0, t1) -> np.ndarray:
        """Time spent in each state during [t0, t1], shape (..., n_states):
        this path's row of ``occupation_table``."""
        return occupation_table([self], t0, t1)[0]


def _locate(paths: Sequence[NoisePath], edges: np.ndarray):
    """The pieces of the paths between jumps, concatenated: their start
    times, end times (the next jump of the path; inf for its last piece) and
    states; and the index of the piece each path is in at each edge, shape
    (B, n_edges): its last jump at or before the edge, or its first piece.
    A NaN jump time lies after every edge."""
    times = np.concatenate([path.jump_times for path in paths])
    states = np.concatenate([path.state_indices for path in paths])
    lengths = np.array([len(path.jump_times) for path in paths])
    ends = np.append(times[1:], np.inf)
    ends[np.cumsum(lengths) - 1] = np.inf
    order = np.argsort(edges)
    # a jump is at or before the sorted edges from its slot on
    slot = np.searchsorted(edges[order], times, side="left")
    n = len(edges) + 1
    hits = np.bincount(np.repeat(np.arange(len(paths)) * n, lengths) + slot, minlength=len(paths) * n)
    hits = hits.reshape(len(paths), n)
    # in place here and in occupation_table: these per-edge and per-piece
    # arrays are the largest temporaries of a chunk
    index = np.empty((len(paths), len(edges)), dtype=np.int64)
    index[:, order] = np.cumsum(hits, axis=1, out=hits)[:, :-1]
    index -= 1
    np.maximum(index, 0, out=index)
    index += (np.cumsum(lengths) - lengths)[:, None]
    return times, ends, states, index


def occupation_table(paths: Sequence[NoisePath], t0, t1) -> np.ndarray:
    """Time each path spends in each state during [t0, t1], shape
    (B,) + window shape + (n_states,).

    ``t0`` and ``t1`` are one window or arrays of windows, shared by every
    path.  Each window is cut into its pieces between jumps and the pieces
    are added in time order, so a window gets the same bits alone as in an
    array and in any batch of paths.  A NaN jump time makes the occupations
    of the windows it bounds NaN.
    """
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    t_final = min(path.t_final for path in paths)
    bad = (t0 < -1e-12) | (t1 > t_final + 1e-9) | (t1 < t0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"window [{t0.flat[i]}, {t1.flat[i]}] outside the sampled path")
    lo, hi = t0.ravel(), t1.ravel()
    times, ends, states, index = _locate(paths, np.concatenate([lo, hi]))
    first, last = index[:, :lo.size].ravel(), index[:, lo.size:].ravel()
    counts = last - first + 1
    window = np.repeat(np.arange(counts.size), counts)
    piece = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    right = np.minimum(ends[piece], np.tile(hi, len(paths))[window])
    right -= np.maximum(times[piece], np.tile(lo, len(paths))[window])
    occ = np.zeros((counts.size, paths[0].model.n_states))
    np.add.at(occ, (window, states[piece]), np.maximum(right, 0.0, out=right))
    return occ.reshape((len(paths),) + t0.shape + (paths[0].model.n_states,))


def _entropy(seed) -> tuple[int, ...]:
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def sample_rng(seed, index: int) -> np.random.Generator:
    """Generator for one ensemble member, independent across indices."""
    return np.random.default_rng(np.random.SeedSequence((*_entropy(seed), index)))


def sample_chunks(n_samples: int, floats_per_sample: int, draw: Callable) -> Iterator[tuple[int, list]]:
    """(first sample, [draw(k) for each sample k of the chunk]) for the
    consecutive chunks of an ensemble, drawn lazily, k = 0, 1, ... in order.

    A chunk holds at most ``CHUNK_BUDGET`` floats of per-sample state, or
    one sample if a sample needs more.  An ensemble needs at least two
    samples, since one has no standard error: fewer raise ValueError at the
    call, before any draw.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    size = max(CHUNK_BUDGET // floats_per_sample, 1)
    return ((start, [draw(k) for k in range(start, min(start + size, n_samples))])
            for start in range(0, n_samples, size))


class _RowError(FloatingPointError):
    """A solver failure of one row of a batch of samples."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _block_steps(state: np.ndarray) -> int:
    """Steps per block of ``step_blocks``: as many as keep the block's states
    (state.nbytes / 8 floats a step) within ``CHUNK_BUDGET // 16`` floats, at least one."""
    return max(CHUNK_BUDGET // 16 // (state.nbytes // 8), 1)


def step_blocks(
    step: Callable, state: np.ndarray, n_steps: int, first_sample: int | None, check: Callable
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Advance a batch of samples, one row of ``state`` (the batch at step
    0) each, and yield (k, states, norms) for consecutive blocks of the
    steps k, k + 1, ... of k = 0..n_steps; both solvers run on this loop.

    ``step(state, k)`` takes the rows from step k to k + 1.  states,
    (K,) + state.shape, is a buffer the next block overwrites.
    ``check(k, states)`` returns the norms (K, B) and {row: message} for the
    lowest row that fails it, at its first failing step, or {}.

    Block rule: K is as many steps as fit ``CHUNK_BUDGET // 16`` floats, at
    least one (``_block_steps``); every operation acts on each row and step
    alone, so K changes no bit.

    Failure rule: a step may raise ``_RowError``, which stops that row and
    the rows above it at once.  After each block the lowest row that raised
    or failed the check stops with the rows above it, and the rows below
    run on; the loop ends by raising FloatingPointError for the lowest
    failing row at its own first failure, named ``sample first_sample +
    row`` when ``first_sample`` is set.  Rows step on past a failure to the
    end of their block, so steps and check run with overflow and
    invalid-value warnings off.  A row a raise stops leaves its entries as
    they were (zeros, or earlier states), which must pass the check.
    """
    buffer = np.zeros((min(_block_steps(state), n_steps + 1),) + state.shape, dtype=state.dtype)
    failure = None
    for start in range(0, n_steps + 1, len(buffer)):
        states = buffer[:n_steps + 1 - start, :len(state)]
        failed = {}  # row -> its error
        # closed before the yield, which would hand the error state to the caller
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(states)):
                while start + j and len(state):
                    try:
                        state = step(state, start + j - 1)
                        break
                    except _RowError as exc:
                        failed[exc.row] = str(exc)
                        state = state[:exc.row]
                states[j, :len(state)] = state
            norms, lost = check(start, states)
        # a raise stops a row, so the states it fails the check at come first
        failed.update(lost)
        if failed:
            row = min(failed)
            failure = failed[row] if first_sample is None else f"sample {first_sample + row}: {failed[row]}"
            state = state[:row]
        yield start, states, norms
        if not len(state):
            break
    if failure is not None:
        raise FloatingPointError(failure)


def record_blocks(blocks: Iterator, n_steps: int, stride: int, dt: float, measure: Callable) -> tuple:
    """A run of ``step_blocks`` in the layout both solvers return: snapshot
    times, snapshots (B, n_snap, n_x) at the steps 0, stride, 2 stride, ...
    and n_steps, step times and per-step series (B, n_steps + 1): the mass,
    the loop's norms and the further series of ``measure(states, at)``,
    which returns a block's densities at its steps ``at`` (len(at), B, n_x),
    its mass and further series (K, B).
    """
    snap_steps = np.append(np.arange(0, n_steps, stride), n_steps)
    # step_blocks' error state, since a block holds rows stepped past a failure
    with np.errstate(over="ignore", invalid="ignore"):
        for start, states, norms in blocks:
            steps, live = norms.shape
            cols = slice(*snap_steps.searchsorted([start, start + steps]))
            densities, mass, *more = measure(states, snap_steps[cols] - start)
            if not start:  # every row runs the first block
                snaps = np.empty((live, len(snap_steps), densities.shape[-1]))
                # one row per sample, so each sample's series is contiguous
                series = np.empty((2 + len(more), live, n_steps + 1))
            snaps[:live, cols] = densities.swapaxes(0, 1)
            for out, values in zip(series, (mass, norms, *more)):
                out[:live, start:start + steps] = values.T
    return (snap_steps * dt, snaps, np.arange(n_steps + 1) * dt, *series)


@functools.lru_cache(maxsize=16)
def _jump_tables(model: NoiseModel, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean holding time of each state of the accelerated chain, the CDF of
    each state's jump law and the CDF of the stationary law, normalized as
    ``Generator.choice`` normalizes it."""
    rates = -np.diag(model.generator) / epsilon**2
    if np.min(rates) <= 0.0:
        raise ValueError("every state needs a positive departure rate")
    jump_probs = model.generator - np.diag(np.diag(model.generator))
    jump_cdf = np.cumsum(jump_probs / jump_probs.sum(axis=1, keepdims=True), axis=1)
    law_cdf = np.cumsum(model.stationary)
    tables = 1.0 / rates, jump_cdf, law_cdf / law_cdf[-1]
    for table in tables:
        table.flags.writeable = False  # shared by every draw of the cache
    return tables


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
    scales, jump_cdf, law_cdf = _jump_tables(model, epsilon)
    # rng.choice(n_states, p=stationary) draws its state this way
    state = int(law_cdf.searchsorted(rng.random(), side="right"))
    times = [0.0]
    states = [state]
    t = float(rng.exponential(scales[state]))
    while t < t_final:
        state = int(jump_cdf[state].searchsorted(rng.random()))
        times.append(t)
        states.append(state)
        t += float(rng.exponential(scales[state]))
    return NoisePath(model, t_final, np.array(times), np.array(states, dtype=np.int64))
