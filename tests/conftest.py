"""Shared pytest plumbing: collect acceptance verdict lines for the summary,
random ergodic chains, the state of a noise path at a time,
physical-space views of the kinetic solver's phases and steps, a fixed block length for the solvers' block loop, and
``sample_rng`` / ``sample_path`` / ``occupation_table`` stand-ins for
ensemble failure tests."""

import contextlib
import itertools

import numpy as np
import pytest

from rosselab import noise
from rosselab.kinetic import KineticStepper, transport_phases
from rosselab.noise import NoisePath, make_noise_model, occupation_table, sample_path

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def random_chain(rng, n_states, grid):
    """Ergodic chain with random rates in [0.5, 2] and random centered
    trigonometric profiles up to frequency 3."""
    m = rng.uniform(0.5, 2.0, (n_states, n_states))
    np.fill_diagonal(m, 0.0)
    m -= np.diag(m.sum(axis=1))
    x = grid.axis_points()
    states = np.zeros((n_states, grid.n_x))
    for i in range(n_states):
        for k in range(1, 4):
            states[i] += rng.normal() * np.cos(2.0 * np.pi * k * x)
            states[i] += rng.normal() * np.sin(2.0 * np.pi * k * x)
    return make_noise_model(grid, states, m)


def state_index_at(path, t):
    """The state a noise path is in at time t: the state it entered at its
    last jump at or before t (its first state before its first jump)."""
    k = int(np.searchsorted(path.jump_times, t, side="right")) - 1
    return int(path.state_indices[max(k, 0)])


def translate(grid, quad, f, tau):
    """Translate node k of the fields f (..., n_v, n_x) by tau * a_k with the
    solver's transport phases.  Exact for trigonometric data below the
    Nyquist frequency; the Nyquist mode cannot be translated off the grid
    and is projected on its real part, so the energy never grows."""
    return np.fft.irfft(np.fft.rfft(f) * transport_phases(grid, quad, tau), n=grid.n_x)


def stepped_fields(config, f0, path=None):
    """Fields f_0, ..., f_n (n_steps + 1, n_v, n_x) of one run of the
    solver's step from the field f0, transformed back from its spectral
    state after every step."""
    stepper = KineticStepper(config, [path])
    f_hat = np.fft.rfft(f0)[None]
    fields = [np.asarray(f0, dtype=float)]
    for k in range(config.n_steps):
        f_hat = stepper.step(f_hat, k)
        fields.append(np.fft.irfft(f_hat[0], n=config.grid.n_x))
    return np.array(fields)


@contextlib.contextmanager
def fixed_blocks(block):
    """Run the solvers' block loop ``noise.step_blocks`` ``block`` steps per
    block; None keeps the block length it works out."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(noise, "_block_steps", lambda state: block)
        yield


def nan_normals(nan_steps):
    """A ``sample_rng`` stand-in whose generators draw zero normals, with a
    NaN row at step ``nan_steps[k]`` for sample k."""

    class Stub:
        def __init__(self, step):
            self.step = step

        def standard_normal(self, shape):
            out = np.zeros(shape)
            if self.step is not None:
                out[self.step] = np.nan
            return out

    return lambda seed, k: Stub(nan_steps.get(k))


def nan_paths(nan_times):
    """A ``sample_path`` stand-in whose k-th call draws the usual path,
    except for k in ``nan_times``: that path stays in state 0 and its jump
    times turn NaN at time ``nan_times[k]``, so the occupations, noise
    factors and kinetic field of that sample turn NaN from the first half
    step whose window reaches that time.  An ensemble draws the path of
    sample k with its k-th call."""
    return altered_paths(nan_times, {})


def loud_paths(loud_times, gain=1e6):
    """Like ``nan_paths``, but sample k's path turns loud at time
    ``loud_times[k]``: where ``loud_table`` stands in for the solver's
    ``occupation_table``, that sample's occupations are multiplied by
    ``gain`` on the windows that end after its loud time, so its noise
    exponent overflows from the first such half step on."""
    return altered_paths({}, loud_times, gain)


def altered_paths(nan_times, loud_times, gain=1e6):
    """A ``sample_path`` stand-in that alters the path of sample k as
    ``nan_paths`` does for k in ``nan_times`` and as ``loud_paths`` does for
    k in ``loud_times``."""
    calls = itertools.count()

    def draw(model, epsilon, t_final, rng):
        path = sample_path(model, epsilon, t_final, rng)
        k = next(calls)
        if k in nan_times:
            return nan_path(path, nan_times[k])
        if k in loud_times:
            return LoudPath(path, loud_times[k], gain)
        return path

    return draw


def nan_path(path, t):
    """The path that stays in state 0 and whose jump times turn NaN at t."""
    return NoisePath(path.model, path.t_final, np.array([0.0, t, np.nan]),
                     np.zeros(3, dtype=np.int64))


class LoudPath:
    """A noise path whose occupation times grow by a gain after time t in
    ``loud_table``."""

    def __init__(self, path, t, gain):
        self.path, self.t, self.gain = path, t, gain

    def __getattr__(self, name):
        return getattr(self.path, name)


def loud_table(paths, t0, t1):
    """``occupation_table`` with the gain of every loud path applied to its
    row, and the gains of the loud paths it wraps."""
    occ = occupation_table(paths, t0, t1)
    for b, path in enumerate(paths):
        while isinstance(path, LoudPath):
            occ[b] = np.where(np.asarray(t1)[..., None] > path.t, path.gain * occ[b], occ[b])
            path = path.path
    return occ
