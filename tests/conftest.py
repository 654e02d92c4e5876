"""Shared pytest plumbing: collect acceptance verdict lines for the summary,
and ``sample_rng`` / ``sample_path`` stand-ins for ensemble failure tests."""

import itertools

import numpy as np

from rosselab.noise import NoisePath, sample_path

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)


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
    return _altered_draws(nan_times, lambda path, t: NoisePath(
        path.model, path.epsilon, path.t_final, np.array([0.0, t, np.nan]),
        np.zeros(3, dtype=np.int64)))


def loud_paths(loud_times, gain=1e6):
    """Like ``nan_paths``, but sample k's occupations are multiplied by
    ``gain`` on the windows that end after ``loud_times[k]``, so its noise
    exponent overflows from the first such half step on."""
    return _altered_draws(loud_times, lambda path, t: LoudPath(path, t, gain))


class LoudPath:
    """A noise path whose occupation times grow by a gain after time t."""

    def __init__(self, path, t, gain):
        self.path, self.t, self.gain = path, t, gain

    def __getattr__(self, name):
        return getattr(self.path, name)

    def occupations(self, t0, t1):
        occ = self.path.occupations(t0, t1)
        return np.where(np.asarray(t1)[..., None] > self.t, self.gain * occ, occ)


def _altered_draws(times, alter):
    calls = itertools.count()

    def draw(model, epsilon, t_final, rng):
        path = sample_path(model, epsilon, t_final, rng)
        t = times.get(next(calls))
        return path if t is None else alter(path, t)

    return draw
