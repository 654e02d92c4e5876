"""Shared pytest plumbing: collect acceptance verdict lines for the summary,
and a ``sample_rng`` stand-in for ensemble failure tests."""

import numpy as np

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
