"""The traced benchmark run wraps ``rosselab`` functions that it names by
string in ``benchmarks/tracing.py``; a rename in the package must fail here,
not only when the benchmark runs with ``--trace 1``.  The per-layer metrics
count calls of those functions, so the solver loops must keep calling them
once per step."""

import importlib
import importlib.util
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import LoudPath, fixed_blocks, loud_table

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize("layer", TRACING_MODULE.LAYERS)
def test_layer_is_a_package_module(layer):
    importlib.import_module(f"rosselab.{layer}")


@pytest.mark.parametrize("name,module,attr,coarse", TRACING_MODULE.TARGETS,
                         ids=[target[0] for target in TRACING_MODULE.TARGETS])
def test_target_resolves(name, module, attr, coarse):
    owner = importlib.import_module(f"rosselab.{module}")
    if "." in attr:
        # the tracer patches the method in the class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))


def traced_calls(run) -> dict[tuple[str, str], int]:
    """Calls per (traced name, traced parent) while ``run(pkg)`` runs under
    the benchmark's tracer, which patches every binding of its targets."""
    pkg = SimpleNamespace(**{layer: importlib.import_module(f"rosselab.{layer}")
                             for layer in TRACING_MODULE.LAYERS})
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed(pkg):
        run(pkg)
    return {key: entry[0] for key, entry in tracer.stats.items()}


def small_noisy_config(pkg, n_steps):
    grid = pkg.model.TorusGrid(8)
    noise = pkg.noise.telegraph_noise(grid, pkg.noise.cosine_profile(grid, 1.0, 1), 1.0)
    return pkg.kinetic.KineticConfig(
        grid, pkg.model.build_velocity_space("two-speed"), pkg.model.Opacity(1.0, 2.0),
        epsilon=0.25, t_final=n_steps * 0.01, dt=0.01, noise=noise)


def test_kinetic_run_calls_each_traced_phase_per_step():
    """Inlining a traced phase into the loop would zero its per-layer metric;
    here it fails instead."""
    n_steps = 5

    def run(pkg):
        config = small_noisy_config(pkg, n_steps)
        pkg.kinetic.run_kinetic(config, np.ones(8), rng=np.random.default_rng(1))

    calls = traced_calls(run)
    assert calls[("kinetic.step", "kinetic.run")] == n_steps
    assert calls[("model.relax_exact", "kinetic.step")] == n_steps
    assert calls[("kinetic.noise_factor", "kinetic.step")] >= n_steps


def test_martingale_evaluates_the_generator_per_window_step():
    k_start, k_end = 2, 6

    def run(pkg):
        config = small_noisy_config(pkg, k_end)
        stats = pkg.noise.noise_statistics(config.noise)
        pkg.correctors.martingale_residual(
            config, stats, pkg.correctors.FourierMode(1), np.ones(8),
            k_start * config.dt, k_end * config.dt, n_samples=3, base_seed=1)

    calls = traced_calls(run)
    # the three samples run as one chunk
    assert calls[("kinetic.step", "correctors.martingale")] == k_end
    assert calls[("model.relax_exact", "kinetic.step")] == k_end
    assert calls[("kinetic.noise_factor", "kinetic.step")] >= k_end
    window = k_end - k_start + 1
    assert calls[("correctors.totals", "correctors.martingale")] == window
    assert calls[("correctors.gamma", "correctors.martingale")] == window


def test_limit_runs_call_the_traced_step_per_step():
    """The limit loop runs on the solvers' shared block loop; folding the
    step into it would zero ``limit.step_calls``, and here it fails."""
    n_steps, n_samples = 7, 3

    def run(pkg):
        grid = pkg.model.TorusGrid(8)
        noise = pkg.noise.telegraph_noise(grid, pkg.noise.cosine_profile(grid, 1.0, 1), 1.0)
        config = pkg.limit.SpdeConfig(
            grid, pkg.model.Opacity(1.0, 2.0), 0.5, n_steps * 0.01, dt=0.01,
            noise=pkg.noise.noise_statistics(noise))
        rho0 = np.ones(8)
        pkg.limit.run_limit(config, rho0, rng=np.random.default_rng(1))
        pkg.harness.limit_ensemble(config, rho0, pkg.correctors.FourierMode(1), n_samples, 1)

    calls = traced_calls(run)
    assert calls[("limit.step", "limit.run")] == n_steps
    # the three samples run as one chunk
    assert calls[("limit.step", "harness.limit_ensemble")] == n_steps


def test_a_run_that_breaks_the_exponent_limit_keeps_the_tracer_quiet():
    """A row whose noise exponent breaks the limit turns NaN and stops at the
    end of its block: up to there every step still calls the traced phases,
    and the peak-exponent hook reads the NaN factors without raising or
    warning, keeping the peak of the steps before."""
    n_steps = 6
    tracer = TRACING_MODULE.Tracer()
    pkg = SimpleNamespace(**{layer: importlib.import_module(f"rosselab.{layer}")
                             for layer in TRACING_MODULE.LAYERS})
    config = small_noisy_config(pkg, n_steps)
    # loud inside the second half window of step 2, so row 0 fails at step 3,
    # in the block of steps 2 and 3
    loud = LoudPath(pkg.noise.sample_path(config.noise, config.epsilon, config.t_final,
                                          np.random.default_rng(1)), 0.025, 1e6)
    with warnings.catch_warnings(), tracer.installed(pkg), fixed_blocks(2), \
            mock.patch.object(pkg.kinetic, "occupation_table", loud_table), \
            mock.patch.object(pkg.kinetic, "sample_path", lambda *args: loud), \
            pytest.raises(FloatingPointError, match=r"^noise exponent \S+ exceeds 50\.0"):
        warnings.simplefilter("error")
        pkg.kinetic.run_kinetic(config, np.ones(8), rng=np.random.default_rng(1))
    calls = {key: entry[0] for key, entry in tracer.stats.items()}
    assert calls[("kinetic.step", "kinetic.run")] == 3
    assert calls[("kinetic.noise_factor", "kinetic.step")] == 3
    assert 0.0 < tracer.gauges["peak_noise_exponent"] < pkg.kinetic.EXPONENT_LIMIT
