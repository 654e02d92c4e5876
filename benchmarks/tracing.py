"""Call tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``rosselab`` modules
from outside the package: every binding of a wrapped function is replaced,
in the module that defines it and in every module that imported it by name
(``from .model import relax_exact`` binds ``rosselab.kinetic.relax_exact``),
including values of module-level dicts such as ``cli.COMMANDS``.  Nothing
under ``src/`` is edited, and :meth:`Tracer.installed` restores the original
bindings on exit.

Hot per-step calls are aggregated per (name, parent name) into a call
count, a total time and a self time (duration minus the time of traced
children).  Coarse calls (ensembles, trajectories, CLI commands, the
benchmark's own set-up and operation roots) are also kept as spans
``(id, name, start, end, parent_id, run_id)``.  A few hooks read guard
values off return values (minimum noisy limit density, peak noise
exponent, jump counts, CSV bytes); the time they take is charged to no
span and reported as ``hook_s``.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (span name, rosselab module, attribute, kept as a span)
TARGETS = (
    ("model.relax_exact", "model", "relax_exact", False),
    ("fourier.laplacian", "fourier", "laplacian", False),
    ("fourier.gradient", "fourier", "gradient", False),
    ("fourier.sobolev_norm_sq", "fourier", "sobolev_norm_sq", False),
    ("noise.occupations", "noise", "NoisePath.occupations", False),
    ("noise.sample_path", "noise", "sample_path", False),
    ("noise.statistics", "noise", "noise_statistics", True),
    ("kinetic.step", "kinetic", "KineticStepper.step", False),
    ("kinetic.noise_factor", "kinetic", "noise_factor", False),
    ("kinetic.run", "kinetic", "run_kinetic", True),
    ("limit.step", "limit", "SpdeStepper.step", False),
    ("limit.rosseland_rhs", "limit", "rosseland_rhs", False),
    ("limit.run", "limit", "run_limit", True),
    ("correctors.totals", "correctors", "GeneratorEvaluator.totals", False),
    ("correctors.gamma", "correctors", "GeneratorEvaluator.gamma", False),
    ("correctors.perturbed", "correctors", "GeneratorEvaluator.perturbed", False),
    ("correctors.generator_terms", "correctors", "generator_terms", False),
    ("correctors.martingale", "correctors", "martingale_residual", True),
    ("harness.sweep", "harness", "epsilon_sweep", True),
    ("harness.kinetic_ensemble", "harness", "kinetic_ensemble", True),
    ("harness.limit_ensemble", "harness", "limit_ensemble", True),
    ("harness.functional_triple", "harness", "functional_triple", False),
    ("harness.hs_norm", "harness", "hs_norm", False),
    ("harness.rk4_reference", "harness", "rosseland_reference", True),
    ("harness.convergence", "harness", "deterministic_convergence", True),
    ("config.parse", "config", "parse_config", True),
    ("cli.main", "cli", "main", True),
    ("cli.noise_info", "cli", "cmd_noise_info", True),
    ("cli.run_kinetic", "cli", "cmd_run_kinetic", True),
    ("cli.run_spde", "cli", "cmd_run_spde", True),
    ("cli.rates", "cli", "cmd_rates", True),
    ("cli.verify", "cli", "cmd_verify", True),
    ("cli.write_csv", "cli", "write_csv", False),
)

#: the package modules, which are also the layer names
LAYERS = ("model", "fourier", "noise", "kinetic", "limit", "correctors",
          "harness", "config", "cli")


def _min_density(tracer, args, result):
    if args[0].config.noise is not None:
        tracer.gauges["min_density"] = min(tracer.gauges["min_density"], float(result.min()))


def _noise_exponent(tracer, args, result):
    peak = float(np.max(np.abs(np.log(result))))
    tracer.gauges["peak_noise_exponent"] = max(tracer.gauges["peak_noise_exponent"], peak)


def _jumps(tracer, args, result):
    tracer.gauges["jumps"] += result.n_jumps


def _csv_bytes(tracer, args, result):
    tracer.gauges["csv_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "limit.step": _min_density,
    "kinetic.noise_factor": _noise_exponent,
    "noise.sample_path": _jumps,
    "cli.write_csv": _csv_bytes,
}


class Tracer:
    """Span recorder with per-(name, parent) aggregates; see the module doc."""

    def __init__(self):
        self._stack = [["", 0.0, None]]
        self._next_id = 0
        self.run_id = None
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of aggregates, spans and guard values."""
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.hook_s = 0.0
        self.gauges = {"min_density": math.inf, "peak_noise_exponent": 0.0,
                       "jumps": 0, "csv_bytes": 0}

    def _enter(self, name: str, coarse: bool) -> list:
        parent = self._stack[-1]
        if coarse:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent[2]
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, coarse: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        key = (frame[0], parent[0])
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent[1] += duration
        if coarse:
            self.spans.append((frame[2], frame[0], start, end, parent[2], self.run_id))

    def wrap(self, name: str, fn, coarse: bool):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, coarse)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._exit(frame, start, end, coarse)
            if hook is not None:
                hook(self, args, result)
                spent = perf_counter() - end
                self._stack[-1][1] += spent
                self.hook_s += spent
            return result

        return traced

    @contextmanager
    def root(self, name: str, run_id: int):
        """Span around one benchmark phase; its self time is unattributed."""
        self.run_id = run_id
        frame = self._enter(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter(), True)

    @contextmanager
    def installed(self, pkg):
        """Patch every binding of the TARGETS in the modules of ``pkg``."""
        modules = [getattr(pkg, layer) for layer in LAYERS]
        undo = []
        try:
            for name, module, attr, coarse in TARGETS:
                owner = getattr(pkg, module)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(name, original, coarse))
                    undo.append((cls, method, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, coarse)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
                        elif isinstance(value, dict):
                            for k, v in value.items():
                                if v is original:
                                    value[k] = wrapper
                                    undo.append((value, k, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)


def _sum(stats, name: str, field: int, parent: str | None = None):
    return sum(v[field] for (n, p), v in stats.items()
               if n == name and (parent is None or p == parent))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the aggregates collected since the last reset."""
    stats = tracer.stats

    def calls(name, parent=None):
        return _sum(stats, name, 0, parent)

    def total(*names):
        return sum(_sum(stats, name, 1) for name in names)

    def own(*names):
        return sum(_sum(stats, name, 2) for name in names)

    gauges = tracer.gauges
    evaluator = ("correctors.totals", "correctors.gamma", "correctors.perturbed")
    metrics = {
        "limit.step_calls": calls("limit.step"),
        "limit.step_self_s": own("limit.step"),
        "limit.run_self_s": own("limit.run"),
        # 0 when no noisy limit step ran
        "limit.min_density": gauges["min_density"] if math.isfinite(gauges["min_density"]) else 0.0,
        "fourier.laplacian_calls": calls("fourier.laplacian"),
        "fourier.laplacian_s": total("fourier.laplacian"),
        "kinetic.step_calls": calls("kinetic.step"),
        "kinetic.step_self_s": own("kinetic.step"),
        "kinetic.noise_factor_self_s": own("kinetic.noise_factor"),
        "kinetic.peak_noise_exponent": gauges["peak_noise_exponent"],
        "kinetic.run_self_s": own("kinetic.run"),
        "model.relax_exact_calls": calls("model.relax_exact"),
        "model.relax_exact_s": total("model.relax_exact"),
        "noise.occupations_calls": calls("noise.occupations"),
        "noise.occupations_s": total("noise.occupations"),
        "noise.sample_path_s": total("noise.sample_path"),
        "noise.jumps": gauges["jumps"],
        "noise.statistics_s": total("noise.statistics"),
        "correctors.evaluator_calls": sum(calls(name) for name in evaluator),
        "correctors.evaluator_s": total(*evaluator),
        "correctors.martingale_self_s": own("correctors.martingale"),
        "harness.samples": calls("kinetic.run", "harness.kinetic_ensemble")
        + calls("limit.run", "harness.limit_ensemble"),
        "harness.limit_ensemble_s": total("harness.limit_ensemble"),
        "harness.kinetic_ensemble_s": total("harness.kinetic_ensemble"),
        "harness.reduce_s": total("harness.functional_triple", "harness.hs_norm"),
        "harness.rk4_reference_s": total("harness.rk4_reference"),
        "config.parse_s": total("config.parse"),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.csv_bytes": gauges["csv_bytes"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v[2] for (n, _), v in stats.items() if n.startswith(layer + ".")
        )
    metrics["trace.root_self_s"] = own("bench.op")
    metrics["trace.wall_s"] = total("bench.op")
    metrics["trace.hook_s"] = tracer.hook_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics
