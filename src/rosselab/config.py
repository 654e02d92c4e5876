"""Flat sectioned run configuration with strict validation.

The grammar is INI-style: sections [model], [noise], [simulation],
[harness], [output], lowercase keys, ``#`` or ``;`` comments.  Every key has
a default, so a minimal file only overrides what an experiment changes.
``KEYS`` lists every key once, with the RunConfig field it sets.
Unknown sections or keys are rejected with a close-match suggestion, and all
violations are reported together rather than one at a time.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass

import numpy as np

from .correctors import FourierMode, parse_mode
from .kinetic import check_dt_scale, check_step
from .model import (Opacity, TorusGrid, VelocityQuadrature, build_velocity_space, check_sobolev_order,
                    check_whole_steps, velocity_node_count)
from .noise import NoiseModel, cosine_profile, rotor_noise, sample_chunks, telegraph_noise


class ConfigError(ValueError):
    """All configuration violations, one per line."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters plus builders for the solver objects."""

    n_x: int = 32
    velocity: str = "two-speed"
    velocity_nodes: int | None = None
    opacity_kind: str = "rational"
    sigma_star: float = 1.0
    sigma_upper: float = 2.0

    fixture: str = "telegraph"
    amplitude: float = math.sqrt(2.0)
    frequency: int = 1
    rate: float = 2.0

    epsilon: float = 0.25
    epsilons: tuple[float, ...] = (0.5, 0.25, 0.125)
    t_final: float = 0.25
    dt: float | None = None
    dt_scale: float = 0.03125
    snapshot_stride: int = 1
    drift: str = "effective"
    rho0_mean: float = 1.0
    rho0_modes: tuple[tuple[FourierMode, float], ...] = ((FourierMode(1, "cos"), 0.5),)

    modes: tuple[FourierMode, ...] = (FourierMode(1, "cos"),)
    samples_kinetic: int = 600
    samples_limit: int = 2500
    base_seed: int = 123
    sobolev_order: float = 0.4
    slack_sigma: float = 1.0
    paper_excess_min: float = 3.0
    band_max: float = 4.0
    slope_min: float = 0.8
    heat_gap_max: float = 0.02
    identity_tol: float = 1e-12

    out_dir: str = "runs"

    def build_grid(self) -> TorusGrid:
        return TorusGrid(self.n_x)

    def build_quad(self) -> VelocityQuadrature:
        return build_velocity_space(self.velocity, self.velocity_nodes)

    def build_opacity(self) -> Opacity:
        """The rational law; ``opacity = constant`` is its zero spread."""
        if self.opacity_kind == "constant":
            return Opacity(self.sigma_star, self.sigma_star)
        return Opacity(self.sigma_star, self.sigma_upper)

    def build_noise(self, grid: TorusGrid) -> NoiseModel | None:
        if self.fixture == "off":
            return None
        if self.fixture == "telegraph":
            profile = cosine_profile(grid, self.amplitude, self.frequency)
            return telegraph_noise(grid, profile, self.rate)
        return rotor_noise(grid, self.amplitude, self.frequency, self.rate)

    def build_rho0(self, grid: TorusGrid) -> np.ndarray:
        x = grid.axis_points()
        rho = np.full(grid.shape, self.rho0_mean)
        for mode, amp in self.rho0_modes:
            angle = 2.0 * math.pi * mode.frequency * x
            rho = rho + amp * (np.cos(angle) if mode.parity == "cos" else np.sin(angle))
        return rho


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError("must be a positive finite number")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be a nonnegative integer")
    return value


def _epsilon_list(text: str) -> tuple[float, ...]:
    values = tuple(_positive_float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("empty list")
    ordered = tuple(sorted(values, reverse=True))
    if len(set(ordered)) != len(ordered):
        raise ValueError("epsilons must be distinct")
    return ordered


def _mode_list(text: str) -> tuple[FourierMode, ...]:
    modes = tuple(parse_mode(tok) for tok in text.split(",") if tok.strip())
    if len(modes) != 1:
        raise ValueError(f"got {len(modes)} modes; the sweep and verify read exactly one")
    return modes


def _weighted_modes(text: str) -> tuple[tuple[FourierMode, float], ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, _, amp = tok.partition(":")
        if not amp:
            raise ValueError(f"{tok!r} is not of the form mode:amplitude")
        out.append((parse_mode(name), _finite_float(amp)))
    if not out:
        raise ValueError("empty list")
    return tuple(out)


def _dt_rule(text: str) -> float | None:
    if text.lower() == "auto":
        return None
    return _positive_float(text)


VELOCITY_CHOICES = ("two-speed", "legendre")
FIXTURE_CHOICES = ("off", "telegraph", "rotor3")
DRIFT_CHOICES = ("effective", "paper")

#: every config key as (section, key, RunConfig field, converter or tuple of
#: choices, description of the expected value), in the order its
#: violations are reported
KEYS = (
    ("model", "n_x", "n_x", _positive_int, "a positive integer"),
    ("model", "velocity", "velocity", VELOCITY_CHOICES, None),
    ("model", "velocity_nodes", "velocity_nodes", _positive_int, "a positive integer"),
    ("model", "opacity", "opacity_kind", ("constant", "rational"), None),
    ("model", "sigma_star", "sigma_star", _positive_float, "a positive number"),
    ("model", "sigma_upper", "sigma_upper", _positive_float, "a positive number"),
    ("noise", "fixture", "fixture", FIXTURE_CHOICES, None),
    ("noise", "amplitude", "amplitude", _finite_float, "a finite number"),
    ("noise", "frequency", "frequency", _positive_int, "a positive integer"),
    ("noise", "rate", "rate", _positive_float, "a positive number"),
    ("simulation", "epsilon", "epsilon", _positive_float, "a positive number"),
    ("simulation", "epsilons", "epsilons", _epsilon_list,
     "a comma-separated list of distinct positive numbers"),
    ("simulation", "t_final", "t_final", _positive_float, "a positive number"),
    ("simulation", "dt", "dt", _dt_rule, "'auto' or a positive number"),
    ("simulation", "dt_scale", "dt_scale", _positive_float, "a positive number"),
    ("simulation", "snapshot_stride", "snapshot_stride", _positive_int, "a positive integer"),
    ("simulation", "drift", "drift", DRIFT_CHOICES, None),
    ("simulation", "rho0_mean", "rho0_mean", _finite_float, "a finite number"),
    ("simulation", "rho0_modes", "rho0_modes", _weighted_modes,
     "a list like 'cos1:0.5, sin2:0.1'"),
    ("harness", "modes", "modes", _mode_list, "a single mode like 'cos1'"),
    ("harness", "samples_kinetic", "samples_kinetic", _positive_int, "a positive integer"),
    ("harness", "samples_limit", "samples_limit", _positive_int, "a positive integer"),
    ("harness", "base_seed", "base_seed", _seed, "a nonnegative integer"),
    ("harness", "sobolev_order", "sobolev_order", _positive_float, "a positive number"),
    ("harness", "slack_sigma", "slack_sigma", _positive_float, "a positive number"),
    ("harness", "paper_excess_min", "paper_excess_min", _positive_float, "a positive number"),
    ("harness", "band_max", "band_max", _positive_float, "a positive number"),
    ("harness", "slope_min", "slope_min", _positive_float, "a positive number"),
    ("harness", "heat_gap_max", "heat_gap_max", _positive_float, "a positive number"),
    ("harness", "identity_tol", "identity_tol", _positive_float, "a positive number"),
    ("output", "directory", "out_dir", str, "a path"),
)

KNOWN_KEYS = {
    section: tuple(key for s, key, *_ in KEYS if s == section)
    for section in dict.fromkeys(entry[0] for entry in KEYS)
}


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Raises ConfigError listing every violation: unknown keys, type errors,
    the config's own cross-field rules, and the rules of the objects that
    enforce them (the grid and velocity builders, the opacity, the kinetic
    step cap, whole step counts, dt_scale, the ensemble sample counts and
    the Sobolev order), each in its owner's words.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot parse config file {path!r}: {exc}"]) from None
    violations: list[str] = []
    if not read:
        raise ConfigError([f"cannot read config file {path!r}"])

    for section in parser.sections():
        if section not in KNOWN_KEYS:
            violations.append(
                f"unknown section [{section}]{_suggest(section, KNOWN_KEYS)}"
            )
            continue
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                violations.append(
                    f"[{section}] unknown key {key!r}{_suggest(key, KNOWN_KEYS[section])}"
                )

    values = {}
    for section, key, field, conv, description in KEYS:
        if not parser.has_option(section, key):
            continue
        text = parser.get(section, key).strip()
        if isinstance(conv, tuple):
            low = text.lower()
            if low in conv:
                values[field] = low
            else:
                violations.append(f"[{section}] {key} = {text!r}: must be one of "
                                  f"{', '.join(conv)}{_suggest(low, conv)}")
            continue
        try:
            values[field] = conv(text)
        except (ValueError, TypeError) as exc:
            violations.append(f"[{section}] {key} = {text!r}: expected {description} ({exc})")
    run = RunConfig(**values)

    def apply(where: str, rule, *args) -> None:
        try:
            rule(*args)
        except ValueError as exc:
            violations.append(f"{where} {exc}")

    # each rule in the words of the object that enforces it, after ``where``
    apply("[model]", TorusGrid, run.n_x)
    if run.velocity == "two-speed" and parser.has_option("model", "velocity_nodes"):
        violations.append("[model] velocity_nodes requires velocity = legendre")
    else:
        apply("[model]", velocity_node_count, run.velocity, run.velocity_nodes)
    if run.opacity_kind == "constant" and parser.has_option("model", "sigma_upper"):
        violations.append("[model] sigma_upper applies to the rational opacity only")
    apply("[model]", run.build_opacity)
    if run.fixture != "off" and run.amplitude == 0.0:
        violations.append("[noise] amplitude must be nonzero when a fixture is on")
    if run.dt is not None:
        apply("[simulation]", check_step, run.epsilon, run.dt)
        apply("[simulation]", check_whole_steps, run.t_final, run.dt)
    apply("[simulation]", check_dt_scale, run.dt_scale)
    for key in ("samples_kinetic", "samples_limit"):
        n = getattr(run, key)
        # the chunker refuses a sample count at the call, before any draw
        apply(f"[harness] {key} = {n}:", sample_chunks, n, 1, None)
    apply("[harness]", check_sobolev_order, run.sobolev_order)
    for where, modes in (("[simulation] rho0_modes", [mode for mode, _ in run.rho0_modes]),
                         ("[harness] modes", run.modes)):
        violations.extend(f"{where}: mode {mode.label} is not resolved on n_x = {run.n_x}"
                          for mode in modes if not mode.resolved(run.n_x))

    if violations:
        raise ConfigError(violations)
    return run
