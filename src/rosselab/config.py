"""Flat sectioned run configuration with strict validation.

The grammar is INI-style: sections [model], [noise], [simulation],
[harness], [output], lowercase keys, ``#`` or ``;`` comments.  Every key has
a default, so a minimal file only overrides what an experiment changes.
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
from .model import Opacity, TorusGrid, VelocityQuadrature, build_velocity_space, make_opacity
from .noise import NoiseModel, cosine_profile, rotor_noise, telegraph_noise

KNOWN_KEYS = {
    "model": ("n_x", "velocity", "velocity_nodes", "opacity", "sigma_star", "sigma_upper"),
    "noise": ("fixture", "amplitude", "frequency", "rate"),
    "simulation": (
        "epsilon", "epsilons", "t_final", "dt", "dt_scale", "snapshot_stride",
        "drift", "rho0_mean", "rho0_modes",
    ),
    "harness": (
        "modes", "samples_kinetic", "samples_limit", "base_seed", "sobolev_order",
        "slack_sigma", "paper_excess_min", "band_max", "slope_min", "heat_gap_max",
        "identity_tol",
    ),
    "output": ("directory",),
}

VELOCITY_CHOICES = ("two-speed", "gt2", "legendre", "cont")
FIXTURE_CHOICES = ("off", "telegraph", "rotor3")
DRIFT_CHOICES = ("effective", "paper")


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
        if self.opacity_kind == "constant":
            return make_opacity("constant", value=self.sigma_star)
        return make_opacity("rational", s0=self.sigma_star,
                            s1=self.sigma_upper - self.sigma_star)

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


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


class _Reader:
    """Typed option access that records violations instead of raising."""

    def __init__(self, parser: configparser.ConfigParser, violations: list[str]):
        self.parser = parser
        self.violations = violations

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_option(section, key)

    def raw(self, section: str, key: str) -> str | None:
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        return None

    def value(self, section: str, key: str, default, conv, description: str):
        text = self.raw(section, key)
        if text is None:
            return default
        try:
            return conv(text)
        except (ValueError, TypeError) as exc:
            self.violations.append(f"[{section}] {key} = {text!r}: expected {description} ({exc})")
            return default

    def choice(self, section: str, key: str, default: str, choices) -> str:
        text = self.raw(section, key)
        if text is None:
            return default
        low = text.lower()
        if low not in choices:
            options = ", ".join(choices)
            self.violations.append(
                f"[{section}] {key} = {text!r}: must be one of {options}{_suggest(low, choices)}"
            )
            return default
        return low


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


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Raises ConfigError listing every violation (unknown keys, type errors,
    and broken cross-field rules such as the kinetic step cap).
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
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
    reader = _Reader(parser, violations)
    defaults = RunConfig()

    n_x = reader.value("model", "n_x", defaults.n_x, _positive_int, "a positive integer")
    velocity = reader.choice("model", "velocity", defaults.velocity, VELOCITY_CHOICES)
    velocity_nodes = reader.value("model", "velocity_nodes", None, _positive_int,
                                  "a positive integer")
    opacity_kind = reader.choice("model", "opacity", defaults.opacity_kind,
                                 ("constant", "rational"))
    sigma_star = reader.value("model", "sigma_star", defaults.sigma_star,
                              _positive_float, "a positive number")
    sigma_upper = reader.value("model", "sigma_upper", defaults.sigma_upper,
                               _positive_float, "a positive number")

    fixture = reader.choice("noise", "fixture", defaults.fixture, FIXTURE_CHOICES)
    amplitude = reader.value("noise", "amplitude", defaults.amplitude, _finite_float,
                             "a finite number")
    frequency = reader.value("noise", "frequency", defaults.frequency, _positive_int,
                             "a positive integer")
    rate = reader.value("noise", "rate", defaults.rate, _positive_float,
                        "a positive number")

    epsilon = reader.value("simulation", "epsilon", defaults.epsilon, _positive_float,
                           "a positive number")
    epsilons = reader.value("simulation", "epsilons", defaults.epsilons, _epsilon_list,
                            "a comma-separated list of distinct positive numbers")
    t_final = reader.value("simulation", "t_final", defaults.t_final, _positive_float,
                           "a positive number")
    dt = reader.value("simulation", "dt", defaults.dt, _dt_rule,
                      "'auto' or a positive number")
    dt_scale = reader.value("simulation", "dt_scale", defaults.dt_scale, _positive_float,
                            "a positive number")
    snapshot_stride = reader.value("simulation", "snapshot_stride",
                                   defaults.snapshot_stride, _positive_int,
                                   "a positive integer")
    drift = reader.choice("simulation", "drift", defaults.drift, DRIFT_CHOICES)
    rho0_mean = reader.value("simulation", "rho0_mean", defaults.rho0_mean,
                             _finite_float, "a finite number")
    rho0_modes = reader.value("simulation", "rho0_modes", defaults.rho0_modes,
                              _weighted_modes, "a list like 'cos1:0.5, sin2:0.1'")

    modes = reader.value("harness", "modes", defaults.modes, _mode_list,
                         "a single mode like 'cos1'")
    samples_kinetic = reader.value("harness", "samples_kinetic",
                                   defaults.samples_kinetic, _positive_int,
                                   "a positive integer")
    samples_limit = reader.value("harness", "samples_limit", defaults.samples_limit,
                                 _positive_int, "a positive integer")
    base_seed = reader.value("harness", "base_seed", defaults.base_seed, _seed,
                             "a nonnegative integer")
    sobolev_order = reader.value("harness", "sobolev_order", defaults.sobolev_order,
                                 _positive_float, "a positive number")
    slack_sigma = reader.value("harness", "slack_sigma", defaults.slack_sigma,
                               _positive_float, "a positive number")
    paper_excess_min = reader.value("harness", "paper_excess_min",
                                    defaults.paper_excess_min, _positive_float,
                                    "a positive number")
    band_max = reader.value("harness", "band_max", defaults.band_max, _positive_float,
                            "a positive number")
    slope_min = reader.value("harness", "slope_min", defaults.slope_min,
                             _positive_float, "a positive number")
    heat_gap_max = reader.value("harness", "heat_gap_max", defaults.heat_gap_max,
                                _positive_float, "a positive number")
    identity_tol = reader.value("harness", "identity_tol", defaults.identity_tol,
                                _positive_float, "a positive number")

    out_dir = reader.value("output", "directory", defaults.out_dir, str, "a path")

    if velocity in ("two-speed", "gt2") and reader.has("model", "velocity_nodes"):
        violations.append("[model] velocity_nodes requires velocity = legendre")
    if opacity_kind == "constant" and reader.has("model", "sigma_upper"):
        violations.append("[model] sigma_upper applies to the rational opacity only")
    if opacity_kind == "rational" and sigma_upper < sigma_star:
        violations.append(
            f"[model] sigma_upper = {sigma_upper:g} must be at least sigma_star = {sigma_star:g}"
        )
    if fixture != "off" and amplitude == 0.0:
        violations.append("[noise] amplitude must be nonzero when a fixture is on")
    if dt is not None and dt > 0.5 * epsilon**2 * (1.0 + 1e-9):
        violations.append(
            f"[simulation] dt = {dt:g} violates the step rule dt <= eps^2/2 "
            f"(eps = {epsilon:g} gives cap {0.5 * epsilon**2:g})"
        )
    if dt is not None and abs(round(t_final / dt) * dt - t_final) > 1e-9 * t_final:
        violations.append(
            f"[simulation] t_final = {t_final:g} is not an integer multiple of dt = {dt:g}"
        )
    if dt_scale > 0.5 * (1.0 + 1e-9):
        violations.append(
            f"[simulation] dt_scale = {dt_scale:g} violates the step rule dt <= eps^2/2"
        )
    if samples_kinetic < 2 or samples_limit < 2:
        violations.append("[harness] sample counts must be at least 2")

    if violations:
        raise ConfigError(violations)
    return RunConfig(
        n_x=n_x,
        velocity=velocity,
        velocity_nodes=velocity_nodes,
        opacity_kind=opacity_kind,
        sigma_star=sigma_star,
        sigma_upper=sigma_upper,
        fixture=fixture,
        amplitude=amplitude,
        frequency=frequency,
        rate=rate,
        epsilon=epsilon,
        epsilons=epsilons,
        t_final=t_final,
        dt=dt,
        dt_scale=dt_scale,
        snapshot_stride=snapshot_stride,
        drift=drift,
        rho0_mean=rho0_mean,
        rho0_modes=rho0_modes,
        modes=modes,
        samples_kinetic=samples_kinetic,
        samples_limit=samples_limit,
        base_seed=base_seed,
        sobolev_order=sobolev_order,
        slack_sigma=slack_sigma,
        paper_excess_min=paper_excess_min,
        band_max=band_max,
        slope_min=slope_min,
        heat_gap_max=heat_gap_max,
        identity_tol=identity_tol,
        out_dir=out_dir,
    )
