"""Tests for the run-configuration grammar and its validation."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rosselab.config import KEYS, KNOWN_KEYS, ConfigError, RunConfig, parse_config
from rosselab.correctors import FourierMode
from rosselab.kinetic import KineticConfig, check_dt_scale, check_step
from rosselab.limit import SpdeConfig
from rosselab.model import Opacity, TorusGrid, build_velocity_space, check_sobolev_order, check_whole_steps
from rosselab.noise import sample_chunks


README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def violations(tmp_path, text):
    """The violation list parse_config reports for text, [] when it parses."""
    try:
        parse_config(write_config(tmp_path, text))
    except ConfigError as exc:
        return exc.violations
    return []


class TestParsing:
    def test_empty_file_yields_defaults(self, tmp_path):
        run = parse_config(write_config(tmp_path, ""))
        assert run == RunConfig()

    def test_minimal_fixture_file_is_valid(self, tmp_path):
        run = parse_config(write_config(tmp_path, """
[model]
velocity = two-speed

[noise]
fixture = telegraph
"""))
        assert run.velocity == "two-speed"
        assert run.fixture == "telegraph"

    def test_defaults_describe_the_standard_fixture(self):
        run = RunConfig()
        assert run.n_x == 32
        assert run.epsilons == (0.5, 0.25, 0.125)
        assert run.rho0_modes == ((FourierMode(1, "cos"), 0.5),)
        assert run.drift == "effective"

    def test_values_are_parsed_and_typed(self, tmp_path):
        run = parse_config(write_config(tmp_path, """
[model]
n_x = 64
velocity = legendre
velocity_nodes = 6
opacity = constant
sigma_star = 0.7

[simulation]
epsilon = 0.1
epsilons = 0.1, 0.4, 0.2
dt = 0.005
t_final = 0.4
rho0_mean = 2.0
rho0_modes = cos2:0.25, sin1:-0.5

[harness]
modes = sin2
samples_kinetic = 10
base_seed = 99
"""))
        assert run.n_x == 64 and run.velocity_nodes == 6
        assert run.opacity_kind == "constant" and run.sigma_star == 0.7
        assert run.epsilons == (0.4, 0.2, 0.1)
        assert run.dt == 0.005
        assert run.rho0_modes == ((FourierMode(2, "cos"), 0.25),
                                  (FourierMode(1, "sin"), -0.5))
        assert run.modes == (FourierMode(2, "sin"),)
        assert run.samples_kinetic == 10 and run.base_seed == 99

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.ini"))

    def test_comments_are_ignored(self, tmp_path):
        run = parse_config(write_config(tmp_path, """
# full-line comment
[model]
n_x = 16  ; trailing comment
"""))
        assert run.n_x == 16


class TestValidation:
    def test_unknown_key_suggests_close_match(self, tmp_path):
        with pytest.raises(ConfigError, match="sigma_star"):
            parse_config(write_config(tmp_path, "[model]\nsigma_min = 0.5\n"))

    def test_unknown_section_suggests_close_match(self, tmp_path):
        with pytest.raises(ConfigError, match="'noise'"):
            parse_config(write_config(tmp_path, "[noize]\nfixture = telegraph\n"))

    def test_all_violations_are_collected(self, tmp_path):
        try:
            parse_config(write_config(tmp_path, """
[model]
sigma_min = 0.5
n_x = three

[simulation]
epsilon = 0.2
dt = 0.05
t_final = 0.1
"""))
        except ConfigError as exc:
            assert len(exc.violations) == 3
        else:
            pytest.fail("expected a ConfigError")

    @pytest.mark.parametrize("text", [
        "n_x = 16\n",
        "[model]\nn_x = 16\n[model]\nvelocity = two-speed\n",
        "[model]\nn_x = 16\nn_x = 32\n",
        "[model]\nn_x = 16\ngarbage line\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key", "garbage-line"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, text):
        with pytest.raises(ConfigError, match="cannot parse config file"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("text", [
        "[simulation]\nepsilon = 1e200\ndt = 1\n",
        "[simulation]\nt_final = 1e300\ndt = 1e-300\n",
    ], ids=["huge-epsilon", "step-count-overflow"])
    def test_extreme_step_rules_are_violations_not_overflows(self, tmp_path, text):
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config(write_config(tmp_path, text))

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[model]\nn_x = \xff\xfe\n")
        with pytest.raises(ConfigError, match="cannot parse config file"):
            parse_config(str(path))


_SECTIONS = [*KNOWN_KEYS, "modle", "DEFAULT", ""]
_KEYS = [key for keys in KNOWN_KEYS.values() for key in keys] + ["n_y", ""]
_VALUES = st.one_of(
    st.sampled_from([
        "auto", "off", "telegraph", "rotor3", "legendre", "constant", "paper",
        "cos1", "sin0", "cos1, sin2", "cos1:0.5", "sin2:x", "0", "-1", "3", "nan",
        "inf", "1e308", "1e-308", "1e200", "1e-200", "0.5, 0.5", ",", "",
    ]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_LINES = st.one_of(
    st.sampled_from(_SECTIONS).map(lambda name: f"[{name}]"),
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", ":", " = ", ""]), _VALUES)
    .map("".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=14))
def test_fuzzed_ini_raises_only_config_errors(tmp_path_factory, lines):
    """Whatever the text, parse_config returns a RunConfig or raises a
    ConfigError (which the command line turns into exit code 2)."""
    path = tmp_path_factory.mktemp("fuzz") / "run.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        assert isinstance(parse_config(str(path)), RunConfig)
    except ConfigError:
        pass


# --- the parser's exact output -------------------------------------------

#: one bad value per key of KEYS and the exact violations it gives; a path
#: takes any text
BAD_VALUES = {
    "n_x": ("three", ["[model] n_x = 'three': expected a positive integer "
                      "(invalid literal for int() with base 10: 'three')"]),
    "velocity": ("four-speed", ["[model] velocity = 'four-speed': must be one of two-speed, "
                                "legendre; did you mean 'two-speed'?"]),
    "velocity_nodes": ("0", ["[model] velocity_nodes = '0': expected a positive integer "
                             "(must be a positive integer)",
                             "[model] velocity_nodes requires velocity = legendre"]),
    "opacity": ("linear", ["[model] opacity = 'linear': must be one of constant, rational"]),
    "sigma_star": ("-1", ["[model] sigma_star = '-1': expected a positive number "
                          "(must be a positive finite number)"]),
    "sigma_upper": ("0", ["[model] sigma_upper = '0': expected a positive number "
                          "(must be a positive finite number)"]),
    "fixture": ("none", ["[noise] fixture = 'none': must be one of off, telegraph, rotor3"]),
    "amplitude": ("nan", ["[noise] amplitude = 'nan': expected a finite number "
                          "(must be finite)"]),
    "frequency": ("1.5", ["[noise] frequency = '1.5': expected a positive integer "
                          "(invalid literal for int() with base 10: '1.5')"]),
    "rate": ("0", ["[noise] rate = '0': expected a positive number "
                   "(must be a positive finite number)"]),
    "epsilon": ("-0.25", ["[simulation] epsilon = '-0.25': expected a positive number "
                          "(must be a positive finite number)"]),
    "epsilons": ("0.5, 0.5", ["[simulation] epsilons = '0.5, 0.5': expected a "
                              "comma-separated list of distinct positive numbers "
                              "(epsilons must be distinct)"]),
    "t_final": ("inf", ["[simulation] t_final = 'inf': expected a positive number "
                        "(must be a positive finite number)"]),
    "dt": ("fast", ["[simulation] dt = 'fast': expected 'auto' or a positive number "
                    "(could not convert string to float: 'fast')"]),
    "dt_scale": ("0", ["[simulation] dt_scale = '0': expected a positive number "
                       "(must be a positive finite number)"]),
    "snapshot_stride": ("0", ["[simulation] snapshot_stride = '0': expected a positive "
                              "integer (must be a positive integer)"]),
    "drift": ("ito", ["[simulation] drift = 'ito': must be one of effective, paper"]),
    "rho0_mean": ("inf", ["[simulation] rho0_mean = 'inf': expected a finite number "
                          "(must be finite)"]),
    "rho0_modes": ("cos1", ["[simulation] rho0_modes = 'cos1': expected a list like "
                            "'cos1:0.5, sin2:0.1' ('cos1' is not of the form mode:amplitude)"]),
    "modes": ("cos1, sin2", ["[harness] modes = 'cos1, sin2': expected a single mode like "
                             "'cos1' (got 2 modes; the sweep and verify read exactly one)"]),
    "samples_kinetic": ("-5", ["[harness] samples_kinetic = '-5': expected a positive "
                               "integer (must be a positive integer)"]),
    "samples_limit": ("many", ["[harness] samples_limit = 'many': expected a positive "
                               "integer (invalid literal for int() with base 10: 'many')"]),
    "base_seed": ("-1", ["[harness] base_seed = '-1': expected a nonnegative integer "
                         "(must be a nonnegative integer)"]),
    "sobolev_order": ("0", ["[harness] sobolev_order = '0': expected a positive number "
                            "(must be a positive finite number)"]),
    "slack_sigma": ("-1", ["[harness] slack_sigma = '-1': expected a positive number "
                           "(must be a positive finite number)"]),
    "paper_excess_min": ("nan", ["[harness] paper_excess_min = 'nan': expected a positive "
                                 "number (must be a positive finite number)"]),
    "band_max": ("0", ["[harness] band_max = '0': expected a positive number "
                       "(must be a positive finite number)"]),
    "slope_min": ("x", ["[harness] slope_min = 'x': expected a positive number "
                        "(could not convert string to float: 'x')"]),
    "heat_gap_max": ("-0.02", ["[harness] heat_gap_max = '-0.02': expected a positive "
                               "number (must be a positive finite number)"]),
    "identity_tol": ("0", ["[harness] identity_tol = '0': expected a positive number "
                           "(must be a positive finite number)"]),
    "directory": ("", []),
}

#: a near miss for each choice key, so the suggestion is pinned too
NEAR_MISSES = {
    "velocity": ("Legendr", ["[model] velocity = 'Legendr': must be one of two-speed, "
                             "legendre; did you mean 'legendre'?"]),
    "opacity": ("constnt", ["[model] opacity = 'constnt': must be one of constant, "
                            "rational; did you mean 'constant'?"]),
    "fixture": ("telegrph", ["[noise] fixture = 'telegrph': must be one of off, telegraph, "
                             "rotor3; did you mean 'telegraph'?"]),
    "drift": ("papr", ["[simulation] drift = 'papr': must be one of effective, paper; "
                       "did you mean 'paper'?"]),
}

#: one input per cross-field rule
CROSS_FIELD = {
    "velocity-nodes-need-legendre": (
        "[model]\nvelocity = two-speed\nvelocity_nodes = 4\n",
        ["[model] velocity_nodes requires velocity = legendre"]),
    "sigma-upper-needs-rational": (
        "[model]\nopacity = constant\nsigma_upper = 3.0\n",
        ["[model] sigma_upper applies to the rational opacity only"]),
    "sigma-bounds-ordered": (
        "[model]\nsigma_star = 2.5\nsigma_upper = 1.5\n",
        ["[model] sigma_upper = 1.5 must be at least sigma_star = 2.5"]),
    "amplitude-nonzero": (
        "[noise]\nfixture = rotor3\namplitude = 0\n",
        ["[noise] amplitude must be nonzero when a fixture is on"]),
    "dt-step-cap": (
        "[simulation]\nepsilon = 0.2\ndt = 0.05\nt_final = 0.1\n",
        ["[simulation] dt = 0.05 violates the step rule dt <= eps^2/2 "
         "(eps = 0.2 gives cap 0.02)"]),
    "t-final-step-multiple": (
        "[simulation]\nepsilon = 1.0\ndt = 0.03\nt_final = 0.1\n",
        ["[simulation] t_final = 0.1 is not an integer multiple of dt = 0.03"]),
    "dt-scale-cap": (
        "[simulation]\ndt_scale = 0.6\n",
        ["[simulation] dt_scale = 0.6 violates the step rule dt <= eps^2/2"]),
    "sample-counts": (
        "[harness]\nsamples_limit = 1\n",
        ["[harness] samples_limit = 1: n_samples must be at least 2"]),
    "sobolev-order-bound": (
        "[harness]\nsobolev_order = 0.5\n",
        ["[harness] Sobolev order 0.5 must be positive and below half the smoothing "
         "exponent 1.0 of the velocity space"]),
    "rho0-modes-resolved": (
        "[model]\nn_x = 16\n[simulation]\nrho0_modes = cos1:0.5, cos8:0.3\n",
        ["[simulation] rho0_modes: mode cos8 is not resolved on n_x = 16"]),
    "harness-mode-resolved": (
        "[model]\nn_x = 16\n[harness]\nmodes = sin8\n",
        ["[harness] modes: mode sin8 is not resolved on n_x = 16"]),
}

_SECTION_OF = {key: section for section, key, *_ in KEYS}


def test_bad_values_cover_every_key():
    assert sorted(BAD_VALUES) == sorted(_SECTION_OF)


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_bad_value_violations_are_pinned(tmp_path, key):
    value, expected = BAD_VALUES[key]
    assert violations(tmp_path, f"[{_SECTION_OF[key]}]\n{key} = {value}\n") == expected


@pytest.mark.parametrize("key", list(NEAR_MISSES))
def test_near_miss_choices_are_pinned(tmp_path, key):
    value, expected = NEAR_MISSES[key]
    assert violations(tmp_path, f"[{_SECTION_OF[key]}]\n{key} = {value}\n") == expected


@pytest.mark.parametrize("rule", list(CROSS_FIELD))
def test_cross_field_violations_are_pinned(tmp_path, rule):
    text, expected = CROSS_FIELD[rule]
    assert violations(tmp_path, text) == expected


#: one input per rule of the grid and velocity builders, which the parser
#: reports in the builders' own words
BUILDER_RULES = {
    "grid-size": ("[model]\nn_x = 3\n", ["[model] n_x must be at least 4, got 3"]),
    "legendre-nodes": ("[model]\nvelocity = legendre\nvelocity_nodes = 1\n",
                       ["[model] need at least 2 velocity nodes, got 1"]),
    "legendre-node-ceiling": ("[model]\nvelocity = legendre\nvelocity_nodes = 257\n",
                              ["[model] need at most 256 velocity nodes, got 257"]),
}


@pytest.mark.parametrize("rule", list(BUILDER_RULES))
def test_builder_violations_are_pinned(tmp_path, rule):
    text, expected = BUILDER_RULES[rule]
    assert violations(tmp_path, text) == expected


def test_keys_name_exactly_the_config_fields():
    named = sorted(field for _, _, field, *_ in KEYS)
    assert named == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_readme_config_block_is_the_default_config(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    assert parse_config(write_config(tmp_path, block)) == RunConfig()
    missing = [key for _, key, *_ in KEYS if not re.search(rf"\b{key} =", block)]
    assert missing == []


class TestBuilders:
    def test_grid_and_quadrature(self):
        run = RunConfig(n_x=16, velocity="legendre", velocity_nodes=4)
        grid = run.build_grid()
        quad = run.build_quad()
        assert grid.n_x == 16
        assert quad.n_v == 4

    def test_opacity_interpolates_between_bounds(self):
        opacity = RunConfig(opacity_kind="rational", sigma_star=1.0,
                            sigma_upper=2.0).build_opacity()
        assert opacity.sigma_star == 1.0
        assert abs(float(opacity(np.array(0.0))) - 2.0) < 1e-12
        assert float(opacity(np.array(100.0))) < 1.001

    def test_constant_opacity_value(self, tmp_path):
        run = parse_config(write_config(tmp_path, "[model]\nopacity = constant\n"
                                                  "sigma_star = 0.8\n"))
        opacity = run.build_opacity()
        assert opacity.sigma_star == opacity.sigma_upper == 0.8
        assert opacity.spread == 0.0
        assert float(opacity(np.array(3.0))) == 0.8

    def test_noise_builders(self):
        run = RunConfig(fixture="off")
        assert run.build_noise(run.build_grid()) is None
        run = RunConfig(fixture="telegraph", amplitude=1.0, rate=2.0)
        model = run.build_noise(run.build_grid())
        assert model.n_states == 2
        run = RunConfig(fixture="rotor3", amplitude=1.0, frequency=2, rate=2.0)
        model = run.build_noise(run.build_grid())
        assert model.n_states == 3

    def test_initial_profile(self):
        run = RunConfig(
            n_x=16, rho0_mean=2.0,
            rho0_modes=((FourierMode(1, "cos"), 0.5), (FourierMode(2, "sin"), -0.25)),
        )
        grid = run.build_grid()
        x = grid.axis_points()
        expected = (2.0 + 0.5 * np.cos(2.0 * math.pi * x)
                    - 0.25 * np.sin(4.0 * math.pi * x))
        assert np.max(np.abs(run.build_rho0(grid) - expected)) < 1e-14


# --- parse and run agree ---------------------------------------------------

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_COUNT = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
_SECTIONS_OF_OWNED = {"sigma_star": "model", "sigma_upper": "model", "epsilon": "simulation",
                      "t_final": "simulation", "dt": "simulation", "dt_scale": "simulation",
                      "sobolev_order": "harness", "samples_kinetic": "harness",
                      "samples_limit": "harness"}


def _near(draw, value):
    """Any positive finite float, or value halved, doubled or nudged across
    the 1e-9 slack of the step rules."""
    nudged = [v for v in (0.5 * value, value * (1.0 - 5e-9), math.nextafter(value, 0.0), value,
                          value * (1.0 + 5e-10), value * (1.0 + 5e-9), 2.0 * value) if 0.0 < v < math.inf]
    return draw(st.one_of(_POSITIVE, st.sampled_from(nudged)) if nudged else _POSITIVE)


def _owned(**values):
    """The default config's owned values, with values in place of some."""
    run = RunConfig()
    return {key: values.get(key, getattr(run, key)) for key in _SECTIONS_OF_OWNED}


@st.composite
def _owned_values(draw):
    """The default config's owned values with some rules' inputs redrawn,
    each in its converter's domain and often at the owner's boundary; dt
    None is 'auto'."""
    values = _owned()
    varied = draw(st.sets(st.sampled_from(["sigma", "step", "dt_scale", "sobolev_order", "samples"]),
                          min_size=1))
    if "sigma" in varied:
        values["sigma_star"] = draw(_POSITIVE)
        values["sigma_upper"] = _near(draw, values["sigma_star"])
    if "step" in varied:
        epsilon = values["epsilon"] = draw(_POSITIVE)
        dt = values["dt"] = draw(st.one_of(st.none(), st.just(_near(draw, 0.5 * epsilon * epsilon))))
        values["t_final"] = draw(_POSITIVE) if dt is None else _near(draw, draw(st.integers(1, 1000)) * dt)
    for key in ("dt_scale", "sobolev_order"):
        if key in varied:
            values[key] = _near(draw, 0.5)
    if "samples" in varied:
        values["samples_kinetic"], values["samples_limit"] = draw(_COUNT), draw(_COUNT)
    return values


def _owner_violations(values) -> list[str]:
    """What the owners of the rules refuse, each as '[section] message'
    (a sample count also names its key, which its owner does not know)."""
    found = []

    def apply(where, rule, *args):
        try:
            rule(*args)
        except ValueError as exc:
            found.append(f"{where} {exc}")

    apply("[model]", Opacity, values["sigma_star"], values["sigma_upper"])
    if values["dt"] is not None:
        apply("[simulation]", check_step, values["epsilon"], values["dt"])
        apply("[simulation]", check_whole_steps, values["t_final"], values["dt"])
    apply("[simulation]", check_dt_scale, values["dt_scale"])
    for key in ("samples_kinetic", "samples_limit"):
        apply(f"[harness] {key} = {values[key]}:", sample_chunks, values[key], 1, None)
    apply("[harness]", check_sobolev_order, values["sobolev_order"])
    return found


@settings(max_examples=200, deadline=None)
@given(values=_owned_values())
@example(values=_owned(dt_scale=0.5000000001))
@example(values=_owned(sobolev_order=0.5))
@example(values=_owned(epsilon=1.0, t_final=1e300, dt=1e-300))
@example(values=_owned(samples_limit=1))
@example(values=_owned(epsilon=0.2, t_final=0.0200000001, dt=0.0200000001))
@example(values=_owned(epsilon=1e200, t_final=1.0, dt=0.5))
@example(values=_owned(epsilon=1e-160, t_final=1.0, dt=0.5))
def test_parse_refuses_exactly_what_the_owners_refuse(tmp_path_factory, values):
    """parse_config reports each broken owner rule as '[section] ' and the
    owner's words, and nothing else; the solver configurations refuse an
    explicit dt in the words of its first broken rule."""
    lines = {section: [] for section in dict.fromkeys(_SECTIONS_OF_OWNED.values())}
    for key, value in values.items():
        if value is not None:
            lines[_SECTIONS_OF_OWNED[key]].append(f"{key} = {value!r}")
    path = tmp_path_factory.getbasetemp() / "owned.ini"
    path.write_text("".join(f"[{section}]\n" + "\n".join(keys) + "\n"
                            for section, keys in lines.items()))
    expected = _owner_violations(values)
    try:
        parse_config(str(path))
    except ConfigError as exc:
        assert exc.violations == expected
    else:
        assert expected == []

    dt, t_final, epsilon = values["dt"], values["t_final"], values["epsilon"]
    if dt is None:
        return
    steps = [v for v in expected if v.startswith("[simulation] t_final =")]
    configs = [
        (lambda: KineticConfig(TorusGrid(4), build_velocity_space("two-speed"), Opacity(1.0, 1.0),
                               epsilon, t_final, dt),
         [v for v in expected if v.startswith(("[simulation] epsilon =", "[simulation] dt ="))] + steps),
        (lambda: SpdeConfig(TorusGrid(4), Opacity(1.0, 1.0), 1.0, t_final, dt), steps),
    ]
    for build, refusals in configs:
        try:
            build()
        except ValueError as exc:
            assert refusals and f"[simulation] {exc}" == refusals[0]
        else:
            assert refusals == []
