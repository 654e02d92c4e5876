"""Tests for the run-configuration grammar and its validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosselab.config import KNOWN_KEYS, ConfigError, RunConfig, parse_config
from rosselab.correctors import FourierMode


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


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

    def test_more_than_one_mode_rejected(self, tmp_path):
        # every consumer reads a single mode, so a second one would be
        # silently dropped
        with pytest.raises(ConfigError, match=r"\[harness\] modes .*got 2 modes"):
            parse_config(write_config(tmp_path, "[harness]\nmodes = cos1, sin2\n"))

    def test_step_rule_violation_names_the_rule(self, tmp_path):
        with pytest.raises(ConfigError, match=r"dt <= eps\^2/2"):
            parse_config(write_config(tmp_path, """
[simulation]
epsilon = 0.2
dt = 0.05
t_final = 0.1
"""))

    def test_time_horizon_must_be_a_step_multiple(self, tmp_path):
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config(write_config(tmp_path, """
[simulation]
epsilon = 1.0
dt = 0.03
t_final = 0.1
"""))

    def test_duplicate_epsilons_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(write_config(tmp_path, "[simulation]\nepsilons = 0.2, 0.2\n"))

    def test_velocity_nodes_need_the_quadrature_model(self, tmp_path):
        with pytest.raises(ConfigError, match="velocity_nodes"):
            parse_config(write_config(tmp_path, """
[model]
velocity = two-speed
velocity_nodes = 6
"""))

    def test_sigma_upper_requires_rational_opacity(self, tmp_path):
        with pytest.raises(ConfigError, match="sigma_upper"):
            parse_config(write_config(tmp_path, """
[model]
opacity = constant
sigma_upper = 2.0
"""))

    def test_sigma_bounds_must_be_ordered(self, tmp_path):
        with pytest.raises(ConfigError, match="at least sigma_star"):
            parse_config(write_config(tmp_path, """
[model]
opacity = rational
sigma_star = 2.0
sigma_upper = 1.0
"""))

    def test_bad_choice_lists_options(self, tmp_path):
        with pytest.raises(ConfigError, match="telegraph"):
            parse_config(write_config(tmp_path, "[noise]\nfixture = telegrph\n"))

    def test_dt_scale_cap(self, tmp_path):
        with pytest.raises(ConfigError, match="dt_scale"):
            parse_config(write_config(tmp_path, "[simulation]\ndt_scale = 0.6\n"))

    @pytest.mark.parametrize("text", [
        "n_x = 16\n",
        "[model]\nn_x = 16\n[model]\nvelocity = gt2\n",
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

    def test_constant_opacity_value(self):
        opacity = RunConfig(opacity_kind="constant", sigma_star=0.8).build_opacity()
        assert abs(float(opacity(np.array(3.0))) - 0.8) < 1e-15

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
