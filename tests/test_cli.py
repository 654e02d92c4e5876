"""End-to-end tests of the command line interface and its CSV reports."""

import csv
import io
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import nan_normals, nan_paths
from rosselab import cli, harness, kinetic, noise
from rosselab.cli import format_value, main

ACCEPTANCE_INI = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"

TELEGRAPH_INI = """
[model]
n_x = 16
velocity = two-speed
opacity = rational
sigma_star = 1.0
sigma_upper = 2.0

[noise]
fixture = telegraph
amplitude = 1.0
frequency = 1
rate = 1.0

[simulation]
epsilon = 0.3
epsilons = 0.5, 0.35
t_final = 0.05
rho0_mean = 1.0
rho0_modes = cos1:0.4

[harness]
samples_kinetic = 4
samples_limit = 6
base_seed = 13
"""

HEAT_INI = """
[model]
n_x = 16
velocity = two-speed
opacity = constant
sigma_star = 1.0

[noise]
fixture = off

[simulation]
epsilons = 0.4, 0.2, 0.1
t_final = 0.3
rho0_mean = 1.0
rho0_modes = cos1:0.4
"""


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return header, body


def column(path, name):
    header, body = read_csv(path)
    j = header.index(name)
    return [row[j] for row in body]


def reference_csv(header, rows):
    """The bytes csv.writer writes with every value through format_value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return out.getvalue().encode()


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=arrays(float, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                    elements=st.floats(allow_nan=True, allow_infinity=True)),
        block=st.integers(1, 5),
    )
    def test_float_arrays_match_the_csv_writer(self, tmp_path_factory, rows, block):
        """A float array of rows, formatted in blocks of any size, gives the
        bytes csv.writer writes for the same rows."""
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with mock.patch.object(cli, "CSV_BLOCK_ROWS", block):
            cli.write_csv(path, ["a", "b"], rows)
        assert path.read_bytes() == reference_csv(["a", "b"], list(rows))


class TestNoiseInfo:
    def test_fields_match_closed_forms(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["noise-info", "--config", config, "--out", str(out)]) == 0

        header, body = read_csv(out / "noise_fields.csv")
        assert header == ["x", "n0", "n1", "psi0", "psi1",
                          "drift_paper", "drift_effective"]
        x = np.array([float(r[0]) for r in body])
        paper = np.array([float(r[5]) for r in body])
        # H(x) = -A^2 cos^2(2 pi x) / (2 lambda) for amplitude 1 and rate 1
        expected = -0.5 * np.cos(2.0 * math.pi * x) ** 2
        assert np.max(np.abs(paper - expected)) < 1e-12

        weights = {float(w) for w in column(out / "noise_modes.csv", "weight")}
        # single eigenmode with weight ||n||^2 / lambda = 1/2
        assert len(weights) == 1
        assert abs(weights.pop() - 0.5) < 1e-12

    def test_requires_a_noise_fixture(self, tmp_path, capsys):
        config = write_ini(tmp_path, HEAT_INI)
        assert main(["noise-info", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "off" in capsys.readouterr().err


class TestRunCommands:
    def test_run_spde_takes_the_dt_the_config_accepts(self, tmp_path, capsys):
        # dt = eps^2/8 passes the config's kinetic step rule and the limit
        # solver has no cap of its own, so both run commands accept it
        text = ACCEPTANCE_INI.read_text().replace(
            "[simulation]\n", "[simulation]\nepsilon = 0.25\ndt = 0.0078125\n")
        config = write_ini(tmp_path, text)
        for command in ("run-kinetic", "run-spde"):
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == 0
            assert column(out / "manifest.csv", "value")[-1] == "0.0078125"
        assert "run-spde: 32 steps with effective drift" in capsys.readouterr().out


class TestReproducibility:
    def test_kinetic_rerun_is_byte_identical(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run-kinetic", "--config", config, "--out", str(a)]) == 0
        assert main(["run-kinetic", "--config", config, "--out", str(b)]) == 0
        for name in ("kinetic_density.csv", "kinetic_series.csv", "manifest.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_trajectories(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run-kinetic", "--config", config, "--out", str(a)]) == 0
        assert main(["run-kinetic", "--config", config, "--out", str(b),
                     "--seed", "99"]) == 0
        assert (a / "kinetic_density.csv").read_bytes() != \
            (b / "kinetic_density.csv").read_bytes()
        assert (a / "manifest.csv").read_bytes() != (b / "manifest.csv").read_bytes()

    def test_drift_override_changes_limit_runs(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run-spde", "--config", config, "--out", str(a)]) == 0
        assert main(["run-spde", "--config", config, "--out", str(b),
                     "--drift", "paper"]) == 0
        assert (a / "spde_density.csv").read_bytes() != \
            (b / "spde_density.csv").read_bytes()

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", config, "--out", str(a)]) == 0
        assert main(["sweep", "--config", config, "--out", str(b)]) == 0
        for name in ("sweep.csv", "hs.csv", "diagnostics.csv", "checks.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_does_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch):
        # both ensembles of the sweep chunk through noise.sample_chunks; one
        # sample per chunk must write the bytes one chunk per ensemble does
        config = write_ini(tmp_path, TELEGRAPH_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", config, "--out", str(a), "--samples", "4"]) == 0
        monkeypatch.setattr(noise, "CHUNK_BUDGET", 1)
        assert main(["sweep", "--config", config, "--out", str(b), "--samples", "4"]) == 0
        names = sorted(path.name for path in a.glob("*.csv"))
        assert names == sorted(path.name for path in b.glob("*.csv"))
        assert "sweep.csv" in names and "manifest.csv" in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSweepCommand:
    def test_report_layout(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        header, body = read_csv(out / "sweep.csv")
        assert header == ["epsilon", "functional", "kinetic_mean", "kinetic_sem",
                          "limit_mean", "limit_sem", "gap"]
        assert len(body) == 2 * 3  # two epsilons, three functionals
        names = {row[1] for row in body}
        assert names == {"mode-mean", "mode-var", "normsq-mean"}
        # noise on: the deterministic-error column stays empty
        assert set(column(out / "diagnostics.csv", "det_error")) == {""}

    def test_samples_override_is_recorded(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--samples", "5"]) in (0, 1)
        header, body = read_csv(out / "manifest.csv")
        manifest = dict(body)
        assert manifest["samples_kinetic"] == "5"
        assert manifest["samples_limit"] == "5"

    def test_noise_off_sweep_records_det_errors(self, tmp_path):
        config = write_ini(tmp_path, HEAT_INI)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        errors = [float(v) for v in column(out / "diagnostics.csv", "det_error")]
        assert len(errors) == 3
        assert errors[0] > errors[1] > errors[2] > 0.0
        status = column(out / "checks.csv", "status")
        assert set(status) == {"pass"}


class TestRatesCommand:
    def test_good_fixture_passes(self, tmp_path):
        config = write_ini(tmp_path, HEAT_INI)
        out = tmp_path / "out"
        assert main(["rates", "--config", config, "--out", str(out)]) == 0
        slopes = {float(v) for v in column(out / "rates.csv", "slope")}
        assert len(slopes) == 1
        assert slopes.pop() >= 0.8
        errors = [float(v) for v in column(out / "rates.csv", "error")]
        assert errors[0] > errors[1] > errors[2]


class TestVerifyCommand:
    def test_identities_hold_on_the_telegraph_fixture(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        header, body = read_csv(out / "checks.csv")
        assert header == ["check", "value", "threshold", "status"]
        assert len(body) >= 14
        assert all(row[3] == "pass" for row in body)
        names = {row[0] for row in body}
        assert "telegraph-second-corrector-null" in names
        assert "drift-state-independence" in names

    def test_noise_off_battery_is_shorter_but_passes(self, tmp_path):
        config = write_ini(tmp_path, HEAT_INI)
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        _, body = read_csv(out / "checks.csv")
        assert {row[0] for row in body} == {
            "velocity-mass", "velocity-null-flux", "mode-normalization",
            "relax-dissipation", "transport-duality",
        }


class TestParser:
    def test_options_do_not_leak_between_calls(self, tmp_path):
        seen = []

        def record(setup, out, args):
            seen.append((args.drift, args.samples))
            return 0

        config = write_ini(tmp_path, TELEGRAPH_INI)
        with mock.patch.dict(cli.COMMANDS, {"verify": record}):
            assert main(["verify", "--config", config, "--out", str(tmp_path / "a"),
                         "--drift", "paper", "--samples", "5"]) == 0
            assert main(["verify", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert seen == [("paper", 5), (None, None)]
        assert cli.build_parser() is cli.build_parser()


class TestErrorPaths:
    def test_config_violations_exit_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, "[model]\nsigma_min = 0.5\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "sigma_star" in err

    def test_config_without_section_header_exits_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, "n_x = 16\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "no section headers" in capsys.readouterr().err

    def test_arithmetic_overflow_exits_2(self, tmp_path, capsys):
        # the default step rule squares epsilon, which overflows here
        config = write_ini(tmp_path, "[simulation]\nepsilon = 1e200\n")
        assert main(["run-kinetic", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "run-kinetic: " in capsys.readouterr().err

    def test_solver_errors_exit_2(self, tmp_path, capsys):
        # a grid too coarse for the spatial discretization
        config = write_ini(tmp_path, "[model]\nn_x = 2\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "n_x" in capsys.readouterr().err

    def test_ensemble_sample_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kinetic, "sample_path", nan_paths({1: 0.0}))
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep: sample 1: kinetic field lost finiteness at step 1 " in \
            capsys.readouterr().err

    def test_limit_ensemble_names_lowest_failing_sample(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(harness, "sample_rng", nan_normals({4: 0, 2: 10}))
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep: sample 2: density lost finiteness at step 11 " in \
            capsys.readouterr().err

    def test_noisy_limit_positivity_loss_exits_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, TELEGRAPH_INI.replace("amplitude = 1.0",
                                                           "amplitude = 1000.0"))
        assert main(["run-spde", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert "run-spde: density lost positivity at t = " in capsys.readouterr().err

    def test_tiny_sample_override_rejected(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out"),
                     "--samples", "1"]) == 2
