"""End-to-end tests of the command line interface and its CSV reports."""

import csv
import io
import math
import re
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
from rosselab.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_INI = ROOT / "configs" / "acceptance.ini"

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

    def test_samples_override_is_recorded(self, tmp_path):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--samples", "5"]) in (0, 1)
        header, body = read_csv(out / "manifest.csv")
        manifest = dict(body)
        assert manifest["samples_kinetic"] == "5"
        assert manifest["samples_limit"] == "5"

    @pytest.mark.parametrize("drift,status", [("effective", "pass"), ("paper", "FAIL")])
    def test_gap_monotone_judges_the_written_gaps(self, tmp_path, monkeypatch, drift, status):
        # effective-drift gaps shrink with epsilon while paper-drift gaps grow
        def row(eps, gap, gap_paper):
            return harness.SweepRow(
                eps, harness.FunctionalTriple(np.ones(3), np.zeros(3)),
                np.full(3, gap), np.full(3, 0.01), np.full(3, gap_paper), np.full(3, 0.01),
                sup_energy_mean=1.0, defect_integral_mean=1.0, sobolev_mean=1.0)

        limit = harness.FunctionalTriple(np.ones(3), np.zeros(3))
        report = harness.SweepReport((row(0.5, 0.3, 0.1), row(0.35, 0.1, 0.3)), limit, limit, 0.4)
        assert report.gaps_nonincreasing(1.0, drift) == (status == "pass")
        monkeypatch.setattr(cli, "epsilon_sweep", lambda *args, **kwargs: report)
        config = write_ini(tmp_path, TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--drift", drift]) == (0 if status == "pass" else 1)
        written = {"effective": [0.3] * 3 + [0.1] * 3, "paper": [0.1] * 3 + [0.3] * 3}
        assert [float(v) for v in column(out / "sweep.csv", "gap")] == written[drift]
        _, body = read_csv(out / "checks.csv")
        assert ["gap-monotone", status] in [[r[0], r[3]] for r in body]


    def test_dt_scale_within_the_step_cap_slack_sweeps(self, tmp_path):
        # parse_config and the sweep allow the step cap's 1e-9 relative slack
        text = ACCEPTANCE_INI.read_text().replace("dt_scale = 0.03125", "dt_scale = 0.5000000001")
        config = write_ini(tmp_path, text)
        assert parse_config(config).dt_scale == 0.5000000001
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--samples", "2"]) in (0, 1)
        assert len(read_csv(out / "sweep.csv")[1]) == 3 * 3


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_density_exits_2(self, tmp_path, capsys):
        # a constant density is a steady state of both equations, so every
        # error is 0 and no slope exists
        config = write_ini(tmp_path, HEAT_INI.replace("cos1:0.4", "cos0:0.3"))
        assert main(["rates", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "rates: non-positive errors against the limit solution (eps = 0.4: 0, "
            "eps = 0.2: 0, eps = 0.1: 0); a log-log slope needs positive errors\n")


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

    def test_rank_zero_kernel_passes_the_full_battery(self, tmp_path):
        # the kernel of this amplitude clips to rank 0: no mode survives
        text = ACCEPTANCE_INI.read_text().replace("amplitude = 1.4142135623730951",
                                                  "amplitude = 1e-170")
        out = tmp_path / "out"
        assert main(["verify", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 0
        _, body = read_csv(out / "checks.csv")
        assert len(body) == 16
        assert all(row[3] == "pass" for row in body)
        assert "telegraph-mode-weight" in {row[0] for row in body}

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

        def record(setup, args):
            seen.append((args.drift, args.samples))
            return {}, None, setup.run.base_seed, ()

        config = write_ini(tmp_path, TELEGRAPH_INI)
        with mock.patch.dict(cli.COMMANDS, {"sweep": record}):
            assert main(["sweep", "--config", config, "--out", str(tmp_path / "a"),
                         "--drift", "paper", "--samples", "5"]) == 0
            assert main(["sweep", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert seen == [("paper", 5), (None, None)]
        assert cli.build_parser() is cli.build_parser()

    def test_readme_command_examples_parse(self):
        """Every ``rosselab ...`` line of the README's Command line block
        parses, and the block shows each subcommand once, in order."""
        section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
        block = re.search(r"```\n(rosselab .*?)```", section, re.S).group(1)
        argvs = [line.split()[1:] for line in block.splitlines()]
        assert [argv[0] for argv in argvs] == list(cli.COMMANDS)
        for argv in argvs:
            assert cli.build_parser().parse_args(argv).command == argv[0]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_command_takes_only_the_flags_it_reads(self, tmp_path, command):
        values = {"--seed": "7", "--drift": "paper", "--samples": "5"}
        own = {"run-spde": ["--seed", "--drift"],
               "sweep": ["--seed", "--drift", "--samples"]}.get(command, ["--seed"])
        argv = [command, "--config", "run.ini", "--out", "out"]
        args = cli.build_parser().parse_args(argv + [t for f in own for t in (f, values[f])])
        assert sorted(vars(args)) == sorted(["command", "config", "out"]
                                            + [f[2:] for f in own])
        config = write_ini(tmp_path, TELEGRAPH_INI)
        for flag in sorted(set(values) - set(own)):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", config, flag, values[flag]])
            assert exc.value.code == 2


class TestReporting:
    """``main`` writes the command's tables, manifest.csv and, for the
    commands that return checks, checks.csv, and turns their FAIL rows into
    the exit code; a run that exits 2 leaves no output directory."""

    #: the files each command's output directory holds
    FILES = {"noise-info": ["noise_fields.csv", "noise_modes.csv"],
             "run-kinetic": ["kinetic_density.csv", "kinetic_series.csv"],
             "run-spde": ["spde_density.csv", "spde_series.csv"],
             "sweep": ["sweep.csv", "hs.csv", "diagnostics.csv", "checks.csv"],
             "rates": ["rates.csv", "checks.csv"],
             "verify": ["checks.csv"]}

    #: a config on which the command exits nonzero
    BREACH = {"noise-info": HEAT_INI,
              "sweep": TELEGRAPH_INI + "band_max = 0.5\n",
              "rates": HEAT_INI + "[harness]\nslope_min = 100\n",
              "verify": TELEGRAPH_INI + "identity_tol = 1e-30\n"}

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_main_writes_the_reports_and_sets_the_exit_code(self, tmp_path, capsys, command):
        config = write_ini(tmp_path, HEAT_INI if command == "rates" else TELEGRAPH_INI)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert dict(read_csv(out / "manifest.csv")[1])["command"] == command
        assert sorted(p.name for p in out.iterdir()) == sorted(self.FILES[command]
                                                               + ["manifest.csv"])
        if command not in self.BREACH:
            return

        out = tmp_path / "breach"
        code = main([command, "--config", write_ini(tmp_path, self.BREACH[command], "breach.ini"),
                     "--out", str(out)])
        captured = capsys.readouterr()
        if command == "noise-info":
            assert code == 2
            assert captured.err == "noise-info: the configured noise fixture is 'off'\n"
            assert not out.exists()
            return
        status = column(out / "checks.csv", "status")
        assert code == 1 and "FAIL" in status
        assert captured.err == f"{command}: {status.count('FAIL')} check(s) failed, see checks.csv\n"
        if command == "verify":
            printed = [line.split()[-1] for line in captured.out.splitlines()]
            assert printed == status


class TestErrorPaths:
    def test_config_violations_exit_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, "[model]\nsigma_min = 0.5\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "sigma_star" in err

    def test_config_without_section_header_exits_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, "n_x = 16\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "no section headers" in capsys.readouterr().err

    def test_arithmetic_overflow_exits_2(self, tmp_path, capsys):
        # the default step rule squares epsilon, which overflows here
        config = write_ini(tmp_path, "[simulation]\nepsilon = 1e200\n")
        assert main(["run-kinetic", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "run-kinetic: " in err
        assert "epsilon = 1e+200 is too large: eps^2 overflows" in err

    @pytest.mark.parametrize("command", ["rates", "sweep"])
    def test_epsilon_overflow_is_named_in_the_epsilon_list(self, tmp_path, capsys, command):
        config = write_ini(tmp_path, "[simulation]\nepsilons = 1e200, 0.5\n")
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            f"{command}: epsilon = 1e+200 is too large: eps^2 overflows\n")

    def test_solver_errors_exit_2(self, tmp_path, capsys):
        # a grid too coarse for the spatial discretization
        config = write_ini(tmp_path, "[model]\nn_x = 3\n")
        assert main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "n_x" in capsys.readouterr().err

    def test_noise_off_sweep_exits_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, HEAT_INI)
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("sweep: ") and err.count("\n") == 1

    def test_ensemble_sample_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kinetic, "sample_path", nan_paths({1: 0.0}))
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "sweep: sample 1: kinetic field lost finiteness at step 1 " in \
            capsys.readouterr().err

    def test_limit_ensemble_names_lowest_failing_sample(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(harness, "sample_rng", nan_normals({4: 0, 2: 10}))
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "sweep: sample 2: density lost finiteness at step 11 " in \
            capsys.readouterr().err

    def test_noisy_limit_positivity_loss_exits_2(self, tmp_path, capsys):
        config = write_ini(tmp_path, TELEGRAPH_INI.replace("amplitude = 1.0",
                                                           "amplitude = 1000.0"))
        assert main(["run-spde", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "run-spde: density lost positivity at t = " in capsys.readouterr().err

    def test_noise_exponent_breach_exits_2(self, tmp_path, capsys):
        text = ACCEPTANCE_INI.read_text().replace(
            "amplitude = 1.4142135623730951", "amplitude = 3000").replace(
            "[simulation]\n", "[simulation]\nepsilon = 0.25\n")
        assert main(["run-kinetic", "--config", write_ini(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            "run-kinetic: noise exponent 187.50 exceeds 50.0; noise amplitude / epsilon "
            "too large for this dt\n")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # an existing file cannot hold a directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        assert main(["rates", "--config", str(ACCEPTANCE_INI), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"rates: cannot write {out}: Not a directory\n"

    def test_tiny_sample_override_rejected(self, tmp_path, capsys):
        config = write_ini(tmp_path, TELEGRAPH_INI)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out"),
                     "--samples", "1"]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == "sweep: n_samples must be at least 2\n"
