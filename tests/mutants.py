"""Mutation suite: hand-made faults in a copy of ``src/`` that named tests
must catch.

Each entry of ``MUTANTS`` is a fault: a file under ``src/rosselab/``, an
exact text of that file, the text that replaces it and the tests that must
fail.  For each mutant the script copies ``src/`` to a temporary directory,
makes the replacement there and runs the mutant's tests on the copy with
``pytest -x``.  The mutant is killed when a test fails and survives when
they all pass.  Every old text must occur exactly once in its file; one
that does not stops the script before any test runs, so a change that
moves a guarded line updates this table with it.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named mutants

It prints one line per mutant, killed or survived with the seconds it
took, then the total time, and exits 1 if a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("rosselab")

#: name -> (file under src/rosselab/, old text, new text, test ids)
MUTANTS = {
    # --- the step rules and their owners
    "parse-config-own-step-cap": (
        "config.py",
        'apply("[simulation]", check_step, run.epsilon, run.dt)',
        'apply("[simulation]", check_step, run.epsilon, run.dt * (1.0 - 9e-9))',
        ["tests/test_config.py::test_parse_refuses_exactly_what_the_owners_refuse"],
    ),
    "kinetic-config-own-step-cap": (
        "kinetic.py",
        "check_step(self.epsilon, self.dt)",
        "check_step(self.epsilon, self.dt * (1.0 - 9e-9))",
        ["tests/test_config.py::test_parse_refuses_exactly_what_the_owners_refuse"],
    ),
    "step-count-without-slack": (
        "model.py",
        "math.ceil(span / max_dt - 1e-12)",
        "math.ceil(span / max_dt)",
        ["tests/test_model.py::test_whole_steps_count_as_themselves"],
    ),
    "parse-config-without-sobolev-bound": (
        "config.py",
        '    apply("[harness]", check_sobolev_order, run.sobolev_order)\n',
        "",
        ["tests/test_config.py::test_cross_field_violations_are_pinned[sobolev-order-bound]"],
    ),
    "eps-squared-without-underflow-check": (
        "kinetic.py",
        "    if square < np.finfo(float).tiny:\n",
        "    if False:\n",
        ["tests/test_cli.py::TestErrorPaths::test_arithmetic_overflow_exits_2"],
    ),
    "eps-squared-without-overflow-check": (
        "kinetic.py",
        "    if not math.isfinite(square):\n",
        "    if False:\n",
        ["tests/test_cli.py::TestErrorPaths::test_arithmetic_overflow_exits_2"],
    ),
    "sweep-checks-sample-counts-late": (
        "harness.py",
        "    for n_samples in (n_kinetic, n_limit):\n"
        "        sample_chunks(n_samples, 1, None)  # refuses the count at the call, before any draw\n",
        "",
        ["tests/test_harness.py::TestEpsilonSweep::test_sample_counts_are_refused_before_any_ensemble"],
    ),
    "chunker-without-sample-check": (
        "noise.py",
        "    if n_samples < 2:\n",
        "    if False:\n",
        ["tests/test_config.py::test_cross_field_violations_are_pinned[sample-counts]"],
    ),
    "sweep-gaps-of-an-unknown-drift": (
        "harness.py",
        "        check_drift(drift)\n        if drift == \"paper\":",
        "        if drift == \"paper\":",
        ["tests/test_harness.py::TestEpsilonSweep::test_unknown_drift_is_refused"],
    ),
    # --- the block loop's failure rule
    "failed-rows-not-nan": (
        "noise.py",
        "                states[:, lowest:] = np.nan\n                state[lowest:] = np.nan\n",
        "",
        ["tests/test_noise.py::test_block_loop_failure_rule",
         "tests/test_correctors.py::TestMartingaleResidual::test_an_overflowing_sample_warns_of_nothing"],
    ),
    "failures-read-in-every-row": (
        "noise.py",
        "            if lost[:, :lowest].any():\n"
        "                lowest = int(np.argmax(lost[:, :lowest].any(axis=0)))\n",
        "            if lost.any():\n"
        "                lowest = int(np.argmax(lost.any(axis=0)))\n",
        ["tests/test_noise.py::test_block_loop_failure_rule"],
    ),
    "highest-failing-row": (
        "noise.py",
        "lowest = int(np.argmax(lost[:, :lowest].any(axis=0)))",
        "lowest = lowest - 1 - int(np.argmax(lost[:, :lowest].any(axis=0)[::-1]))",
        ["tests/test_noise.py::test_block_loop_failure_rule"],
    ),
    "last-failing-step": (
        "noise.py",
        "j = int(np.argmax(lost[:, lowest]))",
        "j = len(lost) - 1 - int(np.argmax(lost[::-1, lowest]))",
        ["tests/test_noise.py::test_block_loop_failure_rule"],
    ),
    "loop-runs-on-after-row-0-fails": (
        "noise.py",
        "        if not lowest:\n            break\n",
        "",
        ["tests/test_noise.py::test_block_loop_failure_rule"],
    ),
    "block-loop-warns": (
        "noise.py",
        "        # closed before the yield, which would hand the error state to the caller\n"
        '        with np.errstate(over="ignore", invalid="ignore"):\n',
        "        # closed before the yield, which would hand the error state to the caller\n"
        "        with np.errstate():\n",
        ["tests/test_correctors.py::TestMartingaleResidual::test_an_overflowing_sample_warns_of_nothing"],
    ),
    "snapshots-searched-on-the-right": (
        "noise.py",
        "snap_steps.searchsorted([start, start + steps])",
        'snap_steps.searchsorted([start, start + steps], side="right")',
        ["tests/test_kinetic.py::test_blocks_keep_every_row_and_failure"],
    ),
    # --- the kinetic noise
    "noise-factor-without-nan-guard": (
        "kinetic.py",
        "        exponent[over] = np.nan\n",
        "        pass\n",
        ["tests/test_kinetic.py::test_noise_factor_overflow_guard"],
    ),
    "describe-reads-the-next-step": (
        "kinetic.py",
        "stepper.occupations[k - 1, row]",
        "stepper.occupations[min(k, len(stepper.occupations) - 1), row]",
        ["tests/test_kinetic.py::test_exponent_breach_names_the_first_half_window_over_the_limit"],
    ),
    "describe-names-the-last-half-window": (
        "kinetic.py",
        "{over[0]:.2f}",
        "{over[-1]:.2f}",
        ["tests/test_kinetic.py::test_exponent_breach_names_the_first_half_window_over_the_limit"],
    ),
    "sample-seeded-by-the-next-index": (
        "noise.py",
        "np.random.SeedSequence((*_entropy(seed), index))",
        "np.random.SeedSequence((*_entropy(seed), index + 1))",
        ["tests/test_harness.py::TestSampleRng::test_integer_seed_extends_a_plain_seed_sequence"],
    ),
    # --- the limit step
    "more-steps-per-decay": (
        "limit.py",
        "STEPS_PER_DECAY = 8",
        "STEPS_PER_DECAY = 9",
        ["tests/test_limit.py::test_default_step_rule_does_not_depend_on_the_grid"],
    ),
    "paper-drift-offset-dropped": (
        "limit.py",
        "self.log_drift = (noise.drift(config.drift) - noise.drift_effective) * dt",
        "self.log_drift = 0.0 * dt",
        ["tests/test_limit.py::test_paper_drift_flow_is_shifted_by_the_kernel_diagonal"],
    ),
    "noise-flow-split-in-two-exponentials": (
        "limit.py",
        "rho = rho * np.exp(math.sqrt(cfg.dt) * field + self.log_drift)",
        "rho = rho * np.exp(math.sqrt(cfg.dt) * field) * np.exp(self.log_drift)",
        ["tests/test_limit.py::test_negligible_diffusion_step_is_the_noise_flow"],
    ),
    # --- the noise-free references
    "fewer-reference-steps": (
        "harness.py",
        "    steps = 16\n",
        "    steps = 8\n",
        ["tests/test_golden.py::test_reports_match_the_golden_files"],
    ),
    "fewer-convergence-snapshots": (
        "harness.py",
        "    n_snapshots = 11\n",
        "    n_snapshots = 7\n",
        ["tests/test_golden.py::test_reports_match_the_golden_files"],
    ),
    # --- the kernel modes
    "modes-not-oriented": (
        "noise.py",
        "profiles = _orient((q @ eigvecs[:, keep]).T)",
        "profiles = ((q @ eigvecs[:, keep]).T)",
        ["tests/test_noise.py::test_telegraph_kernel_and_modes"],
    ),
    "kernel-not-clipped": (
        "noise.py",
        "np.flatnonzero(eigvals > EIG_CLIP * top)",
        "np.flatnonzero(eigvals > 0.0)",
        ["tests/test_noise.py::test_factored_modes_match_the_dense_spectrum"],
    ),
    "first-mode-weight-of-a-rank-0-kernel": (
        "harness.py",
        "stats.mode_weights.max(initial=0.0)",
        "stats.mode_weights[0]",
        ["tests/test_cli.py::TestVerifyCommand::test_rank_zero_kernel_passes_the_full_battery"],
    ),
    "nyquist-mode-counted-twice": (
        "fourier.py",
        "np.where(2 * np.arange(n_x // 2 + 1) % n_x == 0, 1.0, 2.0)",
        "np.where(np.arange(n_x // 2 + 1) == 0, 1.0, 2.0)",
        ["tests/test_correctors.py::TestGeneratorAlgebra::test_spectral_rows_match_the_physical_terms"],
    ),
    "indefinite-kernel-accepted": (
        "noise.py",
        "    if spectrum.min() < -EIG_NEGATIVE",
        "    if False and spectrum.min() < -EIG_NEGATIVE",
        ["tests/test_noise.py::test_indefinite_kernel_is_rejected"],
    ),
    # --- the command line
    "csv-with-16-digits": (
        "cli.py",
        'line = ",".join(["%.17g"] * rows.shape[1])',
        'line = ",".join(["%.16g"] * rows.shape[1])',
        ["tests/test_cli.py::TestWriteCsv"],
    ),
    "hs-csv-renamed": (
        "cli.py",
        '"hs.csv": (',
        '"hs_norm.csv": (',
        ["tests/test_cli.py::TestReporting"],
    ),
    "main-catches-key-errors-for-os-errors": (
        "cli.py",
        "    except OSError as exc:",
        "    except KeyError as exc:",
        ["tests/test_cli.py::TestErrorPaths::test_unwritable_out_exits_2"],
    ),
}


def apply(source: Path, name: str) -> None:
    """Make mutant ``name``'s replacement in the copy ``source`` of src/."""
    path, old, new, _ = MUTANTS[name]
    target = source / PACKAGE / path
    text = target.read_text()
    target.write_text(text.replace(old, new, 1))


def stale(names) -> list[str]:
    """The mutants whose old text does not occur exactly once in src/."""
    found = []
    for name in names:
        path, old, _, _ = MUTANTS[name]
        count = (ROOT / "src" / PACKAGE / path).read_text().count(old)
        if count != 1:
            found.append(f"{name}: old text occurs {count} times in src/rosselab/{path}")
    return found


def killed(name: str) -> bool:
    """Whether one of mutant ``name``'s tests fails on a mutated copy of src/.

    pytest runs in the temporary directory, so the hypothesis examples it
    stores go away with it, and reads the repository's configuration with
    the copy as its import path.
    """
    tests = [str(ROOT / test) for test in MUTANTS[name][3]]
    with tempfile.TemporaryDirectory() as scratch:
        source = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", source, ignore=shutil.ignore_patterns("__pycache__"))
        apply(source, name)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
             "-o", f"pythonpath={source}", *tests],
            cwd=scratch, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    if run.returncode not in (0, 1):
        raise RuntimeError(f"{name}: pytest exited {run.returncode}")
    return run.returncode == 1


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    problems = stale(names)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    begin = time.perf_counter()
    survivors = []
    for name in names:
        start = time.perf_counter()
        verdict = "killed" if killed(name) else "SURVIVED"
        if verdict == "SURVIVED":
            survivors.append(name)
        print(f"{verdict:8s} {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    print(f"{len(names) - len(survivors)} of {len(names)} killed in {time.perf_counter() - begin:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
