"""Write the CSV reports of the six subcommands that ``test_golden.py``
compares against.

The reports run on ``configs/acceptance.ini`` with ``snapshot_stride``
raised to ``SNAPSHOT_STRIDE`` (which keeps the density files small),
``sweep --samples 20`` and ``run-spde`` under both drifts.
``manifest.csv`` loses the package, numpy and Python version rows, so the
files do not depend on the installation.

A change that means to move the numerics reruns this script and records
the change of the golden files:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ACCEPTANCE_INI = ROOT / "configs" / "acceptance.ini"
SNAPSHOT_STRIDE = 8
#: output directory -> command line; the config's drift is effective, so
#: only ``run-spde-paper`` reports a limit run under the paper drift
COMMANDS = {
    "noise-info": ["noise-info"],
    "run-kinetic": ["run-kinetic"],
    "run-spde": ["run-spde"],
    "run-spde-paper": ["run-spde", "--drift", "paper"],
    "sweep": ["sweep", "--samples", "20"],
    "rates": ["rates"],
    "verify": ["verify"],
}
#: manifest rows that name the installation, not the run
VERSION_KEYS = ("package_version", "numpy_version", "python_version")


def parity_config() -> str:
    """configs/acceptance.ini with the parity gate's snapshot stride."""
    return ACCEPTANCE_INI.read_text().replace(
        "[simulation]\n", f"[simulation]\nsnapshot_stride = {SNAPSHOT_STRIDE}\n")


def generate(out: Path) -> dict[str, int]:
    """Run every command line of COMMANDS in-process into ``out/<name>/``
    and return the exit codes."""
    from rosselab.cli import main

    out.mkdir(parents=True, exist_ok=True)
    config = out / "parity.ini"
    config.write_text(parity_config())
    codes = {}
    for name, argv in COMMANDS.items():
        target = out / name
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = main([*argv, "--config", str(config), "--out", str(target)])
        manifest = target / "manifest.csv"
        with open(manifest, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row[0] not in VERSION_KEYS]
        with open(manifest, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    config.unlink()
    return codes


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    codes = generate(GOLDEN)
    print(" ".join(f"{command}={code}" for command, code in codes.items()))
    sys.exit(0)
