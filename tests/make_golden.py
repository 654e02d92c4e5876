"""Write the CSV reports of the six subcommands that ``test_golden.py``
compares against, and the comparison itself.

The reports run on ``configs/acceptance.ini`` with ``snapshot_stride``
raised to ``SNAPSHOT_STRIDE`` (which keeps the density files small),
``sweep --samples 20`` and ``run-spde`` under both drifts.
``manifest.csv`` loses the package, numpy and Python version rows, so the
files do not depend on the installation.

The comparison takes text fields exactly and numbers to 1e-12 relative.
The ``run-kinetic`` defect column ||<f>F - f|| / eps cancels: a
rounding-level change of the field moves it by about 1e-16 ||f|| / eps,
far more than 1e-12 of its own size at small eps, so it also passes within
1e-12 of ||f|| / eps = sqrt(energy) / eps on its row.

A change that means to move the numerics reruns this script and records
the change of the golden files, which the script prints (each changed file
with its largest relative and absolute differences) before it rewrites
them:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
import tempfile
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
RTOL = 1e-12


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


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def as_number(text):
    try:
        return float(text)
    except ValueError:
        return None


def floors(command, name, header, body, manifest):
    """Absolute tolerance per row of the cancelling columns, else None."""
    if (command, name) != ("run-kinetic", "kinetic_series.csv"):
        return None
    epsilon = float(dict(manifest)["epsilon"])
    energy = header.index("energy")
    return [RTOL * math.sqrt(float(row[energy])) / epsilon for row in body]


def mismatches(command, name, expected, actual, manifest):
    if len(expected) != len(actual) or expected[0] != actual[0]:
        return [f"{command}/{name}: layout {len(actual)} rows {actual[0]} "
                f"!= {len(expected)} rows {expected[0]}"]
    header, body = expected[0], expected[1:]
    row_floor = floors(command, name, header, body, manifest)
    found = []
    for i, (want, got) in enumerate(zip(body, actual[1:])):
        if len(want) != len(got):
            found.append(f"{command}/{name} row {i}: {got} != {want}")
            continue
        for column, a, b in zip(header, want, got):
            x, y = as_number(a), as_number(b)
            if x is None or y is None:
                ok = a == b
            else:
                tol = RTOL * abs(x)
                if row_floor is not None and column == "defect":
                    tol = max(tol, row_floor[i])
                ok = abs(x - y) <= tol or (math.isnan(x) and math.isnan(y))
            if not ok:
                found.append(f"{command}/{name} row {i} {column}: {b} != {a}")
    return found


def differences(old: Path, new: Path) -> dict[str, str]:
    """Each CSV under ``old`` or ``new`` whose text differs, named by its
    path below them, with its largest relative and absolute differences of
    numbers, or why they cannot be compared."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old, new) for p in root.glob("*/*.csv")})
    found = {}
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            found[name] = "added" if (new / name).exists() else "removed"
            continue
        before, after = read_rows(old / name), read_rows(new / name)
        if before == after:
            continue
        if [len(row) for row in before] != [len(row) for row in after]:
            found[name] = "layout changed"
            continue
        pairs = [(a, b) for want, got in zip(before, after) for a, b in zip(want, got) if a != b]
        numbers = [(as_number(a), as_number(b)) for a, b in pairs]
        if any(x is None or y is None for x, y in numbers):
            found[name] = "text changed"
            continue
        rel = max(abs(x - y) / abs(x) if x else math.inf for x, y in numbers)
        absolute = max(abs(x - y) for x, y in numbers)
        found[name] = f"largest relative difference {rel:.3g}, absolute {absolute:.3g}"
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch) / "golden"
        codes = generate(fresh)
        for name, change in differences(GOLDEN, fresh).items():
            print(f"{name}: {change}")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(fresh, GOLDEN)
    print(" ".join(f"{command}={code}" for command, code in codes.items()))
    sys.exit(0)
