"""Parity gate: the six subcommands reproduce the checked-in reports of
``tests/golden/`` (written by ``tests/make_golden.py``).

Text fields must match exactly and numbers to 1e-12 relative.  The
``run-kinetic`` defect column ||<f>F - f|| / eps cancels: a rounding-level
change of the field moves it by about 1e-16 ||f|| / eps, far more than
1e-12 of its own size at small eps, so it also passes within 1e-12 of
||f|| / eps = sqrt(energy) / eps on its row.
"""

import csv
import math

from make_golden import GOLDEN, generate

RTOL = 1e-12


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


def test_reports_match_the_golden_files(tmp_path):
    codes = generate(tmp_path)
    assert codes == {command: 0 for command in codes}
    found = []
    for directory in sorted(p for p in GOLDEN.iterdir() if p.is_dir()):
        command = directory.name
        names = sorted(p.name for p in directory.glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / command).glob("*.csv")), command
        manifest = read_rows(directory / "manifest.csv")[1:]
        for name in names:
            found += mismatches(command, name, read_rows(directory / name),
                                read_rows(tmp_path / command / name), manifest)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        p.name for p in tmp_path.iterdir())
    assert not found, "\n".join(found[:20])
