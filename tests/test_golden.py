"""Parity gate: the six subcommands reproduce the checked-in reports of
``tests/golden/`` (written by ``tests/make_golden.py``, which also holds
the comparison and its tolerances).
"""

from make_golden import GOLDEN, generate, mismatches, read_rows


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
