"""Byte-identity of the simulate CLI against CSVs committed in tests/golden.

The files were produced by

    simulate --sweep n_uds=8,24,48 --trials 5 --seed 7 [FLAGS] --out FILE
    simulate --sweep density_cpb=100,500,2000 --trials 5 --seed 7 [FLAGS] --out FILE

and pin every scheme's picks, metrics and vertex counts across refactors
that must not change behaviour. The density sweep overloads AP groups, so
joint admits, falls back and fails, local fails and random admits at
random, which the n_uds sweep never reaches. Regenerate them only for a deliberate
change of results, and say so in CHANGES.md.

The files in WITHOUT_STATUS were recorded before rows gained their last
field, status; each is compared with the output minus that field, which
must read "ok" on every row. status.csv, a small run, pins the column
whole.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
BASE = ["--trials", "5", "--seed", "7"]
BY_SIZE = ["--sweep", "n_uds=8,24,48"]
BY_DENSITY = ["--sweep", "density_cpb=100,500,2000"]
MODIFIED_NOFALLBACK = ["--mwis-ordering", "modified", "--fallback-local", "off"]
CASES = {
    "default.csv": BY_SIZE,
    "strict_cc2.csv": BY_SIZE + ["--strict-cc2"],
    "modified_nofallback.csv": BY_SIZE + MODIFIED_NOFALLBACK,
    "density.csv": BY_DENSITY,
    "density_modified_nofallback.csv": BY_DENSITY + MODIFIED_NOFALLBACK,
    "status.csv": ["--sweep", "n_uds=8"],
}
WITHOUT_STATUS = frozenset(CASES) - {"status.csv"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    cmd = [sys.executable, "-m", "nomec.cli", *BASE, *CASES[name], "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = out.read_bytes()
    if name in WITHOUT_STATUS:
        lines = [line.rpartition(b",") for line in got.splitlines()]
        assert [status for _, _, status in lines] == [b"status"] + [b"ok"] * (len(lines) - 1)
        got = b"".join(head + b"\n" for head, _, _ in lines)
    assert got == (GOLDEN / name).read_bytes()
