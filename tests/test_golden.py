"""Byte-identity of the simulate CLI against CSVs committed in tests/golden.

The files were produced by

    simulate --sweep n_uds=8,24,48 --trials 5 --seed 7 [FLAGS] --out FILE

and pin every scheme's picks, metrics and vertex counts across refactors
that must not change behaviour. Regenerate them only for a deliberate
change of results, and say so in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
BASE = ["--sweep", "n_uds=8,24,48", "--trials", "5", "--seed", "7"]
CASES = {
    "default.csv": [],
    "strict_cc2.csv": ["--strict-cc2"],
    "modified_nofallback.csv": ["--mwis-ordering", "modified", "--fallback-local", "off"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    cmd = [sys.executable, "-m", "nomec.cli", *BASE, *CASES[name], "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
