"""Byte-for-byte regression of the full CLI report against committed output.

The golden files hold the output of

    virfock --scenario all --level 4 --zmax 2 --mmax 2 --window 4 [--format json]

and are regenerated, after a deliberate output change, with

    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 > tests/golden/all.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 --format json > tests/golden/all.json
"""

from pathlib import Path

import pytest

from virfock.cli import main

GOLDEN = Path(__file__).parent / "golden"
ARGV = ["--scenario", "all", "--level", "4", "--zmax", "2", "--mmax", "2", "--window", "4"]


@pytest.mark.parametrize("fmt,filename", [("text", "all.txt"), ("json", "all.json")])
def test_all_scenario_matches_golden(capsys, fmt, filename):
    assert main(ARGV + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / filename).read_bytes()
