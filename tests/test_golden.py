"""Byte-for-byte regression of CLI reports against committed output.

tests/golden/cases.txt lists each golden file with the virfock arguments whose
output it holds, and says what each one pins.  Every case runs here in process,
from the repository root; CI compares each through the installed console script.
After a deliberate output change the goldens are rewritten, from the repository
root, with

    grep '^[^#]' tests/golden/cases.txt | while read -r file args; do
        PYTHONPATH=src python -m virfock.cli $args < /dev/null > "tests/golden/$file"
    done
"""

import json
from pathlib import Path

import pytest

from virfock.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [line.split() for line in (GOLDEN / "cases.txt").read_text().splitlines()
         if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("filename,argv", [
    pytest.param(filename, argv, id=f"{'json' if filename.endswith('.json') else 'text'}-{filename}")
    for filename, *argv in CASES])
def test_cli_output_matches_golden(capsys, monkeypatch, filename, argv):
    monkeypatch.chdir(GOLDEN.parent.parent)  # the sweep cases name their grid from the root
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / filename).read_bytes()
    if filename.endswith(".json"):  # whatever prints the JSON, it prints what the stdlib encoder does
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_every_golden_file_is_listed_or_a_named_grid():
    # a golden missing from cases.txt is compared by neither this test nor CI
    grids = {Path(argv[argv.index("--sweep") + 1]).name for _, *argv in CASES if "--sweep" in argv}
    listed = {filename for filename, *_ in CASES} | grids | {"cases.txt"}
    assert sorted(p.name for p in GOLDEN.iterdir() if p.name not in listed) == []
