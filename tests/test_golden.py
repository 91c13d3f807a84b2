"""Byte-for-byte regression of CLI reports against committed output.

all.txt and all.json hold the output of

    virfock --scenario all --level 4 --zmax 2 --mmax 2 --window 4 [--format json]

boson_reduced_level3_mmax4.txt that of

    virfock --scenario boson-reduced --level 3 --mmax 4

where label 4 has no safe state, so window doubling draws from the other
labels only, boson_reduced_m-2_3_lambda5_4.txt that of

    virfock --scenario boson-reduced --M -2/3 --lambda 5/4

where M != 1 lets a lost factor of M or 1/M in the reduced a† transform
show, all_m-2_3_lambda5_4.txt that of

    virfock --scenario all --M -2/3 --lambda 5/4

where every family and the constraint machinery run away from M = 1,
lambda = 1/2 (there the fermion L_0 constant -(1 - 2 lambda)^2/8 is 0, so a
lost factor of M or lambda cannot show), all_defaults.txt that of
`virfock --scenario all` with every flag at its default (the acceptance
caps), and dirac_m2_3_window12.json that
of `virfock --scenario dirac-checks --M 2/3 --window 12 --format json`, the
constraint machinery at M != 1 on a wider window, dirac_m-5_4_window40.json
the same at a negative fractional M on the benchmark's window 40, and
dirac_m-4_window40.json at a negative integer M, the benchmark's seed-1
dirac-checks invocation.  sweep_<family>.json holds
the central-charge oracle of each generator family on the grid of
sweep_grid.txt (λ = 0, negative M, and an M and a λ with denominator 5).
After a deliberate output change they are regenerated with

    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 > tests/golden/all.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 --format json > tests/golden/all.json
    PYTHONPATH=src python -m virfock.cli --scenario boson-reduced --level 3 --mmax 4 > tests/golden/boson_reduced_level3_mmax4.txt
    PYTHONPATH=src python -m virfock.cli --scenario boson-reduced --M -2/3 --lambda 5/4 > tests/golden/boson_reduced_m-2_3_lambda5_4.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --M -2/3 --lambda 5/4 > tests/golden/all_m-2_3_lambda5_4.txt
    PYTHONPATH=src python -m virfock.cli --scenario all > tests/golden/all_defaults.txt
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M 2/3 --window 12 --format json > tests/golden/dirac_m2_3_window12.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M -5/4 --window 40 --format json > tests/golden/dirac_m-5_4_window40.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M -4 --window 40 --format json > tests/golden/dirac_m-4_window40.json
    for f in boson-unconstrained boson-reduced fermion-unconstrained fermion-reduced; do
        PYTHONPATH=src python -m virfock.cli --scenario $f --sweep tests/golden/sweep_grid.txt --format json > tests/golden/sweep_$(echo $f | tr - _).json
    done
"""

from pathlib import Path

import pytest

from virfock.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALL = ["--scenario", "all", "--level", "4", "--zmax", "2", "--mmax", "2", "--window", "4"]
SWEEP_FAMILIES = ("boson-unconstrained", "boson-reduced", "fermion-unconstrained", "fermion-reduced")


@pytest.mark.parametrize("argv,filename", [
    pytest.param(ALL + ["--format", "text"], "all.txt", id="text-all.txt"),
    pytest.param(ALL + ["--format", "json"], "all.json", id="json-all.json"),
    pytest.param(["--scenario", "boson-reduced", "--level", "3", "--mmax", "4"],
                 "boson_reduced_level3_mmax4.txt", id="text-boson_reduced_level3_mmax4.txt"),
    pytest.param(["--scenario", "boson-reduced", "--M", "-2/3", "--lambda", "5/4"],
                 "boson_reduced_m-2_3_lambda5_4.txt", id="text-boson_reduced_m-2_3_lambda5_4.txt"),
    pytest.param(["--scenario", "all", "--M", "-2/3", "--lambda", "5/4"],
                 "all_m-2_3_lambda5_4.txt", id="text-all_m-2_3_lambda5_4.txt"),
    pytest.param(["--scenario", "all"], "all_defaults.txt", id="text-all_defaults.txt"),
    pytest.param(["--scenario", "dirac-checks", "--M", "2/3", "--window", "12", "--format", "json"],
                 "dirac_m2_3_window12.json", id="json-dirac_m2_3_window12.json"),
    pytest.param(["--scenario", "dirac-checks", "--M", "-5/4", "--window", "40", "--format", "json"],
                 "dirac_m-5_4_window40.json", id="json-dirac_m-5_4_window40.json"),
    pytest.param(["--scenario", "dirac-checks", "--M", "-4", "--window", "40", "--format", "json"],
                 "dirac_m-4_window40.json", id="json-dirac_m-4_window40.json"),
] + [
    pytest.param(["--scenario", f, "--sweep", str(GOLDEN / "sweep_grid.txt"), "--format", "json"],
                 f"sweep_{f.replace('-', '_')}.json", id=f"json-sweep_{f}")
    for f in SWEEP_FAMILIES
])
def test_cli_output_matches_golden(capsys, argv, filename):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / filename).read_bytes()
