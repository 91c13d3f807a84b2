"""Byte-for-byte regression of CLI reports against committed output.

all.txt and all.json hold the output of

    virfock --scenario all --level 4 --zmax 2 --mmax 2 --window 4 [--format json]

boson_reduced_level3_mmax4.txt that of

    virfock --scenario boson-reduced --level 3 --mmax 4

where label 4 has no safe state, so window doubling draws from the other
labels only, all_level4_zmax2_mmax6.txt that of

    virfock --scenario all --level 4 --zmax 2 --mmax 6 --window 4

where labels up to 6 on level 4 leave 563 of the 1,892 reports without a
safe probe state, so the safe-window rule decides which are skipped,
boson_reduced_m-2_3_lambda5_4.txt that of

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
dirac-checks invocation, and dirac_m-2_3_window1.json at the narrowest window,
where the C and Delta partners of ±1 fall outside the labels and the 0/a0
pair sits at the edge.  dirac_window3.txt holds the text of
`virfock --scenario dirac-checks --window 3` and fermion_reduced.txt that of
`virfock --scenario fermion-reduced`.  families_seed1_<family>.json holds the
benchmark's seed-1 `families` invocation of each generator family (M = 5,
lambda = 2, level 6 for boson-unconstrained and 8 for the others), the one
pin of a family's every report at level 8.  sweep_<family>.json holds
the central-charge oracle of each generator family on the grid of
sweep_grid.txt (λ = 0, negative M, and an M and a λ with denominator 5).
sweep_long_boson_reduced.json holds the reduced boson's oracle on the 150
seeded points of sweep_long_grid.txt, enough generator tables to overflow
the bounded row-table cache, so evicted and rebuilt tables must give the
same output.
After a deliberate output change they are regenerated with

    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 > tests/golden/all.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 2 --window 4 --format json > tests/golden/all.json
    PYTHONPATH=src python -m virfock.cli --scenario boson-reduced --level 3 --mmax 4 > tests/golden/boson_reduced_level3_mmax4.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --level 4 --zmax 2 --mmax 6 --window 4 > tests/golden/all_level4_zmax2_mmax6.txt
    PYTHONPATH=src python -m virfock.cli --scenario boson-reduced --M -2/3 --lambda 5/4 > tests/golden/boson_reduced_m-2_3_lambda5_4.txt
    PYTHONPATH=src python -m virfock.cli --scenario all --M -2/3 --lambda 5/4 > tests/golden/all_m-2_3_lambda5_4.txt
    PYTHONPATH=src python -m virfock.cli --scenario all > tests/golden/all_defaults.txt
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M 2/3 --window 12 --format json > tests/golden/dirac_m2_3_window12.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M -5/4 --window 40 --format json > tests/golden/dirac_m-5_4_window40.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M -4 --window 40 --format json > tests/golden/dirac_m-4_window40.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --M -2/3 --window 1 --format json > tests/golden/dirac_m-2_3_window1.json
    PYTHONPATH=src python -m virfock.cli --scenario dirac-checks --window 3 > tests/golden/dirac_window3.txt
    PYTHONPATH=src python -m virfock.cli --scenario fermion-reduced > tests/golden/fermion_reduced.txt
    for f in boson-unconstrained boson-reduced fermion-unconstrained fermion-reduced; do
        level=8; [ $f = boson-unconstrained ] && level=6
        PYTHONPATH=src python -m virfock.cli --scenario $f --M=5 --lambda=2 --level=$level --format=json > tests/golden/families_seed1_$(echo $f | tr - _).json
    done
    for f in boson-unconstrained boson-reduced fermion-unconstrained fermion-reduced; do
        PYTHONPATH=src python -m virfock.cli --scenario $f --sweep tests/golden/sweep_grid.txt --format json > tests/golden/sweep_$(echo $f | tr - _).json
    done
    PYTHONPATH=src python -m virfock.cli --scenario boson-reduced --sweep tests/golden/sweep_long_grid.txt --format json > tests/golden/sweep_long_boson_reduced.json
"""

from pathlib import Path

import pytest

from virfock.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALL = ["--scenario", "all", "--level", "4", "--zmax", "2", "--mmax", "2", "--window", "4"]
SWEEP_FAMILIES = ("boson-unconstrained", "boson-reduced", "fermion-unconstrained", "fermion-reduced")
SEED1_LEVELS = {"boson-unconstrained": 6, "boson-reduced": 8, "fermion-unconstrained": 8, "fermion-reduced": 8}


@pytest.mark.parametrize("argv,filename", [
    pytest.param(ALL + ["--format", "text"], "all.txt", id="text-all.txt"),
    pytest.param(ALL + ["--format", "json"], "all.json", id="json-all.json"),
    pytest.param(["--scenario", "boson-reduced", "--level", "3", "--mmax", "4"],
                 "boson_reduced_level3_mmax4.txt", id="text-boson_reduced_level3_mmax4.txt"),
    pytest.param(["--scenario", "all", "--level", "4", "--zmax", "2", "--mmax", "6", "--window", "4"],
                 "all_level4_zmax2_mmax6.txt", id="text-all_level4_zmax2_mmax6.txt"),
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
    pytest.param(["--scenario", "dirac-checks", "--M", "-2/3", "--window", "1", "--format", "json"],
                 "dirac_m-2_3_window1.json", id="json-dirac_m-2_3_window1.json"),
    pytest.param(["--scenario", "dirac-checks", "--window", "3"], "dirac_window3.txt",
                 id="text-dirac_window3.txt"),
    pytest.param(["--scenario", "fermion-reduced"], "fermion_reduced.txt", id="text-fermion_reduced.txt"),
] + [
    pytest.param(["--scenario", f, "--M=5", "--lambda=2", f"--level={level}", "--format=json"],
                 f"families_seed1_{f.replace('-', '_')}.json", id=f"json-families_seed1_{f}")
    for f, level in SEED1_LEVELS.items()
] + [
    pytest.param(["--scenario", f, "--sweep", str(GOLDEN / "sweep_grid.txt"), "--format", "json"],
                 f"sweep_{f.replace('-', '_')}.json", id=f"json-sweep_{f}")
    for f in SWEEP_FAMILIES
] + [
    pytest.param(["--scenario", "boson-reduced", "--sweep", str(GOLDEN / "sweep_long_grid.txt"), "--format", "json"],
                 "sweep_long_boson_reduced.json", id="json-sweep_long_boson_reduced.json"),
])
def test_cli_output_matches_golden(capsys, argv, filename):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / filename).read_bytes()
