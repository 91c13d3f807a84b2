"""Command line behaviour: scenarios, sweeps, exit codes, output formats."""

import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import virfock
import virfock.algebra as algebra
import virfock.cli as cli
import virfock.dirac as dirac
import virfock.fock as fock
import virfock.operators as operators
import virfock.verify as verify
from virfock.cli import main
from virfock.dirac import run_dirac_checks
from virfock.verify import ScenarioParams, claimed_central_charge, extract_central_charge


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


FAST = ("--level", "4", "--zmax", "2", "--mmax", "2", "--window", "4")


def test_fermion_reduced_scenario(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "fermion-reduced", *FAST)
    assert code == 0
    assert "central_charge expected=1/2 got=1/2 pass" in out
    assert "fail" not in out.replace("failed", "")


def test_reduced_boson_rejects_zero_mass(capsys):
    code, _, err = run_cli(capsys, "--scenario", "boson-reduced", "--M", "0")
    assert code == 2
    assert "1/M" in err


def test_dirac_checks_reject_zero_mass(capsys):
    # the boson constraint family itself rejects M = 0; its ValueError is a usage error
    code, out, err = run_cli(capsys, "--scenario", "dirac-checks", "--M", "0")
    assert (code, out) == (2, "")
    assert "M != 0" in err


def test_caps_too_small_for_the_oracle_name_the_family_and_the_cap(capsys):
    # at --level 3 the fermion level cap is (2·3 - 1)/2 = 5/2, below the oracle's 3
    code, out, err = run_cli(capsys, "--scenario", "all", "--level", "3")
    assert (code, out) == (2, "")
    assert "fermion-unconstrained" in err and "5/2" in err
    code, out, err = run_cli(capsys, "--scenario", "boson-unconstrained", "--zmax", "1")
    assert (code, out) == (2, "")
    assert "boson-unconstrained" in err and "zero_mode_cap >= 2 here, got 1" in err


def test_caps_are_checked_for_every_family_before_any_suite_runs(capsys, monkeypatch):
    calls = []
    real = cli.run_family_scenario
    monkeypatch.setattr(cli, "run_family_scenario", lambda params: calls.append(params) or real(params))
    code, out, err = run_cli(capsys, "--scenario", "all", "--level", "3")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: fermion-unconstrained: central-charge extraction needs level_cap >= 3, got 5/2\n"


def test_bad_rational_is_config_error(capsys):
    code, _, err = run_cli(capsys, "--scenario", "fermion-reduced", "--M", "0.5x")
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("flag,value", [("--level", "0"), ("--zmax", "-1"), ("--mmax", "1"), ("--window", "0")])
def test_caps_out_of_range_are_config_errors(capsys, flag, value):
    # the only guard on each cap, the constraint half-width included: nothing runs
    code, out, err = run_cli(capsys, flag, value)
    assert (code, out) == (2, "")
    assert "caps out of range" in err


def test_unknown_scenario_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "--scenario", "nonsense")
    assert code == 2


def test_json_output_schema(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "boson-unconstrained",
                           "--M", "1", "--lambda", "1/2", "--format", "json", *FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "boson-unconstrained"
    assert doc["c_formula"] == "-4" and doc["c_oracle"] == "-4"
    assert set(doc["params"]) == {"M", "lambda", "level", "zmax", "mmax", "window"}
    assert doc["params"]["M"] == "1" and doc["params"]["lambda"] == "1/2"
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["checks"])
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "expected", "got", "probe"}


def test_text_and_json_agree_on_statuses(capsys):
    code_t, out_t, _ = run_cli(capsys, "--scenario", "fermion-unconstrained",
                               "--lambda", "1/3", *FAST)
    code_j, out_j, _ = run_cli(capsys, "--scenario", "fermion-unconstrained",
                               "--lambda", "1/3", "--format", "json", *FAST)
    assert code_t == code_j == 0
    doc = json.loads(out_j)
    json_statuses = {c["name"]: c["status"] for c in doc["checks"]}
    text_statuses = {}
    for line in out_t.splitlines():
        if " expected=" in line:
            name = line.split(" expected=")[0]
            text_statuses[name] = line.rsplit(" ", 1)[-1]
    assert text_statuses == json_statuses


def test_sweep_boson_reduced(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# M lambda\n1/2 0\n1/2 1/2\n1/2 1\n1 0\n1 1/2\n1 1\n2 0\n2 1/2\n2 1\n")
    code, out, _ = run_cli(capsys, "--scenario", "boson-reduced",
                           "--sweep", str(grid), *FAST)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("M=")]
    assert len(lines) == 9
    assert all(l.endswith("match") for l in lines)
    assert "M=1/2 lambda=1 c_formula=-11 c_oracle=-11 match" in lines


def test_sweep_fermion_lambda_row(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("0 0\n0 1/2\n0 1\n")
    code, out, _ = run_cli(capsys, "--scenario", "fermion-unconstrained",
                           "--sweep", str(grid), "--format", "json", *FAST)
    assert code == 0
    doc = json.loads(out)
    assert [row["c_formula"] for row in doc["sweep"]] == ["-2", "1", "-2"]
    assert all(row["match"] for row in doc["sweep"])


def test_each_sweep_point_builds_its_own_generators(tmp_path, capsys, monkeypatch):
    # the oracle's work is per point: no c may be memoized by (family, M, lambda).
    # Each point forms the slots of its own L_0, L_±2 and L_±3 from the family's
    # statement and reads their vacuum entries through forms cached by family
    # and truncation, so a second point adds no row-table miss, yet gives its
    # own closed-form c; a reduced boson's forms
    # are over its M = 1 algebra, so its second point, at another M, adds none either
    for family in ("boson-unconstrained", "boson-reduced"):
        real, calls = operators.FAMILIES[family].slots, []
        monkeypatch.setitem(operators.FAMILIES, family, operators.FAMILIES[family]._replace(
            slots=lambda m, M, lam, real=real, calls=calls: calls.append((m, M, lam)) or real(m, M, lam)))
        for k, (M, lam) in enumerate([(Fraction(7, 11), Fraction(-13, 17)), (Fraction(-5, 13), Fraction(3, 19))]):
            grid = tmp_path / f"grid{k}.txt"
            grid.write_text(f"{M} {lam}\n")
            calls.clear()
            before = operators._apply_to_basis.cache_info().misses
            code, out, _ = run_cli(capsys, "--scenario", family, "--sweep", str(grid), *FAST)
            assert code == 0
            assert sorted(calls) == [(m, M, lam) for m in (-3, -2, 0, 2, 3)]
            c = claimed_central_charge(family, M, lam)
            assert out.startswith(f"M={M} lambda={lam} c_formula={c} c_oracle={c} match\n")
            if k:
                assert operators._apply_to_basis.cache_info().misses == before, family


def _oracle_caches():
    # every functools cache of verify, found by introspection as tests/conftest.py
    # finds the engine's, so that a warm cache added there cannot skip tables unseen
    return [f for f in vars(verify).values() if callable(getattr(f, "cache_clear", None))]


@pytest.mark.parametrize("flags", [(), FAST], ids=["defaults", "all.txt-caps"])
def test_scenario_all_fits_the_row_table_cache(monkeypatch, fresh_caches, flags):
    # one scenario's working set fits the bound: from a cleared cache every
    # table is built once and none is evicted, the count an unbounded cache
    # makes.  The oracle's caches are cleared too, since warm forms skip tables
    assert main(["--scenario", "all", *flags]) == 0
    bounded = operators._apply_to_basis.cache_info()
    assert bounded.misses == bounded.currsize < bounded.maxsize
    unbounded = lru_cache(maxsize=None)(operators._apply_to_basis.__wrapped__)
    monkeypatch.setattr(operators, "_apply_to_basis", unbounded)
    for cache in _oracle_caches():
        cache.cache_clear()
    assert main(["--scenario", "all", *flags]) == 0
    assert unbounded.cache_info().misses == bounded.misses


def test_a_sweep_retains_no_memory_after_a_warm_up(fresh_caches):
    # distinct boson-unconstrained points, run as --sweep runs them: after a
    # warm-up, each point reads the one form already built and keeps nothing
    values = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 7)})
    pool = [(M, lam) for M in values if M for lam in values]
    points = iter(random.Random(1).sample(pool, 600))
    tracemalloc.start()
    try:
        for M, lam in itertools.islice(points, 300):
            params = ScenarioParams("boson-unconstrained", M, lam)
            assert extract_central_charge(params) == claimed_central_charge(params.family, M, lam)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for M, lam in itertools.islice(points, 300):
            params = ScenarioParams("boson-unconstrained", M, lam)
            assert extract_central_charge(params) == claimed_central_charge(params.family, M, lam)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 250_000


# the cache keyed by M: a sweep adds an algebra to it with every new M, so it
# is bounded
def _sweep_caches():
    return (algebra.reduced_boson,)


# the caches keyed by a reduced boson's algebra, which carries M: each family
# run at a new M adds entries to them, an oracle point none
def _table_caches():
    return (fock._apply_to_basis,)


# the caches keyed by a constraint family, which carries M, or by a reduced
# boson's modes: each dirac-checks run and each boson-reduced family run at a
# new M adds entries to them
def _dirac_caches():
    return (operators.mode_operator, dirac._cached_expr, dirac._projected, dirac._c_rows,
            dirac._signed_inverse)


def _caches_that_grow_with_m():
    return _table_caches() + _sweep_caches() + _dirac_caches()


@pytest.mark.parametrize("flags", [("--scenario", "all", "--level", "4", "--mmax", "6"),
                                   ("--scenario", "boson-reduced", "--sweep"),
                                   ("--scenario", "dirac-checks", "--window", "40")],
                         ids=["all-mmax6", "reduced-boson-sweep", "dirac"])
def test_a_run_fits_the_caches_that_grow_with_m(tmp_path, fresh_caches, flags):
    # nothing is evicted and room is left: 305 mode tables, 78 mode operators,
    # 58 constraints and 66 projections for --mmax 6; 46 algebras for every M
    # of the benchmark's sweep grid (|p|, q <= 6), each once, whose oracle
    # reads the 25 mode tables of the M = 1 algebra; 322 mode operators,
    # 242 constraints, 322 projections, 5 C and 3 eliminations at window 40
    grid = tmp_path / "grid.txt"
    masses = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 7) if p})
    grid.write_text("".join(f"{M} 1/3\n" for M in masses))
    assert main([*flags, str(grid)] if flags[-1] == "--sweep" else list(flags)) == 0
    for cache in _caches_that_grow_with_m():
        info = cache.cache_info()
        assert info.misses == info.currsize < info.maxsize, cache.__wrapped__.__qualname__


def test_a_reduced_boson_sweep_retains_no_memory_once_the_caches_are_full(fresh_caches):
    # every point at a new M = 1/k builds its own algebra and generators but
    # reads the vacuum forms of the M = 1 algebra: after the first M no point
    # adds a mode table, row table or oracle cache entry, and once the caches of
    # the algebras and kernels are full 300 more points retain under 250,000 bytes
    caches = _sweep_caches()
    tables = _table_caches() + (operators._apply_to_basis, *_oracle_caches())
    lam, points = Fraction(1, 3), (Fraction(1, k) for k in itertools.count(1))

    def oracle(M):
        params = ScenarioParams("boson-reduced", M, lam)
        assert extract_central_charge(params) == claimed_central_charge(params.family, M, lam)

    def full():
        return all(c.cache_info().currsize == c.cache_info().maxsize for c in caches)

    def misses():
        return [c.cache_info().misses for c in tables]

    oracle(next(points))
    after_first = misses()
    tracemalloc.start()
    try:
        for M in itertools.islice(points, 600):
            oracle(M)
            if full():
                break
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for M in itertools.islice(points, 300):
            oracle(M)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert full()
    assert misses() == after_first
    assert retained < 250_000


def test_dirac_checks_retain_no_memory_once_the_caches_are_full(fresh_caches):
    # each M = 1/k keys its own constraints, projections and C;
    # unbounded caches retain about 2 MB over the 20 M measured here
    caches = _dirac_caches()[1:]  # run_dirac_checks makes mode operators of the boson modes only
    points = (Fraction(1, k) for k in itertools.count(1))

    def full():
        return all(c.cache_info().currsize == c.cache_info().maxsize for c in caches)

    tracemalloc.start()
    try:
        for M in itertools.islice(points, 100):
            run_dirac_checks(M, 8)
            if full():
                break
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for M in itertools.islice(points, 20):
            run_dirac_checks(M, 8)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert full()
    assert retained < 250_000


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "--scenario", "fermion-reduced", "--sweep", str(grid))
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize("row,error", [
    ("1 2 3", "sweep rows are 'M lambda' pairs, got '1 2 3'"),
    ("x 1", "bad rational in sweep row 'x 1': Invalid literal for Fraction: 'x'"),
    ("1/0 1", "bad rational in sweep row '1/0 1': Fraction(1, 0)")])
def test_sweep_malformed_row(tmp_path, capsys, row, error):
    # after a good row whose texts are parsed first; a second run in the same
    # process fails the same way, so no failed parse is kept
    grid = tmp_path / "grid.txt"
    grid.write_text(f"1 1\n{row}\n")
    for _ in range(2):
        assert run_cli(capsys, "--scenario", "fermion-reduced", "--sweep", str(grid)) == (
            2, "", f"error: {error}\n")


def test_a_sweep_parses_each_distinct_text_once(tmp_path, capsys, monkeypatch):
    # a text repeated in the grid is parsed once, and nothing parsed outlives its
    # sweep: the second run parses every text again. --M and --lambda are parsed
    # too, at their defaults 1 and 1/2
    calls = []
    monkeypatch.setattr(cli, "parse_rational", lambda text: calls.append(text) or algebra.parse_rational(text))
    grid = tmp_path / "grid.txt"
    grid.write_text("1/2 0\n2/4 0\n1/2 -0  # 1/2 again\n1/2 0\n")
    for run in (1, 2):
        code, out, _ = run_cli(capsys, "--scenario", "fermion-reduced", "--sweep", str(grid))
        assert (code, out.count("M=1/2 lambda=0 ")) == (0, 4)
        assert sorted(calls) == sorted(["1", "1/2", "1/2", "0", "2/4", "-0"] * run)


@given(st.sampled_from(tuple(operators.FAMILIES)),
       st.lists(st.tuples(*[st.fractions()] * 4, st.booleans()), max_size=4))
def test_sweep_json_is_the_stdlib_encoding_of_its_rows(family, points):
    # the rows of every golden match; these pass or fail at random, and may be none
    args = cli._parse_args(["--scenario", family, "--format", "json"])
    keys = ("M", "lambda", "c_formula", "c_oracle")
    rows = [dict(zip(keys + ("match",), point)) for point in points]
    failed = sum(not row["match"] for row in rows)
    payload = {
        "scenario": family,
        "params": {"level": 6, "zmax": 4, "mmax": 3, "window": 8},
        "sweep": [{**{k: algebra.format_rational(row[k]) for k in keys}, "match": row["match"]}
                  for row in rows],
        "summary": {"total": len(rows), "passed": len(rows) - failed, "failed": failed, "skipped": 0}}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli._emit_sweep(rows, args) == (1 if failed else 0)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_sweep_needs_family_scenario(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 1\n")
    code, _, _ = run_cli(capsys, "--scenario", "dirac-checks", "--sweep", str(grid))
    assert code == 2


def test_dirac_checks_scenario(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "dirac-checks", "--window", "4")
    assert code == 0
    assert "delta_contract[boson,N=4]" in out
    assert "classify[even-copy]" in out


def test_all_scenario_aggregates(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "all", "--format", "json", *FAST)
    assert code == 0
    doc = json.loads(out)
    assert [r["scenario"] for r in doc["runs"]] == [
        "boson-unconstrained", "boson-reduced", "fermion-unconstrained",
        "fermion-reduced", "dirac-checks"]
    assert doc["summary"]["failed"] == 0
    assert all("c_oracle" in r for r in doc["runs"][:4])


def test_failed_check_exits_one(capsys):
    # a failing report must surface as exit status 1
    from types import SimpleNamespace
    from virfock.cli import _emit_runs
    from virfock.report import CheckReport
    runs = [{"scenario": "fermion-reduced",
             "reports": [CheckReport("doomed", "fail", "0", "1", "probe")]}]
    args = SimpleNamespace(fmt="text", scenario="fermion-reduced")
    code = _emit_runs(runs, args)
    out = capsys.readouterr().out
    assert code == 1
    assert "doomed expected=0 got=1 fail probe=probe" in out


def test_empty_probe_sets_are_skipped_not_passed(capsys):
    # at level 3 the pairs with max(0, m, n, m+n) > 3 have no safe state; the laws are
    # operator identities on the whole module and need none
    code, out, _ = run_cli(capsys, "--scenario", "boson-reduced", "--level", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    skipped = [c["name"] for c in doc["checks"] if c["status"] == "skipped"]
    assert doc["summary"]["skipped"] == len(skipped) == 6
    assert all(name.startswith("virasoro[") for name in skipped)
    assert any(c["name"].startswith("christoffel[") for c in doc["checks"])
    code, out, _ = run_cli(capsys, "--scenario", "boson-reduced", "--level", "3")
    assert code == 0
    assert out.splitlines()[-1] == "summary: 130/136 passed, 0 failed, 6 skipped"


def test_negative_rational_parameters_parse_in_both_spellings(capsys):
    spaced = run_cli(capsys, "--scenario", "fermion-unconstrained", "--M", "-3/2",
                     "--lambda", "-1/2", *FAST)
    joined = run_cli(capsys, "--scenario", "fermion-unconstrained", "--M=-3/2",
                     "--lambda=-1/2", *FAST)
    assert spaced == joined
    assert spaced[0] == 0
    assert "c_formula=-11 c_oracle=-11" in spaced[1]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI run starts a fresh interpreter and pays for each module it imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(virfock.__file__)))
    script = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import virfock.cli; "
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
