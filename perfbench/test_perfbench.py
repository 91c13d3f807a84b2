"""Tests of the benchmark itself:  python3 -m pytest perfbench/test_perfbench.py"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import results  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)


def test_inputs_keep_within_the_program_contract():
    for seed in range(20):
        fam = workloads.build("families", seed)
        assert [inv.scenario for inv in fam] == list(workloads.FAMILIES)
        assert all(inv.M != 0 and inv.lam != 0 for inv in fam)
        (dirac,) = workloads.build("dirac", seed)
        assert dirac.M != 0
    for inv in workloads.build("sweep", 0):
        assert len(set(inv.grid)) == len(inv.grid) == workloads.SWEEP_POINTS_PER_FAMILY
        assert all(M != 0 for M, _ in inv.grid)


def test_seed_with_negative_lambda_runs(tmp_path):
    # `--lambda -1/2` is an argparse usage error; the argv must use `--lambda=-1/2`.
    seed = next(s for s in range(100) if workloads.build("families", s)[0].lam < 0)
    bench = run.Run("families", seed, str(tmp_path))
    i = workloads.FAMILIES.index("boson-reduced")
    assert f"--lambda={bench.invocations[i].lam}" in bench.invocations[i].argv
    record = bench._spawn(i, None)
    assert bench.failures == []
    assert record["main_s"] > 0 and record["ref_main_s"] > 0 and record["setup_scale"] > 0
    assert record["raw_setup_s"] > 0 and record["raw_cpu_s"] > 0


def _family_output(inv, checks, c=None):
    c = workloads.closed_form_c(inv.scenario, inv.M, inv.lam) if c is None else c
    return json.dumps({"checks": checks, "c_formula": str(c), "c_oracle": str(c)})


def test_gate_accepts_and_rejects():
    inv = workloads.build("families", 1)[3]  # fermion-reduced, 52 checks
    good = [{"name": f"x{i}", "status": "pass"} for i in range(52)]
    assert workloads.gate(inv, 0, _family_output(inv, good)) is None
    assert "exit code" in workloads.gate(inv, 1, _family_output(inv, good))
    assert "checks, expected" in workloads.gate(inv, 0, _family_output(inv, good[1:]))
    for status in ("fail", "skipped"):
        bad = good[:-1] + [{"name": "x", "status": status}]
        assert "not passed" in workloads.gate(inv, 0, _family_output(inv, bad))
    assert "closed form" in workloads.gate(inv, 0, _family_output(inv, good, Fraction(1)))
    assert "malformed" in workloads.gate(inv, 0, "not json")

    sweep = workloads.build("sweep", 1)[0]
    rows = [{"M": str(M), "lambda": str(lam), "match": True,
             "c_formula": str(workloads.closed_form_c(sweep.scenario, M, lam)),
             "c_oracle": str(workloads.closed_form_c(sweep.scenario, M, lam))}
            for M, lam in sweep.grid]
    assert workloads.gate(sweep, 0, json.dumps({"sweep": rows})) is None
    assert "rows, expected" in workloads.gate(sweep, 0, json.dumps({"sweep": rows[1:]}))
    rows[7]["c_oracle"] = "123/7"
    assert "differs" in workloads.gate(sweep, 0, json.dumps({"sweep": rows}))


def _traced_child(tmp_path, k):
    record, spans = tmp_path / f"rec{k}.json", tmp_path / f"spans{k}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(record), "--spans", str(spans),
         "--", "--scenario", "fermion-reduced", "--level=4", "--format=json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(spans) as fh:
        assert json.load(fh)["spans"]
    with open(record) as fh:
        return json.load(fh)


def test_traced_counts_repeat_and_cover_the_layers(tmp_path):
    first, second = _traced_child(tmp_path, 0), _traced_child(tmp_path, 1)
    calls = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    layers = first["layers"]
    assert first["absent"] == []
    assert layers["operators.commutator_action.calls"] > 0
    assert layers["fock.apply_mode.calls"] > 0
    assert layers["cli.main.calls"] == 1
    assert 0 <= layers["cli.main.self_s"] <= layers["cli.main.total_s"]


def test_benchmark_json_lists_what_the_runs_report():
    spec = results.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    emitted = {f"{q}.{m}" for q in tracer.TIMED for m in ("calls", "total_s", "self_s")}
    emitted |= {f"{q}.calls" for q in tracer.COUNTED}
    emitted |= {f"{p}.{m}" for p in tracer.CACHES for m in ("hits", "misses")}
    emitted.add("trace.overhead_s")
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert results.verdict(base, faster, pairs, 0.2, True, False) == "improved"
    assert results.verdict(base, faster, pairs[:5], 0.2, True, False) == "unresolved"
    # A gain does not count when the change fails more invocations.
    assert results.verdict(base, faster, pairs, 0.2, True, True) == "unresolved"
    slower = [v * 1.3 for v in base]
    assert results.verdict(base, slower, list(zip(base, slower)), 0.2, True, False) == "worse"
    same = list(base)
    assert results.verdict(base, same, list(zip(base, same)), 0.2, True, False) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert results.verdict(noisy, same, list(zip(noisy, same)), 0.2, True, False) == "unresolved"


def _record(seed, wall_s, correct=True, failed=0):
    metrics = {} if not correct else {
        m: {"value": wall_s if m == "wall_s" else 1.0, "unit": "s"} for m in run.END_TO_END_UNITS}
    return {"detail": {"workload": "dirac", "seed": seed, "trace": 0},
            "result": {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}}


def test_compare_leaves_out_failed_runs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed in range(1, 13):
        (parent / f"{seed}.json").write_text(json.dumps(_record(seed, 10.0 + seed / 100)))
        # The change is faster wherever it passes, and two of its runs fail.
        rec = _record(seed, 8.0, correct=False, failed=1) if seed <= 2 else _record(seed, 8.0)
        (change / f"{seed}.json").write_text(json.dumps(rec))
    results.compare(str(parent), str(change), results.load_spec())
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["wall_s"].split()[-1] == "unresolved"
    assert "10/10" in rows["wall_s"]
    assert rows["fail_ratio"].split()[-1] == "worse"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dirac",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
