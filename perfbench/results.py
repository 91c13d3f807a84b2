"""Collect, summarise and compare result sets of perfbench/run.py.

    python3 perfbench/results.py collect --out DIR [--tree PATH [--tree PATH]]
            [--runs 10] [--trace 0|1]
    python3 perfbench/results.py summary DIR
    python3 perfbench/results.py compare PARENT_DIR CHANGE_DIR

A result set is a directory of records, one JSON file per run, holding the
run's detail line and result line.  ``collect`` runs every workload of
BENCHMARK.json once per seed (seeds 1 .. runs) for its ``run_seconds``, each
run a fresh run.py.  Given two trees (parent first, then change), it
alternates which tree runs first from one seed to the next and writes
DIR/parent and DIR/change.

``compare`` pairs parent and change runs by (workload, seed) and prints one
row per workload and end-to-end metric of BENCHMARK.json.  Runs that are not
correct are left out of the figures and counted in the fail_ratio row.

    improved    at least MIN_PAIRS pairs, the change wins at least 9/10 of
                them (ties count for neither), and the medians differ by
                more than the parent's own spread (q3 - q1)
    worse       the change's median is worse than the parent's by more than
                the metric's bound
    unresolved  neither, and either a gain rests on fewer than MIN_PAIRS
                pairs or on a change that fails a larger share of its
                invocations than the parent, or the spread of either side is wider than the bound
                and not every change run beats every parent run
    unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One fresh run.py in ``tree``; its detail and result lines as a record."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py failed in {tree} ({workload}, seed {seed}): "
                           f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def collect(out: str, trees: list, runs: int, trace: int, spec: dict):
    labels = ["."] if len(trees) == 1 else ["parent", "change"]
    for label in labels:
        os.makedirs(os.path.join(out, label), exist_ok=True)
    for seed in range(1, runs + 1):
        order = list(zip(labels, trees))
        if seed % 2 == 0:
            order.reverse()
        for workload in (w["name"] for w in spec["workloads"]):
            for label, tree in order:
                record = run_once(tree, workload, seed, spec["run_seconds"], trace)
                path = os.path.join(out, label, f"{workload}-seed{seed}-trace{trace}.json")
                with open(path, "w") as fh:
                    json.dump(record, fh, indent=1)
                result = record["result"]
                shown = {name: m for name, m in result["metrics"].items()
                         if not trace or name == "trace.overhead_s"}
                print(f"{label} {workload} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} " + " ".join(
                          f"{name}={m['value']:.4g}" for name, m in shown.items()),
                      flush=True)


def load(directory: str) -> list:
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                records.append(json.load(fh))
    return records


def by_workload(records: list, trace: int) -> dict:
    groups = {}
    for rec in records:
        if rec["detail"]["trace"] == trace:
            groups.setdefault(rec["detail"]["workload"], []).append(rec)
    return groups


def fail_counts(recs: list) -> tuple:
    """(failed, attempted) invocations over the runs."""
    return (sum(r["result"]["failed"] for r in recs),
            sum(r["result"]["attempted"] for r in recs))


def correct_runs(recs: list) -> list:
    return [r for r in recs if r["result"]["correct"]]


def summary(directory: str, spec: dict) -> bool:
    """Print the end-to-end and per-layer figures; False if any run failed or spread."""
    records = load(directory)
    steady = True
    for workload, recs in sorted(by_workload(records, 0).items()):
        failed, attempted = fail_counts(recs)
        good = correct_runs(recs)
        steady &= len(good) == len(recs) and not failed
        print(f"{workload}: {len(recs)} runs, fail_ratio {failed}/{attempted} = "
              f"{failed / max(1, attempted):.3g}, correct {len(good)}/{len(recs)}")
        if not good:
            continue
        recs = good
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in recs]
            q1, median, q3 = quartiles(values)
            s = spread(values)
            ok = s < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<12} median {median:10.4f} {metric['unit']:<3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} n {len(values):2d}  spread {s:.3f} "
                  f"(bound {metric['bound']}){'' if ok else '  SPREAD > bound/3'}")
        for name in ("raw_wall_s", "raw_setup_s", "raw_cpu_s"):
            values = [r["detail"]["end_to_end"][name]["median"] for r in recs]
            q1, median, q3 = quartiles(values)
            print(f"  ({name} unscaled: median {median:.4f} s, q1 {q1:.4f}, q3 {q3:.4f})")
    for workload, recs in sorted(by_workload(records, 1).items()):
        good = correct_runs(recs)
        steady &= len(good) == len(recs)
        if not good:
            print(f"{workload} (traced): {len(recs)} runs, none correct")
            continue
        seeds = {}
        for r in good:
            calls = {k: v["value"] for k, v in r["result"]["metrics"].items()
                     if k.endswith(".calls")}
            seeds.setdefault(r["detail"]["seed"], []).append(calls)
        repeat = all(c == runs[0] for runs in seeds.values() for c in runs)
        steady &= repeat
        overhead = [r["detail"]["provenance"]["trace_overhead_s"] for r in good]
        engine = [sum(v["value"] for k, v in r["result"]["metrics"].items()
                      if k.startswith(("fock.", "operators.")) and k.endswith(".self_s"))
                  / r["result"]["metrics"]["cli.main.total_s"]["value"] for r in good]
        print(f"{workload} (traced): {len(recs)} runs, correct {len(good)}/{len(recs)}, "
              f"calls repeat across runs of one seed: {repeat}, "
              f"trace overhead {statistics.median(overhead):.3f} s, "
              f"fock + operators self time {statistics.median(engine):.0%} of cli.main")
        for metric in spec["per_layer"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in good]
            print(f"  {metric['name']:<46} {statistics.median(values):14.6g} {metric['unit']}")
    return steady


def verdict(parent: list, change: list, pairs: list, bound: float, lower: bool,
            more_failures: bool) -> str:
    """One of improved / worse / unresolved / unchanged; see the module docstring.

    ``more_failures``: the change failed a larger share of its invocations
    than the parent, so no gain counts.
    """
    def better(x, y):
        return x < y if lower else x > y

    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if better(c, p))
    gain = wins >= WIN_SHARE * len(pairs) and better(c_med, p_med) and abs(c_med - p_med) > q3 - q1
    if gain and len(pairs) >= MIN_PAIRS and not more_failures:
        return "improved"
    if better(p_med, c_med) and abs(c_med - p_med) > bound * abs(p_med):
        return "worse"
    if gain or (max(spread(parent), spread(change)) > bound
                and not all(better(c, p) for c in change for p in parent)):
        return "unresolved"
    return "unchanged"


def compare(parent_dir: str, change_dir: str, spec: dict):
    parent = by_workload(load(parent_dir), 0)
    change = by_workload(load(change_dir), 0)
    print(f"{'workload':<10} {'metric':<12} {'unit':<5} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get(workload, []), change.get(workload, [])
        if not p_recs or not c_recs:
            print(f"{workload:<10} missing on one side")
            continue
        fails = [fail_counts(recs) for recs in (p_recs, c_recs)]
        p_ratio, c_ratio = (f / max(1, a) for f, a in fails)
        p_recs, c_recs = correct_runs(p_recs), correct_runs(c_recs)
        metrics = spec["end_to_end"]
        if not p_recs or not c_recs:
            print(f"{workload:<10} no correct run on one side")
            metrics = []
        for metric in metrics:
            name = metric["name"]
            p_by_seed = {r["detail"]["seed"]: r["result"]["metrics"][name]["value"] for r in p_recs}
            c_by_seed = {r["detail"]["seed"]: r["result"]["metrics"][name]["value"] for r in c_recs}
            pairs = [(p_by_seed[s], c_by_seed[s]) for s in sorted(set(p_by_seed) & set(c_by_seed))]
            p_vals, c_vals = list(p_by_seed.values()), list(c_by_seed.values())
            wins = sum(1 for p, c in pairs if (c < p if metric["better"] == "lower" else c > p))
            row = verdict(p_vals, c_vals, pairs, metric["bound"], metric["better"] == "lower",
                          c_ratio > p_ratio)
            cells = []
            for vals in (p_vals, c_vals):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.4f} [{q1:.4f}, {q3:.4f}]")
            print(f"{workload:<10} {name:<12} {metric['unit']:<5} {cells[0]:>34} "
                  f"{cells[1]:>34} {wins:>3}/{len(pairs):<2}  {row}")
        row = "worse" if c_ratio > p_ratio else "improved" if c_ratio < p_ratio else "unchanged"
        print(f"{workload:<10} {'fail_ratio':<12} {'':<5} "
              f"{fails[0][0]:>26}/{fails[0][1]:<7} {fails[1][0]:>26}/{fails[1][1]:<7} "
              f"{'':>6}  {row}")


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--tree", action="append", default=None,
                   help="checkout to measure; give two (parent, change) to alternate")
    c.add_argument("--runs", type=int, default=MIN_PAIRS)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary")
    s.add_argument("dir")
    m = sub.add_parser("compare")
    m.add_argument("parent")
    m.add_argument("change")
    args = p.parse_args(argv)
    if args.command == "collect":
        trees = [os.path.abspath(t) for t in (args.tree or [ROOT])]
        if len(trees) > 2:
            p.error("give at most two trees")
        collect(args.out, trees, args.runs, args.trace, spec)
        for label in (["."] if len(trees) == 1 else ["parent", "change"]):
            print(f"== {os.path.join(args.out, label)}")
            summary(os.path.join(args.out, label), spec)
        if len(trees) == 2:
            compare(os.path.join(args.out, "parent"), os.path.join(args.out, "change"), spec)
        return 0
    if args.command == "summary":
        return 0 if summary(args.dir, spec) else 1
    compare(args.parent, args.change, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
