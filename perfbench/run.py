"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload {families,sweep,dirac} --seed N \
        --seconds S --trace {0,1}

Every CLI invocation runs in a fresh interpreter (perfbench/child.py), one at
a time: a closed loop with a single client.  The program's lru_caches are
process-global and unbounded, so a warm in-process repeat would time dict
lookups, while a CLI user always starts cold.

A pass runs every invocation of the workload once, then SETUP_EXTRA children
that only import the package.  Passes repeat until ``--seconds`` have
elapsed (at least MIN_PASSES).  With ``--trace 0`` the metrics are the
end-to-end ones, each the median over passes except setup_s:

    wall_s       time inside main(), summed over the pass's invocations
    setup_s      process spawn until ``import virfock`` is done, times the
                 number of invocations.  Every child does this same work and
                 one ~75 ms start-up is a noisy sample, so this is the median
                 over every child of the run, the import-only ones included.
    cpu_s        user + system CPU of the children, summed
    peak_rss_mb  largest ru_maxrss of any child

The three times are in reference seconds: each stretch of a child's time is
scaled by the CPU speed a probe measured in that child at that moment (see
child.py).  The detail line also gives them unscaled as raw_wall_s,
raw_setup_s and raw_cpu_s.

With ``--trace 1`` one untraced pass is followed by traced passes, and the
metrics are the per-layer counters of perfbench/tracer.py, summed over a
pass; ``trace.overhead_s`` is traced minus untraced wall_s.  Call counts
must repeat exactly from one traced pass to the next.

Every invocation's output is checked (workloads.gate).  The next-to-last
stdout line is a JSON detail record (provenance, quartiles, failures); the
last is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_EXTRA = 6
DEADLINE_S = 170  # a run must end within 180 s
WORK_DIR = os.path.join(ROOT, ".perfbench")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# The same times unscaled, reported in the detail line only.
RAW_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "raw_cpu_s": "s"}


class Run:
    """The invocations of one workload, and the samples collected from them."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.stdout_path = os.path.join(work, "stdout.json")
        self.invocations = workloads.build(workload, seed)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failures: list = []
        for i, inv in enumerate(self.invocations):
            if inv.grid:
                with open(self._grid_path(i), "w") as fh:
                    fh.write(workloads.grid_text(inv))

    def _grid_path(self, i: int) -> str:
        return os.path.join(self.work, f"grid-{i}.txt")

    def _argv(self, i: int) -> list:
        inv = self.invocations[i]
        return list(inv.argv) + ([f"--sweep={self._grid_path(i)}"] if inv.grid else [])

    def _child(self, options: list) -> tuple:
        """Run child.py in a fresh interpreter: (exit code, None on timeout; record or None)."""
        record_path = os.path.join(self.work, "record.json")
        if os.path.exists(record_path):
            os.remove(record_path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path] + options
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(self.stdout_path, "w") as out:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if rc is None or not os.path.exists(record_path):
            return rc, None
        with open(record_path) as fh:
            record = json.load(fh)
        record["raw_setup_s"] = record["ready"] - spawned
        record["raw_cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return rc, record

    def _spawn(self, i: int, spans: str | None):
        """Run invocation i in a fresh interpreter; its record, or None on failure."""
        inv = self.invocations[i]
        self.attempted += 1
        rc, record = self._child((["--spans", spans] if spans else []) + ["--"] + self._argv(i))
        if rc is None:
            self.failures.append(f"{inv.scenario}: timed out")
            return None
        with open(self.stdout_path) as fh:
            reason = workloads.gate(inv, rc, fh.read())
        if reason is None and record is None:
            reason = f"{inv.scenario}: no timing record"
        if reason is not None:
            self.failures.append(reason)
            return None
        return record

    def _setup_only(self):
        """One import-only child's record, or None on failure."""
        rc, record = self._child(["--setup-only"])
        if rc != 0 or record is None:
            self.failures.append(f"import-only child: exit code {rc}")
            return None
        return record

    def one_pass(self, traced: bool) -> dict | None:
        """End-to-end sums of one pass (plus layer sums when traced); None if any failed."""
        records = []
        for i, inv in enumerate(self.invocations):
            spans = os.path.join(WORK_DIR, "spans", f"{self.workload}-seed{self.seed}-{i}-"
                                 f"{inv.scenario}.json") if traced else None
            record = self._spawn(i, spans)
            if record is None:
                return None
            records.append(record)
        setups = list(records)
        for _ in range(SETUP_EXTRA):
            record = self._setup_only()
            if record is None:
                return None
            setups.append(record)
        sample = {
            "wall_s": sum(r["ref_main_s"] for r in records),
            "cpu_s": sum(r["raw_cpu_s"] * r["ref_main_s"] / r["main_s"] for r in records),
            "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
            "raw_wall_s": sum(r["main_s"] for r in records),
            "raw_cpu_s": sum(r["raw_cpu_s"] for r in records),
            # per child, pooled over the run (see the module docstring)
            "setup_s": [r["raw_setup_s"] * r["setup_scale"] for r in setups],
            "raw_setup_s": [r["raw_setup_s"] for r in setups],
        }
        if traced:
            layers = {}
            for r in records:
                for name, value in r["layers"].items():
                    layers[name] = layers.get(name, 0) + value
            sample["layers"] = layers
            sample["absent"] = sorted({name for r in records for name in r["absent"]})
        return sample

    def time_left(self, needed: float) -> bool:
        return time.perf_counter() + needed < self.deadline


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code where .git is absent."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "virfock")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def source_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(run: Run, seconds: float, trace: bool):
    """Run passes; returns (end-to-end samples, traced samples)."""
    untraced, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        if trace:
            done = len(untraced) >= 1 and len(traced) >= MIN_TRACED_PASSES
            want_traced = len(untraced) >= 1
        else:
            done = len(untraced) >= MIN_PASSES
            want_traced = False
        if done and time.perf_counter() - start >= seconds:
            break
        if (untraced or traced) and not run.time_left(2 * last):
            break
        began = time.perf_counter()
        sample = run.one_pass(want_traced)
        last = time.perf_counter() - began
        if sample is None:
            break
        (traced if want_traced else untraced).append(sample)
    return untraced, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "virfock", "cli.py")):
        print(f"error: no virfock sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
    load_start = os.getloadavg()[0]
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        # Untimed warm-up: compiles the bytecode caches and proves the import works.
        warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                               " import virfock.cli", os.path.join(ROOT, "src")], cwd=ROOT)
        if warm.returncode != 0:
            print("error: cannot import virfock from this checkout", file=sys.stderr)
            return 2
        run = Run(args.workload, args.seed, work)
        untraced, traced = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.failures and bool(untraced) and (traced or not args.trace)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "fail_ratio": len(run.failures) / max(1, run.attempted),
        "failures": run.failures[:20],
        "provenance": {
            "seed": args.seed, "commit": source_commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(), "load1_start": load_start,
            "load1_end": os.getloadavg()[0], "trace_overhead_s": None,
        },
    }
    if args.trace:
        metrics = {}
        if traced:
            calls = [{k: v for k, v in s["layers"].items() if k.endswith(".calls")} for s in traced]
            detail["calls_repeat"] = all(c == calls[0] for c in calls)
            correct = correct and detail["calls_repeat"]
            for name, count in traced[0]["layers"].items():
                if name.endswith("_s"):
                    metrics[name] = {"value": statistics.median(s["layers"][name] for s in traced),
                                     "unit": "s"}
                else:
                    metrics[name] = {"value": count, "unit": "count"}
            detail["absent"] = traced[0]["absent"]
        if untraced and traced:
            overhead = (statistics.median(s["wall_s"] for s in traced)
                        - statistics.median(s["wall_s"] for s in untraced))
            detail["provenance"]["trace_overhead_s"] = overhead
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # A run that completed no pass has nothing to report.
        metrics = {}
        if untraced:
            detail["end_to_end"] = {}
            n = len(run.invocations)
            for name, unit in list(END_TO_END_UNITS.items()) + list(RAW_UNITS.items()):
                if name.endswith("setup_s"):
                    values = [n * v for s in untraced for v in s[name]]
                else:
                    values = [s[name] for s in untraced]
                q1, median, q3 = quartiles(values)
                detail["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                              "n": len(values), "unit": unit}
            metrics = {name: {"value": detail["end_to_end"][name]["median"], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": bool(correct), "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
