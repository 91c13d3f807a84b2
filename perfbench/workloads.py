"""Seeded workload inputs and the correctness gate for each CLI invocation.

A workload is a list of invocations of ``virfock.cli.main``; the seed fixes
every parameter, so the same seed always yields the same argv and grids.
Parameters are rationals p/q with |p|, q <= HEIGHT, which keeps the cost of
the exact arithmetic comparable from one seed to the next.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("families", "sweep", "dirac")

HEIGHT = 6
FAMILY_LEVELS = {
    # boson-unconstrained carries the a†[0] tower (695 states at level 6);
    # the other three are cheap enough to run at level 8.
    "boson-unconstrained": 6,
    "boson-reduced": 8,
    "fermion-unconstrained": 8,
    "fermion-reduced": 8,
}
FAMILIES = tuple(FAMILY_LEVELS)
SWEEP_POINTS_PER_FAMILY = 1000
DIRAC_WINDOW = 40

# Number of checks each scenario reports with the flags above.  A change in
# these counts means the probe set changed, which must never read as a speed-up.
EXPECTED_CHECKS = {
    "boson-unconstrained": 150,
    "boson-reduced": 136,
    "fermion-unconstrained": 136,
    "fermion-reduced": 52,
    "dirac-checks": 242,
}


def closed_form_c(family: str, M: Fraction, lam: Fraction) -> Fraction:
    """The paper's central charges, computed independently of the program."""
    if family == "boson-unconstrained":
        return 2 - 24 * M * lam * lam
    if family == "boson-reduced":
        return 1 - 24 * M * lam * lam
    if family == "fermion-unconstrained":
        return -2 * (1 - 6 * lam + 6 * lam * lam)
    return Fraction(1, 2)


def rationals(height: int = HEIGHT, zero: bool = False) -> list:
    """Every rational p/q with |p| <= height and 1 <= q <= height, sorted."""
    values = {Fraction(p, q) for p in range(-height, height + 1) for q in range(1, height + 1)}
    if not zero:
        values.discard(Fraction(0))
    return sorted(values)


@dataclass(frozen=True)
class Invocation:
    """One cold CLI process: its argv, and what its output must contain.

    For a sweep, ``grid`` holds the (M, lambda) rows; the runner writes them
    to a file and appends ``--sweep=<file>`` to the argv.
    """

    scenario: str
    argv: tuple
    M: Fraction | None = None
    lam: Fraction | None = None
    grid: tuple = ()


def build(workload: str, seed: int) -> list:
    """The invocations of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    nonzero = rationals()
    if workload == "families":
        # lambda != 0 too: lambda = 0 drops the linear part of the boson
        # generators, which would make one seed much cheaper than the rest.
        M, lam = rng.choice(nonzero), rng.choice(nonzero)
        return [Invocation(f, ("--scenario", f, f"--M={M}", f"--lambda={lam}",
                               f"--level={level}", "--format=json"), M, lam)
                for f, level in FAMILY_LEVELS.items()]
    if workload == "sweep":
        pool = [(M, lam) for M in nonzero for lam in rationals(zero=True)]
        return [Invocation(f, ("--scenario", f, "--format=json"),
                           grid=tuple(rng.sample(pool, SWEEP_POINTS_PER_FAMILY)))
                for f in FAMILIES]
    if workload == "dirac":
        M = rng.choice(nonzero)
        return [Invocation("dirac-checks", ("--scenario", "dirac-checks", f"--M={M}",
                                            f"--window={DIRAC_WINDOW}", "--format=json"), M)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def grid_text(inv: Invocation) -> str:
    return "".join(f"{M} {lam}\n" for M, lam in inv.grid)


def gate(inv: Invocation, returncode: int, stdout: str) -> str | None:
    """Why this invocation failed, or None when its output is correct."""
    if returncode != 0:
        return f"{inv.scenario}: exit code {returncode}"
    try:
        return _gate_output(inv, json.loads(stdout))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"{inv.scenario}: malformed output ({exc!r})"


def _gate_output(inv: Invocation, out: dict) -> str | None:
    if inv.grid:
        return _gate_sweep(inv, out)
    checks = out.get("checks", [])
    want = EXPECTED_CHECKS[inv.scenario]
    if len(checks) != want:
        return f"{inv.scenario}: {len(checks)} checks, expected {want}"
    bad = [c["name"] for c in checks if c.get("status") != "pass"]
    if bad:
        return f"{inv.scenario}: {len(bad)} checks not passed, first {bad[0]}"
    if inv.scenario in FAMILY_LEVELS:
        want_c = closed_form_c(inv.scenario, inv.M, inv.lam)
        got = (Fraction(out["c_formula"]), Fraction(out["c_oracle"]))
        if got != (want_c, want_c):
            return f"{inv.scenario}: c_formula, c_oracle = {got}, closed form {want_c}"
    return None


def _gate_sweep(inv: Invocation, out: dict) -> str | None:
    rows = out.get("sweep", [])
    if len(rows) != len(inv.grid):
        return f"sweep {inv.scenario}: {len(rows)} rows, expected {len(inv.grid)}"
    for row, (M, lam) in zip(rows, inv.grid):
        want_c = closed_form_c(inv.scenario, M, lam)
        got = (Fraction(row["M"]), Fraction(row["lambda"]),
               Fraction(row["c_formula"]), Fraction(row["c_oracle"]))
        if got != (M, lam, want_c, want_c) or row.get("match") is not True:
            return f"sweep {inv.scenario}: row {row} differs from M={M} lambda={lam} c={want_c}"
    return None
