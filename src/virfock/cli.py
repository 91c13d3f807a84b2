"""Command line front end: scenario selection, sweeps, text/JSON reports.

Exit codes: 0 every check passed, 1 at least one check failed, 2 usage or
configuration error.  All scalars are printed as exact rationals p/q.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from .algebra import format_rational, parse_rational
from .dirac import run_dirac_checks
from .operators import FAMILIES
from .verify import (
    OracleInconsistencyError,
    ScenarioParams,
    central_charge_oracle,
    default_truncation,
    require_oracle_caps,
    run_family_scenario,
)

SCENARIOS = tuple(FAMILIES) + ("dirac-checks", "all")


class ConfigError(Exception):
    pass


def _build_parser():
    # no prefixes: _parse_args joins a value to --M and --lambda only, so --lam -1/2 would read as two flags
    p = argparse.ArgumentParser(
        prog="virfock", allow_abbrev=False,
        description="Exact verification of free-field and constrained Virasoro Fock modules.")
    p.add_argument("--scenario", default="all", choices=SCENARIOS)
    p.add_argument("--M", default="1", help="mass-like parameter, exact rational p/q")
    p.add_argument("--lambda", dest="lam", default="1/2", help="family parameter, exact rational")
    p.add_argument("--level", type=int, default=6, help="level cap (fermions use (2*level-1)/2)")
    p.add_argument("--zmax", type=int, default=4, help="a†[0] occupancy cap")
    p.add_argument("--mmax", type=int, default=3, help="generator label range")
    p.add_argument("--window", type=int, default=8, help="constraint window half-width")
    p.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))
    p.add_argument("--sweep", metavar="FILE", default=None,
                   help="file of 'M lambda' rational pairs, one per line, # comments")
    return p


def _parse_args(argv):
    # argparse takes a value such as -1/2 for an option flag, so the rational
    # parameters are joined to their flag before parsing.
    joined = []
    values = iter(argv)
    for arg in values:
        if arg in ("--M", "--lambda"):
            arg = f"{arg}={next(values, '')}"
        joined.append(arg)
    parser = _build_parser()
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        raise ConfigError("bad command line") from exc
    try:
        args.M = parse_rational(args.M)
        args.lam = parse_rational(args.lam)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"parameters must be exact rationals p/q: {exc}") from exc
    if args.level < 1 or args.zmax < 0 or args.mmax < 2 or args.window < 1:
        raise ConfigError("caps out of range: need level >= 1, zmax >= 0, mmax >= 2, window >= 1")
    return args


def _scenario_params(family, M, lam, args) -> ScenarioParams:
    trunc = default_truncation(family, args.level, args.zmax)
    return ScenarioParams(family, M, lam, trunc, args.mmax)


def _run_scenarios(args):
    runs = []
    names = SCENARIOS[:-1] if args.scenario == "all" else (args.scenario,)
    families = {name: _scenario_params(name, args.M, args.lam, args) for name in names if name in FAMILIES}
    for params in families.values():  # bad caps or M for one family waste no other's suite
        require_oracle_caps(params)
        params.algebra  # reduced_boson(0) raises here
    for name in names:
        if name == "dirac-checks":
            reports = run_dirac_checks(args.M, args.window)
            runs.append({"scenario": name, "reports": reports})
        else:
            reports, c_formula, c_oracle = run_family_scenario(families[name])
            runs.append({"scenario": name, "reports": reports,
                         "c_formula": c_formula, "c_oracle": c_oracle})
    return runs


def _sweep(args):
    if args.scenario not in FAMILIES:
        raise ConfigError("--sweep needs a generator-family scenario")
    try:
        with open(args.sweep) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read sweep file: {exc}") from exc
    grid, parse = [], lru_cache(maxsize=None)(parse_rational)  # each distinct text once a sweep; errors not cached
    for line in lines:
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ConfigError(f"sweep rows are 'M lambda' pairs, got {text!r}")
        try:
            grid.append((parse(parts[0]), parse(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational in sweep row {text!r}: {exc}") from exc
    if not grid:
        raise ConfigError("sweep grid is empty")
    # bound once a sweep, after the grid; each point still forms its own slots and algebra
    oracle = central_charge_oracle(_scenario_params(args.scenario, args.M, args.lam, args))
    closed_form = FAMILIES[args.scenario].central_charge
    rows = []
    for M, lam in grid:
        formula, c = closed_form(M, lam), oracle(M, lam)
        rows.append({"M": M, "lambda": lam, "c_formula": formula, "c_oracle": c, "match": formula == c})
    return rows


def _summary(statuses: list) -> dict:
    passed, failed = statuses.count("pass"), statuses.count("fail")
    return {"total": len(statuses), "passed": passed, "failed": failed,
            "skipped": len(statuses) - passed - failed}


def _emit_runs(runs, args):
    all_reports = [r for run in runs for r in run["reports"]]
    summary = _summary([r.status for r in all_reports])
    if args.fmt == "json":
        payload = {
            "scenario": args.scenario,
            "params": {"M": format_rational(args.M), "lambda": format_rational(args.lam),
                       "level": args.level, "zmax": args.zmax, "mmax": args.mmax,
                       "window": args.window},
            "summary": summary,
        }
        blocks = []
        for run in runs:
            block = {"scenario": run["scenario"],
                     "checks": [r._asdict() for r in run["reports"]]}
            if "c_formula" in run:
                block["c_formula"] = format_rational(run["c_formula"])
                block["c_oracle"] = format_rational(run["c_oracle"])
            blocks.append(block)
        if len(runs) == 1:  # the run's block; its scenario is args.scenario, already first
            payload.update(blocks[0])
        else:
            payload["runs"] = blocks
        print(json.dumps(payload, indent=2))
    else:
        for run in runs:
            print(f"== scenario {run['scenario']} ==")
            for r in run["reports"]:
                print(r.line())
            if "c_formula" in run:
                print(f"c_formula={format_rational(run['c_formula'])} "
                      f"c_oracle={format_rational(run['c_oracle'])}")
        print("summary: {passed}/{total} passed, {failed} failed, {skipped} skipped".format(**summary))
    return 0 if all(r.ok for r in all_reports) else 1


# A sweep row byte for byte as json.dumps(..., indent=2) prints it, without its slow pure-Python
# encoder: each value is format_rational's -?\d+(/\d+)?, which needs no escape; match is true/false.
_SWEEP_ROW = ('    {{\n      "M": "{}",\n      "lambda": "{}",\n      "c_formula": "{}",\n'
              '      "c_oracle": "{}",\n      "match": {}\n    }}')


def _emit_sweep(rows, args):
    ok = all(row["match"] for row in rows)
    if args.fmt == "json":
        payload = {
            "scenario": args.scenario,
            "params": {"level": args.level, "zmax": args.zmax, "mmax": args.mmax,
                       "window": args.window},
            "sweep": [],
            "summary": _summary(["pass" if r["match"] else "fail" for r in rows]),
        }
        text = json.dumps(payload, indent=2)
        if rows:  # no rows stay the stdlib's []
            body = ",\n".join(_SWEEP_ROW.format(
                *map(format_rational, (r["M"], r["lambda"], r["c_formula"], r["c_oracle"])),
                "true" if r["match"] else "false") for r in rows)
            text = text.replace('"sweep": []', f'"sweep": [\n{body}\n  ]', 1)
        print(text)
    else:
        for r in rows:
            print(f"M={format_rational(r['M'])} lambda={format_rational(r['lambda'])} "
                  f"c_formula={format_rational(r['c_formula'])} "
                  f"c_oracle={format_rational(r['c_oracle'])} "
                  f"{'match' if r['match'] else 'MISMATCH'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.sweep is not None:
            return _emit_sweep(_sweep(args), args)
        return _emit_runs(_run_scenarios(args), args)
    except (ConfigError, ValueError, OracleInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OracleInconsistencyError) else 2  # a sweep point failed its check


if __name__ == "__main__":
    sys.exit(main())
