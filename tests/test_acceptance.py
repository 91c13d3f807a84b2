"""Acceptance suite: every criterion at its stated tolerance (exact, zero).

Defaults throughout: level cap 6 for bosons and 11/2 for fermions, zero-mode
occupancy cap 4, generator labels |m| <= 3, constraint window N = 8.  Each
criterion prints one pass/fail line (run with -s to see them).
"""

import time
from fractions import Fraction

import pytest

from virfock.algebra import BOSON, FERMION, a, adag, b
from virfock.operators import build_L, mode_operator
from virfock.dirac import (
    BosonConstraints,
    EvenCopyConstraints,
    FermionConstraints,
    ZERO_GAUGE_LABEL,
    classify,
    delta_contract_residuals,
    dirac_bracket,
    verify_compatibility,
)
from virfock.verify import (
    ScenarioParams,
    check_jacobi,
    check_laws,
    check_virasoro_relation,
    check_window_doubling,
    claimed_central_charge,
    default_truncation,
    extract_central_charge,
)

H = Fraction(1, 2)

REPRESENTATIVE = [
    ("boson-unconstrained", Fraction(1), H),
    ("boson-reduced", Fraction(1), H),
    ("fermion-unconstrained", Fraction(0), Fraction(1, 3)),
    ("fermion-reduced", Fraction(0), Fraction(0)),
]


def params_for(family, M=0, lam=0, m_range=3):
    return ScenarioParams(family, M, lam, default_truncation(family), m_range)


def _announce(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, text


def test_criterion_1_central_charge_grid():
    grid = []
    for M in (0, H, 1, 2):
        for lam in (0, H, 1):
            grid.append(("boson-unconstrained", Fraction(M), Fraction(lam)))
    for M in (H, 1, 2):
        for lam in (0, H, 1):
            grid.append(("boson-reduced", Fraction(M), Fraction(lam)))
    for lam in (0, Fraction(1, 3), H, 1, 2):
        grid.append(("fermion-unconstrained", Fraction(0), Fraction(lam)))
    grid.append(("fermion-reduced", Fraction(0), Fraction(0)))

    t0 = time.time()
    mismatches = []
    for family, M, lam in grid:
        oracle = extract_central_charge(params_for(family, M, lam))
        formula = claimed_central_charge(family, M, lam)
        if oracle != formula:
            mismatches.append((family, M, lam, oracle, formula))
    elapsed = time.time() - t0
    assert claimed_central_charge("fermion-unconstrained", 0, H) == 1  # c = 1 at lam = 1/2
    ok = not mismatches and elapsed < 60
    _announce(1, ok, f"27-point central-charge grid exact in {elapsed:.1f}s "
                     f"(mismatches: {mismatches})")


@pytest.mark.parametrize("family,M,lam", REPRESENTATIVE)
def test_criterion_2_virasoro_relation(family, M, lam):
    params = params_for(family, M, lam)
    c = claimed_central_charge(family, M, lam)
    reports = check_virasoro_relation(params, c)
    failures = [r for r in reports if r.status == "fail"]
    assert len(reports) == 49  # all |m|, |n| <= 3
    _announce(2, not failures,
              f"{family}: [L_m, L_n] exact on every safe state, 49 label pairs "
              f"(failures: {[r.name for r in failures[:3]]})")


def test_criterion_3_dirac_machinery():
    window = 8
    problems = []
    for name, fam in (("boson", BosonConstraints(1)), ("fermion", FermionConstraints())):
        bad = delta_contract_residuals(fam, window)
        if bad:
            problems.append((name, bad[:2]))
    fam2 = BosonConstraints(2)
    for m in range(-8, 9):
        for n in range(-8, 9):
            want = -(Fraction(2) / 2) * m if m + n == 0 else 0
            if dirac_bracket(mode_operator(BOSON, adag(m)),
                             mode_operator(BOSON, adag(n)), fam2) != want:
                problems.append(("DBa", m, n))
    for x, y in ((adag(0), adag(0)), (adag(0), a(0)), (a(0), a(0))):
        if dirac_bracket(mode_operator(BOSON, x), mode_operator(BOSON, y), fam2) != 0:
            problems.append(("zero-mode", str(x), str(y)))
    ferm = FermionConstraints()
    half = [Fraction(t, 2) for t in range(-15, 16, 2)]
    for r in half:
        for s in half:
            want = H if r + s == 0 else 0
            if dirac_bracket(mode_operator(FERMION, b(r)),
                             mode_operator(FERMION, b(s)), ferm) != want:
                problems.append(("DBb", r, s))
    _announce(3, not problems,
              f"Delta contract on N=8 and Dirac-bracket tables for |index| <= 8 "
              f"including zero modes (problems: {problems[:3]})")


def test_criterion_4_compatibility_and_only_if():
    failures = []
    bos = BosonConstraints(1)
    for m in range(-5, 6):
        lm = build_L("boson-unconstrained", m, 1, H)
        failures += [r for r in verify_compatibility(lm, bos, range(-5, 6))
                     if r.status == "fail"]
    fer = FermionConstraints()
    half5 = [Fraction(t, 2) for t in range(-9, 10, 2)]
    for m in range(-5, 6):
        lm = build_L("fermion-unconstrained", m, 0, H)
        failures += [r for r in verify_compatibility(lm, fer, half5)
                     if r.status == "fail"]
    lam0_failed = any(r.status == "fail"
                      for m in (1, 2, 3)
                      for r in verify_compatibility(
                          build_L("fermion-unconstrained", m, 0, 0), fer, half5))
    ok = not failures and lam0_failed
    _announce(4, ok,
              "constraint transforms exact for |m|,|n| <= 5 (boson, fermion at "
              "lambda=1/2) and flagged incompatible at lambda=0 "
              f"(failures: {[r.name for r in failures[:3]]}, "
              f"lambda0_detected: {lam0_failed})")


def test_criterion_5_classification():
    w = 8
    no_gauge = classify(BosonConstraints(1, with_zero_gauge=False), w)
    gauged = classify(BosonConstraints(1, with_zero_gauge=True), w)
    even = classify(EvenCopyConstraints(), w)
    ok = (no_gauge.first_class == [0]
          and gauged.first_class == [] and ZERO_GAUGE_LABEL in gauged.second_class
          and even.second_class == [] and len(even.first_class) == 16)
    _announce(5, ok,
              f"classification: no-gauge first={no_gauge.first_class}, "
              f"gauged all second ({len(gauged.second_class)}), "
              f"even-parity copy all first ({len(even.first_class)})")


def test_criterion_6_christoffel_anomaly():
    failures = []
    for M, lam in [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 3))]:
        params = params_for("boson-reduced", M, lam)
        failures += [r for r in check_laws(params) if r.status == "fail"]
    _announce(6, not failures,
              "reduced-boson transform n a†[m+n] - M lam m(m+1) delta(m+n) exact "
              f"for |m|,|n| <= 3 at two parameter points "
              f"(failures: {[r.name for r in failures[:3]]})")


def test_criterion_7_engine_self_checks():
    problems = []
    for family, M, lam in REPRESENTATIVE:
        params = params_for(family, M, lam)
        jac = check_jacobi(params)
        problems += [(family, r.name) for r in jac if r.status == "fail"]
        # extract_central_charge raises OracleInconsistencyError on m=2 vs m=3 drift
        extract_central_charge(params)
    probes = [r for family, M, lam in (("boson-unconstrained", 1, H),
                                       ("fermion-unconstrained", 0, Fraction(1, 3)))
              for r in check_window_doubling(params_for(family, M, lam), probes=50)]
    problems += [("window", r.name) for r in probes if r.status == "fail"]
    _announce(7, not problems,
              "Jacobi spot-checks, oracle m=2/m=3 consistency in every scenario, "
              f"and 100 window-doubling probes (problems: {problems[:3]})")
