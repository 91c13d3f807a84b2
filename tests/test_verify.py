"""Central-charge oracle, Virasoro relation checks, law suites, self-checks."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from virfock.algebra import format_rational
from virfock.fock import Truncation
from virfock.operators import Commutator
from virfock.dirac import Window
from virfock.verify import (
    ScenarioParams,
    check_christoffel,
    check_jacobi,
    check_primary_laws,
    check_virasoro_relation,
    check_window_doubling,
    claimed_central_charge,
    extract_central_charge,
    run_dirac_checks,
    run_family_scenario,
)

H = Fraction(1, 2)


def small_params(family, M=1, lam=H, m_range=2):
    trunc = (Truncation(Fraction(9, 2)) if family.startswith("fermion")
             else Truncation(Fraction(4), 3 if family == "boson-unconstrained" else 0))
    return ScenarioParams(family, M, lam, trunc, m_range)


def test_claimed_formulas():
    assert claimed_central_charge("boson-unconstrained", 0, 5) == 2
    assert claimed_central_charge("boson-unconstrained", 1, H) == -4
    assert claimed_central_charge("boson-reduced", H, 1) == -11
    assert claimed_central_charge("fermion-unconstrained", 0, H) == 1
    assert claimed_central_charge("fermion-unconstrained", 0, Fraction(1, 3)) == Fraction(2, 3)
    assert claimed_central_charge("fermion-reduced") == H


def test_oracle_examples():
    assert extract_central_charge(small_params("fermion-reduced")) == H
    assert extract_central_charge(small_params("fermion-unconstrained", 0, H)) == 1
    # cross-checked against the closed form 2 - 24 M lam^2 at M=1, lam=1
    assert extract_central_charge(small_params("boson-unconstrained", 1, 1)) == -22


def test_oracle_internal_consistency_all_families():
    # extraction asserts m=2 against m=3 internally; none of these may raise
    for family, M, lam in [("boson-unconstrained", 2, 1), ("boson-reduced", H, H),
                           ("fermion-unconstrained", 0, 2), ("fermion-reduced", 0, 0)]:
        extract_central_charge(small_params(family, M, lam))


def test_oracle_preconditions():
    p = ScenarioParams("fermion-reduced", trunc=Truncation(Fraction(5, 2)))
    with pytest.raises(ValueError):
        extract_central_charge(p)
    p = ScenarioParams("boson-unconstrained", trunc=Truncation(Fraction(4), 1))
    with pytest.raises(ValueError):
        extract_central_charge(p)


def test_scenario_params_validation():
    with pytest.raises(ValueError):
        ScenarioParams("no-such-family")
    with pytest.raises(ValueError):
        ScenarioParams("fermion-reduced", m_range=1)


def test_virasoro_relation_small_grids():
    # includes the pinned rows: M=0 boson at c=2, lam=0 fermion at c=-2,
    # and the reduced boson at (1, 1/2) with c=-5
    for family, M, lam in [("fermion-reduced", 0, 0), ("boson-reduced", 1, H),
                           ("fermion-unconstrained", 0, Fraction(1, 3)),
                           ("fermion-unconstrained", 0, 0),
                           ("boson-unconstrained", 0, Fraction(1, 3)),
                           ("boson-unconstrained", 1, H)]:
        params = small_params(family, M, lam)
        c = claimed_central_charge(family, M, lam)
        reports = check_virasoro_relation(params, c)
        assert reports and all(r.status == "pass" for r in reports), family
    assert claimed_central_charge("boson-unconstrained", 0, Fraction(1, 3)) == 2
    assert claimed_central_charge("fermion-unconstrained", 0, 0) == -2
    assert claimed_central_charge("boson-reduced", 1, H) == -5


def test_virasoro_relation_detects_wrong_charge():
    params = small_params("fermion-reduced")
    reports = check_virasoro_relation(params, claimed_central_charge("fermion-reduced") + 1)
    failed = [r for r in reports if r.status == "fail"]
    assert failed  # the m+n = 0 rows must notice a wrong central term
    assert all("m=" in r.name for r in failed)
    assert all(r.expected and r.got for r in failed)  # fail entries carry both renderings


def test_virasoro_self_consistency_with_oracle_charge():
    # substituting the measured charge must pass, independent of the formulas
    params = small_params("fermion-unconstrained", 0, Fraction(1, 3))
    c = extract_central_charge(params)
    assert all(r.status == "pass" for r in check_virasoro_relation(params, c))


def test_primary_laws_pass():
    for family, M, lam in [("boson-unconstrained", 1, H),
                           ("fermion-unconstrained", 0, Fraction(1, 3))]:
        reports = check_primary_laws(small_params(family, M, lam))
        assert reports and all(r.status == "pass" for r in reports)
    assert check_primary_laws(small_params("fermion-reduced")) == []


def test_primary_law_spot_value():
    # [L_2, b†[1/2]] = (2 lam + 1/2) b†[5/2] = (7/6) b†[5/2] at lam = 1/3
    from virfock.algebra import FERMION, bdag
    from virfock.fock import BasisState, VACUUM
    from virfock.operators import build_L, mode_operator
    lam = Fraction(1, 3)
    comm = Commutator(build_L("fermion-unconstrained", 2, 0, lam), mode_operator(FERMION, bdag(H)),
                      Truncation(Fraction(9, 2)))
    got = {comm.basis[j]: Fraction(n, comm.den) for j, n in comm.row(comm.state_id(VACUUM))}
    assert got == {BasisState((bdag(Fraction(5, 2)),)): Fraction(7, 6)}


def test_christoffel_checks():
    params = small_params("boson-reduced", 1, 1)
    reports = check_christoffel(params)
    assert reports and all(r.status == "pass" for r in reports)
    assert check_christoffel(small_params("fermion-reduced")) == []


def test_jacobi_spot_check():
    for family, M, lam in [("fermion-reduced", 0, 0), ("boson-unconstrained", 1, H)]:
        params = small_params(family, M, lam)
        assert all(r.status == "pass" for r in check_jacobi(params))


def test_window_doubling_check():
    params = small_params("fermion-unconstrained", 0, H)
    reports = check_window_doubling(params, probes=30)
    assert all(r.status == "pass" for r in reports)


def test_run_family_scenario_all_pass():
    reports, c_formula, c_oracle = run_family_scenario(small_params("fermion-reduced"))
    assert c_formula == c_oracle == H
    assert reports[0].name == "central_charge"
    assert all(r.status == "pass" for r in reports)


def test_run_dirac_checks_all_pass():
    reports = run_dirac_checks(Fraction(1), Window(4))
    assert len(reports) > 100
    assert all(r.status == "pass" for r in reports)
    names = {r.name for r in reports}
    assert "classify[even-copy]" in names
    assert "incompatibility_detected[fermion,lambda=0]" in names


def test_dirac_check_failures_print_exact_rationals(monkeypatch):
    # A perturbed Delta entry must break the contract of both families, and
    # every witness must print as p/q, never as a Python repr.
    import virfock.dirac as dirac
    import virfock.verify as verify
    from virfock.dirac import BosonConstraints, FermionConstraints, delta_contract_residuals

    invert_c = dirac.invert_c
    perturbed = {"boson": (-2, 2), "fermion": (-H, H)}

    def perturbed_invert_c(family, window):
        delta = dict(invert_c(family, window))
        delta[perturbed[family.name]] += Fraction(1, 7)
        return delta

    monkeypatch.setattr(dirac, "invert_c", perturbed_invert_c)
    M, w = Fraction(2, 3), Window(2)
    assert delta_contract_residuals(BosonConstraints(M), w) == [(-2, -2, Fraction(29, 21))]
    assert delta_contract_residuals(FermionConstraints(), w) == [(-H, -H, Fraction(9, 7))]

    dirac_bracket = verify.dirac_bracket
    monkeypatch.setattr(verify, "dirac_bracket",
                        lambda A, B, family: dirac_bracket(A, B, family) + Fraction(1, 7))
    got = {r.name: r.got for r in run_dirac_checks(M, w) if r.status == "fail"}
    assert got["delta_contract[boson,N=2]"] == "(P=-2,S=-2): 29/21"
    assert got["delta_contract[fermion,N=2]"] == "(P=-1/2,S=-1/2): 9/7"
    # the tables evaluate only the pairs where a bracket can be nonzero, so
    # the witnesses are the paired modes, each off by the added 1/7
    assert got["dirac_bracket_boson[N=2]"] == ("[a†[-2],a†[2]]*: 17/21; [a†[-1],a†[1]]*: 10/21; "
                                               "[a†[0],a†[0]]*: 1/7")
    assert got["dirac_bracket_fermion[N=2]"] == ("[b[-3/2],b[3/2]]*: 9/14; [b[-1/2],b[1/2]]*: 9/14; "
                                                 "[b[1/2],b[-1/2]]*: 9/14")
    assert not any("Fraction(" in text for text in got.values())


@pytest.mark.parametrize("family,level", [("boson-unconstrained", 6), ("boson-reduced", 8),
                                          ("fermion-unconstrained", 8), ("fermion-reduced", 8)])
def test_benchmark_levels_skip_nothing(monkeypatch, family, level):
    # Whether a check is skipped depends only on its probe set, never on the
    # action, so a zero action keeps the benchmark's caps affordable here.
    import virfock.verify as verify
    from virfock.verify import default_truncation
    zero = SimpleNamespace(den=1, row=lambda i: (), apply=lambda pairs: {}, state_id=lambda state: 0)
    monkeypatch.setattr(verify, "Commutator", lambda op_a, op_b, trunc: zero)
    monkeypatch.setattr(verify, "row_table", lambda op, trunc, window=None: zero)
    monkeypatch.setattr(verify, "mode_table", lambda algebra, x, trunc: zero)
    params = ScenarioParams(family, 1, H, default_truncation(family, level), 3)
    reports, _, _ = run_family_scenario(params)
    assert reports and not [r.name for r in reports if r.status == "skipped"]


def test_window_doubling_failure_names_its_draw(monkeypatch):
    import virfock.verify as verify
    from virfock.fock import accumulate
    real = verify.row_table

    def wide_window_differs(op, trunc, window=None):
        # the wide table's rows gain the identity: psi -> row(psi) + psi
        table = real(op, trunc, window)
        if window is None:
            return table
        return SimpleNamespace(den=table.den, row=lambda i: tuple(
            accumulate(dict(table.row(i)), ((i, table.den),)).items()))

    monkeypatch.setattr(verify, "row_table", wide_window_differs)
    (r,) = check_window_doubling(small_params("fermion-unconstrained", 0, H), probes=5)
    assert r.status == "fail"
    assert r.probe.startswith("m=") and "|0⟩" in r.probe and "BasisState(" not in r.probe
    assert r.got.startswith("-1·")  # the residual narrow - wide = -psi


def _residual_text(table, i) -> str:
    """Row i of a table as a failure report prints it: by state id, p/q·state."""
    return " + ".join(f"{format_rational(Fraction(n, table.den))}·{table.basis[j]}"
                      for j, n in sorted(table.row(i))).replace("+ -", "- ")


def test_law_failures_show_the_residual(monkeypatch):
    # with every mode table on the right-hand side replaced by zero rows, each
    # failing law's residual is its commutator on the witness state
    import virfock.verify as verify
    from virfock.algebra import FERMION, b, red_adag
    from virfock.operators import build_L, mode_operator
    monkeypatch.setattr(verify, "mode_table",
                        lambda algebra, x, trunc: SimpleNamespace(den=1, row=lambda i: ()))
    lam = Fraction(1, 3)
    fermion = small_params("fermion-unconstrained", 0, lam)
    boson = small_params("boson-reduced", 1, 1)
    cases = [
        (check_primary_laws(fermion), "primary[b,m=1,n=1/2]", fermion,
         build_L("fermion-unconstrained", 1, 0, lam), mode_operator(FERMION, b(H))),
        (check_christoffel(boson), "christoffel[m=1,n=1]", boson,
         build_L("boson-reduced", 1, 1, 1), mode_operator(boson.algebra, red_adag(1))),
    ]
    for reports, name, params, gen, xop in cases:
        (r,) = [r for r in reports if r.name == name]
        assert r.status == "fail"
        comm = Commutator(gen, xop, params.trunc)
        i = [str(s) for s in comm.basis].index(r.probe)
        assert comm.row(i) and r.got == _residual_text(comm, i)


def test_virasoro_failure_text_is_pinned(monkeypatch):
    # with (n-m) L_{m+n} replaced by zero rows and c = 0, a failing report's
    # residual is [L_m, L_n] on its witness: several terms of both signs
    import virfock.verify as verify
    monkeypatch.setattr(verify, "row_table",
                        lambda op, trunc, window=None: SimpleNamespace(den=1, row=lambda i: ()))
    params = ScenarioParams("boson-unconstrained", Fraction(2, 3), Fraction(-5, 4),
                            Truncation(Fraction(4), 2), m_range=2)
    (r,) = [r for r in check_virasoro_relation(params, 0) if r.name == "virasoro[m=-1,n=2]"]
    assert r.status == "fail"
    assert r.got == "-5·a[1]|0⟩ - 15/2·a†[1]|0⟩ + 3·a[1]a†[0]|0⟩"
    assert r.probe == "|0⟩"
