"""Central-charge oracle, Virasoro relation checks, law suites, self-checks."""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import virfock.verify as verify
from reference import direct_central_charge, vacuum_part_entries
from virfock.algebra import BOSON, REDUCED_FERMION, Algebra, AlgebraMismatchError, FieldKind, reduced_boson
from virfock.fock import Truncation
from virfock.operators import FAMILIES, Commutator, build_L
from virfock.dirac import run_dirac_checks
from virfock.cli import main
from virfock.verify import (
    ScenarioParams,
    check_jacobi,
    check_laws,
    check_virasoro_relation,
    check_window_doubling,
    claimed_central_charge,
    default_truncation,
    extract_central_charge,
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


_DEFAULT_CAPS = {  # family -> (level, zmax) -> (level_cap, zero_mode_cap), written out
    "boson-unconstrained": lambda level, zmax: (Fraction(level), zmax),
    "boson-reduced": lambda level, zmax: (Fraction(level), 0),
    "fermion-unconstrained": lambda level, zmax: (Fraction(2 * level - 1, 2), 0),
    "fermion-reduced": lambda level, zmax: (Fraction(2 * level - 1, 2), 0),
}


@pytest.mark.parametrize("family", sorted(_DEFAULT_CAPS))
def test_default_truncation_caps(family):
    # half-odd-moded kinds cap the level at (2·level-1)/2; only a†[0] reads zmax
    for level in range(1, 9):
        for zmax in range(5):
            trunc = default_truncation(family, level, zmax)
            assert (trunc.level_cap, trunc.zero_mode_cap) == _DEFAULT_CAPS[family](level, zmax)
            assert trunc == Truncation(*_DEFAULT_CAPS[family](level, zmax))
            assert default_truncation(family, level, zmax) is trunc


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
@example(Fraction(0), Fraction(0))
@example(Fraction(-2, 3), Fraction(-5, 4))
def test_claimed_formulas_equal_the_fraction_closed_forms(M, lam):
    # the paper's closed forms in Fraction arithmetic, against the integer forms
    closed = {"boson-unconstrained": 2 - 24 * M * lam * lam,
              "boson-reduced": 1 - 24 * M * lam * lam,
              "fermion-unconstrained": -2 * (1 - 6 * lam + 6 * lam * lam),
              "fermion-reduced": Fraction(1, 2)}
    for family, c in closed.items():
        for args in ((M, lam), (str(M), str(lam))):  # a Fraction as it is, or converted
            got = claimed_central_charge(family, *args)
            assert type(got) is Fraction and got == c, (family, args)


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


@pytest.mark.parametrize("caps", [(6, 4), (4, 2)], ids=["default-caps", "level4-zmax2"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(_RATIONALS, _RATIONALS)
@example(Fraction(-2, 3), Fraction(0))
@example(Fraction(5), Fraction(0))
@example(Fraction(-4), Fraction(7, 3))
@example(Fraction(-1, 6), Fraction(-5, 4))
def test_oracle_equals_the_direct_oracle(family, caps, M, lam):
    # the cached forms against the row tables of the point's own generators;
    # lambda = 0 drops the boson linear slots and the fermion alpha slots, so
    # it reads forms of other shapes than lambda != 0 does
    if family == "boson-reduced" and not M:
        M = Fraction(1)
    params = ScenarioParams(family, M, lam, default_truncation(family, *caps))
    assert extract_central_charge(params) == direct_central_charge(params)


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS), min_size=1, max_size=8))
def test_one_bound_oracle_equals_the_one_point_oracles_at_every_point(family, points):
    # the binding a sweep makes once, bound at another point and evaluated at many in
    # turn, against the one-point oracle and the row tables of each point's own generators
    trunc = default_truncation(family, 4, 2)
    oracle = verify.central_charge_oracle(ScenarioParams(family, Fraction(7, 5), Fraction(-3), trunc))
    for M, lam in points:
        if family == "boson-reduced" and not M:
            M = Fraction(1)
        params = ScenarioParams(family, M, lam, trunc)
        assert oracle(M, lam) == extract_central_charge(params) == direct_central_charge(params), (M, lam)


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@example(Fraction(-1, 3), Fraction(1, 3))
@example(Fraction(2, 5), Fraction(0))
@example(Fraction(-4), Fraction(-5, 4))
def test_reduced_boson_vacuum_entries_scale_as_m_to_half_their_modes(M, lam):
    # the lemma behind the oracle's M = 1 forms: [a†[m], a†[-m]] at M is M times
    # its value at M = 1, and a vacuum entry of k modes is a sum of products of
    # k/2 brackets, so it is the M = 1 entry times M^(k/2); odd k has none
    family, trunc = "boson-reduced", default_truncation("boson-reduced")
    for labels in [(0,), (2, -2), (3, -3)]:
        at_m = vacuum_part_entries(trunc, *[build_L(family, m, M, lam) for m in labels])
        at_one = vacuum_part_entries(trunc, *[build_L(family, m, 1, lam) for m in labels])
        assert [k for _, k in at_m] == [k for _, k in at_one]
        for (entry, k), (unit_entry, _) in zip(at_m, at_one):
            assert entry == (unit_entry * M ** (k // 2) if k % 2 == 0 else 0), (labels, k)
            assert k % 2 == 0 or unit_entry == 0
        # the kernel pair always reads a contraction; the linear pair does when lambda != 0
        assert any(e for e, k in at_one if k == (4 if len(labels) == 2 else 0))
        assert any(e for e, k in at_one if k == 2) == (len(labels) == 2 and lam != 0)


def test_the_oracle_scale_is_read_off_the_bracket_table():
    # a point's vacuum entries are its M = 1 entries rescaled by the ratio of
    # the two bracket tables, which exists only if kinds, flags and keys match
    unit = reduced_boson(1)
    p, q = verify._bracket_scale(reduced_boson(Fraction(-2, 3)), unit)
    assert Fraction(p, q) == Fraction(-2, 3)
    assert verify._bracket_scale(BOSON, BOSON) == (1, 1)
    a, adag, red = FieldKind.A, FieldKind.ADAG, FieldKind.RED_ADAG
    doubled = Algebra(BOSON.name, None, BOSON.kinds, True, {(adag, a): Fraction(2), (a, adag): Fraction(-2)})
    assert Fraction(*verify._bracket_scale(doubled, BOSON)) == 2
    bracket = {(red, red): Fraction(-1)}
    for other, base in [(Algebra(unit.name, Fraction(2), unit.kinds, False, bracket), unit),  # not index-weighted
                        (Algebra(unit.name, Fraction(2), unit.kinds, True, bracket, True), unit),  # a zero mode
                        (Algebra(BOSON.name, None, BOSON.kinds, True,  # two brackets, two factors
                                 {(adag, a): Fraction(2), (a, adag): Fraction(-1)}), BOSON),
                        (REDUCED_FERMION, unit)]:  # other kinds and keys
        with pytest.raises(AlgebraMismatchError, match="is not a rescaling of"):
            verify._bracket_scale(other, base)


def test_a_perturbed_form_entry_fails_the_sweep(monkeypatch, capsys, tmp_path, fresh_caches):
    # one entry of the cached m = 2 form off by 1/den: m = 2 reads a c off the
    # closed form, which m = 3 still gives, so the sweep ends in an error
    real = verify._vacuum_form

    def perturbed(trunc, unit, *shapes):
        g, (((entry, *positions), *terms), den), f3 = real(trunc, unit, *shapes)  # g, [L_2, L_-2], [L_3, L_-3]
        return [g, ([(entry + 1, *positions), *terms], den), f3]

    monkeypatch.setattr(verify, "_vacuum_form", perturbed)
    family, M, lam = "boson-unconstrained", Fraction(5), Fraction(2)
    grid = tmp_path / "grid.txt"
    grid.write_text(f"{M} {lam}\n")
    assert main(["--scenario", family, "--sweep", str(grid)]) == 1
    out = capsys.readouterr()
    c, (c2, c3) = claimed_central_charge(family, M, lam), re.findall(r"m=[23] gives c=(-?[\d/]+)", out.err)
    assert (out.out, Fraction(c3)) == ("", c) and Fraction(c2) != c


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_sweep_builds_one_oracle_form_per_family_and_truncation(tmp_path, capsys, fresh_caches, family):
    # the forms hold a unit part for every slot, zero or not, so points whose zero slots differ
    # (lambda = 0 zeroes a linear slot, M = 1 and 2/3 give the fermion's L_0 constant or not) share one
    grid = tmp_path / "grid.txt"
    grid.write_text("".join(f"{M} {lam}\n" for M in ("1", "2/3") for lam in ("0", "1/2", "1/3")))
    assert main(["--scenario", family, "--sweep", str(grid)]) == 0
    assert capsys.readouterr().out.count(" match\n") == 6
    assert verify._vacuum_form.cache_info().misses == 1


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


_LAW_POINTS = {"boson-unconstrained": (1, H), "boson-reduced": (1, 1),
               "fermion-unconstrained": (0, Fraction(1, 3)), "fermion-reduced": (1, H)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_laws_pass(family):
    # one report per (m, law, n): 2R+1 labels of an integer-moded kind with zero modes, else 2R,
    # and a Dirac-route report after each reduced a† one; fermion-reduced states no law
    params = small_params(family, *_LAW_POINTS[family])
    R, zero_modes = params.m_range, params.algebra.has_zero_modes
    reports = check_laws(params)
    assert len(reports) == sum((2 * R + 1) * (2 * R + (zero_modes and not law.kind.half_integer_moded))
                               * (2 if law.kind is FieldKind.RED_ADAG else 1) for law in FAMILIES[family].laws)
    assert all(r.status == "pass" for r in reports)
    assert (reports == []) == (family == "fermion-reduced")


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
    reports = run_dirac_checks(Fraction(1), 4)
    assert len(reports) > 100
    assert all(r.status == "pass" for r in reports)
    names = {r.name for r in reports}
    assert "classify[even-copy]" in names
    assert "incompatibility_detected[fermion,lambda=0]" in names


@pytest.mark.parametrize("N", [0, -1])
def test_run_dirac_checks_rejects_an_empty_window(N):
    # at N = 0 there is no half-odd fermion label, so the fermion reports
    # and classify[even-copy] would pass without probing anything
    with pytest.raises(ValueError, match="N >= 1"):
        run_dirac_checks(Fraction(1), N)


def test_dirac_check_failures_print_exact_rationals(monkeypatch):
    # A perturbed Delta entry must break the contract of both families, and
    # every witness must print as p/q, never as a Python repr.
    import virfock.dirac as dirac
    from virfock.dirac import BosonConstraints, FermionConstraints, delta_contract_residuals

    invert_c = dirac.invert_c
    perturbed = {"boson": (-2, 2), "fermion": (-H, H)}

    def perturbed_invert_c(family, window):
        delta = dict(invert_c(family, window))
        delta[perturbed[family.name]] += Fraction(1, 7)
        return delta

    monkeypatch.setattr(dirac, "invert_c", perturbed_invert_c)
    M, w = Fraction(2, 3), 2
    assert delta_contract_residuals(BosonConstraints(M), w) == [(-2, -2, Fraction(29, 21))]
    assert delta_contract_residuals(FermionConstraints(), w) == [(-H, -H, Fraction(9, 7))]

    dirac_bracket = dirac.dirac_bracket
    monkeypatch.setattr(dirac, "dirac_bracket",
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
def test_benchmark_levels_skip_nothing(monkeypatch, fresh_caches, family, level):
    # Whether a check is skipped depends only on its probe set, never on the
    # action, so a zero action keeps the benchmark's caps affordable here.
    # The oracle's forms read from the zero tables are cleared after the test.
    import virfock.verify as verify
    from virfock.verify import default_truncation
    zero = SimpleNamespace(den=1, row=lambda i: (), apply=lambda pairs: {}, state_id=lambda state: 0)
    monkeypatch.setattr(verify, "Commutator", lambda op_a, op_b, trunc: SimpleNamespace(
        **vars(zero), probes=verify.safe_ids(trunc, op_a, op_b)))
    monkeypatch.setattr(verify, "row_table", lambda op, trunc, window=None: zero)
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


def test_law_failures_show_the_bracket(monkeypatch):
    # a law is one identity of linear specs on the whole module: a failure's got is the
    # computed bracket, with no probe state
    b_law, bdag_law = FAMILIES["fermion-unconstrained"].laws
    (christoffel,) = FAMILIES["boson-reduced"].laws
    monkeypatch.setitem(FAMILIES, "fermion-unconstrained", FAMILIES["fermion-unconstrained"]._replace(laws=(
        b_law, bdag_law._replace(coefficient=lambda m, r, lam: bdag_law.coefficient(m, r, lam) + 1))))
    monkeypatch.setitem(FAMILIES, "boson-reduced", FAMILIES["boson-reduced"]._replace(laws=(
        christoffel._replace(anomaly=lambda m, M, lam: christoffel.anomaly(m, M, lam) + 1),)))
    fermion = {r.name: r for r in check_laws(small_params("fermion-unconstrained", 0, Fraction(1, 3)))}
    boson = {r.name: r for r in check_laws(small_params("boson-reduced", 1, 1))}
    assert [fermion["primary[b†,m=1,n=1/2]"].line(), boson["christoffel[m=1,n=-1]"].line()] == [
        "primary[b†,m=1,n=1/2] expected=11/6·b†[3/2] got=5/6·b†[3/2] fail",
        "christoffel[m=1,n=-1] expected=-1 got=-2 fail"]
    assert fermion["primary[b,m=1,n=1/2]"].status == boson["christoffel[m=1,n=1]"].status == "pass"


def test_virasoro_failure_text_is_pinned(monkeypatch):
    # with (n-m) L_{m+n} replaced by zero rows and c = 0, a failing report's
    # residual is [L_m, L_n] on its witness: several terms of both signs
    import virfock.verify as verify
    monkeypatch.setattr(verify, "row_table",
                        lambda op, trunc, window=None: SimpleNamespace(den=1, row=lambda i: ()))
    params = ScenarioParams("boson-unconstrained", Fraction(2, 3), Fraction(-5, 4),
                            Truncation(Fraction(4), 2), m_range=2)
    reports = {r.name: r for r in check_virasoro_relation(params, 0)}
    r = reports["virasoro[m=-1,n=2]"]
    assert r.status == "fail"
    assert r.got == "-5·a[1]|0⟩ - 15/2·a†[1]|0⟩ + 3·a[1]a†[0]|0⟩"
    assert r.probe == "|0⟩"
    # the mirror [L_2, L_-1] fails on the same witness with the residual negated
    r = reports["virasoro[m=2,n=-1]"]
    assert r.status == "fail"
    assert r.got == "5·a[1]|0⟩ + 15/2·a†[1]|0⟩ - 3·a[1]a†[0]|0⟩"
    assert r.probe == "|0⟩"
