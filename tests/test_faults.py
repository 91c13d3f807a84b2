"""Injected faults that the family checks must catch, at small caps.

Each fault is monkeypatched into the engine or into a family's stated laws,
and names the checks that must flip to `fail`.  A check that stays `pass`
under a fault that changes its identity compares nothing.  The engine's
caches are cleared around every fault, so a faulty table built here is
never seen by another test.
"""

import inspect
import json
import re
import textwrap
from fractions import Fraction

import pytest

import virfock.algebra as algebra
import virfock.cli as cli
import virfock.dirac as dirac
import virfock.operators as operators
import virfock.verify as verify
from virfock.algebra import FERMION, b, bdag
from virfock.fock import Truncation
from virfock.dirac import (
    BosonConstraints,
    ClosedFormMismatchError,
    FermionConstraints,
    SingularBlockError,
    invert_c,
    run_dirac_checks,
)
from virfock.verify import (
    ScenarioParams,
    check_virasoro_relation,
    claimed_central_charge,
    default_truncation,
    run_family_scenario,
)

H = Fraction(1, 2)


def small_params(family, M, lam):
    trunc = (Truncation(Fraction(7, 2)) if family.startswith("fermion")
             else Truncation(Fraction(4), 3 if family == "boson-unconstrained" else 0))
    return ScenarioParams(family, M, lam, trunc, 2)


def _failed(reports):
    return {r.name for r in reports if r.status == "fail"}


pytestmark = pytest.mark.usefixtures("fresh_caches")  # tests/conftest.py


def _replace_family(monkeypatch, family, **fields):
    monkeypatch.setitem(operators.FAMILIES, family, operators.FAMILIES[family]._replace(**fields))


def test_central_charge_off_by_a_twelfth(monkeypatch):
    # c enters only the oracle comparison and the m + n = 0 rows with m^3 != m
    real = verify.claimed_central_charge
    monkeypatch.setattr(verify, "claimed_central_charge",
                        lambda family, M, lam: real(family, M, lam) + Fraction(1, 12))
    reports, _, _ = run_family_scenario(small_params("fermion-reduced", 0, 0))
    assert _failed(reports) == {"central_charge", "virasoro[m=2,n=-2]", "virasoro[m=-2,n=2]"}


def test_one_primary_law_coefficient_off_by_one(monkeypatch):
    # [L_1, b†[1/2]] = (lam + 1/2) b†[3/2]; only that law reads the changed value
    b_law, bdag_law = operators.FAMILIES["fermion-unconstrained"].laws

    def off(m, r, lam):
        return bdag_law.coefficient(m, r, lam) + (1 if (m, r) == (1, H) else 0)

    _replace_family(monkeypatch, "fermion-unconstrained", laws=(b_law, bdag_law._replace(coefficient=off)))
    reports, _, _ = run_family_scenario(small_params("fermion-unconstrained", 0, Fraction(1, 3)))
    assert _failed(reports) == {"primary[b†,m=1,n=1/2]"}


def test_christoffel_anomaly_off(monkeypatch):
    # the anomaly enters only the n = -m rows, on both the operator and the Dirac route
    (law,) = operators.FAMILIES["boson-reduced"].laws
    _replace_family(monkeypatch, "boson-reduced",
                    laws=(law._replace(anomaly=lambda m, M, lam: law.anomaly(m, M, lam) + 1),))
    reports, _, _ = run_family_scenario(small_params("boson-reduced", 1, 1))
    assert _failed(reports) == {f"christoffel{route}[m={k},n={-k}]"
                                for route in ("", "_dirac") for k in (-2, -1, 1, 2)}


def _slots_at(monkeypatch, family, k, mutant):
    """The family's statement of L_k replaced by mutant(its slots), for both readers: build_L and the oracle."""
    real = operators.FAMILIES[family].slots
    _replace_family(monkeypatch, family,
                    slots=lambda m, M, lam: mutant(real(m, M, lam)) if m == k else real(m, M, lam))


def _kernel_shifted(alpha=0, beta=0):
    def mutant(slots):
        den, *rest, a, b = slots
        return (den, *rest, a + alpha * den, b + beta * den)
    return mutant


def test_one_kernel_alpha_off(monkeypatch):
    # L_1 gains delta = (sum_r :a†[1-r]a†[r]:); the oracle never reads L_1, and
    # [L_2, L_-1] = -3 L_1 must now miss -3 delta, [L_1, a†[1]] must change
    family = "boson-reduced"
    _slots_at(monkeypatch, family, 1, _kernel_shifted(alpha=1))
    reports, c_formula, c_oracle = run_family_scenario(small_params(family, 1, 1))
    assert c_formula == c_oracle
    assert {"virasoro[m=2,n=-1]", "virasoro[m=-1,n=2]", "christoffel[m=1,n=1]"} <= _failed(reports)


def _doubled(slots):
    return (slots[0], *[2 * v for v in slots[1:]])


def _doubled_at(monkeypatch, family, k):
    _slots_at(monkeypatch, family, k, _doubled)


def test_doubled_generator_reaches_the_primary_laws(monkeypatch):
    # the laws read L_m through the family's slots, so a fault injected there fails every
    # [L_1, b[r]] and [L_1, b†[r]] law as well as the Virasoro reports that compose L_1
    _doubled_at(monkeypatch, "fermion-unconstrained", 1)
    reports, _, _ = run_family_scenario(small_params("fermion-unconstrained", 0, Fraction(1, 3)))
    failed = _failed(reports)
    assert {r for r in failed if r.startswith("primary")} == {
        f"primary[{s},m=1,n={Fraction(t, 2)}]" for s in ("b", "b†") for t in (-3, -1, 1, 3)}
    assert len(failed) == 16


def _a_coefficient_doubled(slots):
    den, constant, a, adag, alpha, beta = slots  # the linear kinds (a, a†) of boson-unconstrained
    return den, constant, 2 * a, adag, alpha, beta


@pytest.mark.parametrize("mutant,only", [
    (_doubled, None),
    (_kernel_shifted(alpha=1), None),
    (_kernel_shifted(beta=1), None),
    # lam(m+1) M m a[m] brackets only a†[-m], to a scalar
    (_a_coefficient_doubled, {"primary[a†,m=1,n=-1]"}),
], ids=["doubled", "alpha+1", "beta+1", "a-coefficient-doubled"])
def test_boson_L1_mutants_reach_the_primary_laws(monkeypatch, mutant, only):
    # the laws are stated for the family's own L_m, linear part included
    _slots_at(monkeypatch, "boson-unconstrained", 1, mutant)
    reports, _, _ = run_family_scenario(small_params("boson-unconstrained", Fraction(2, 3), Fraction(-5, 4)))
    laws = {name for name in _failed(reports) if name.startswith("primary[")}
    assert laws and all(name.startswith(("primary[a,m=1,", "primary[a†,m=1,")) for name in laws)
    assert only is None or laws == only


@pytest.mark.parametrize("family", sorted(operators.FAMILIES))
@pytest.mark.parametrize("k", [-2, 1])
def test_doubled_generator_fails_mirror_reports_together(monkeypatch, family, k):
    # [L_n, L_m] = -[L_m, L_n] and [L_m, L_m] = 0 whatever L_k is, so a
    # fault fails virasoro[m=a,n=b] and virasoro[m=b,n=a] together, never m = n
    _doubled_at(monkeypatch, family, k)
    M, lam = Fraction(2, 3), Fraction(-5, 4)
    params = ScenarioParams(family, M, lam, default_truncation(family, 4, 2), 2)
    failed = {tuple(map(int, re.fullmatch(r"virasoro\[m=(-?\d+),n=(-?\d+)\]", name).groups()))
              for name in _failed(check_virasoro_relation(params, claimed_central_charge(family, M, lam)))}
    assert failed and {(n, m) for m, n in failed} == failed
    assert all(m != n for m, n in failed)


@pytest.mark.parametrize("family,lam", [("fermion-reduced", 0), ("fermion-unconstrained", Fraction(1, 3))])
def test_normal_ordering_sign_flipped(monkeypatch, family, lam):
    # every swapped odd pair of the kernel loses its -1: L_0 stops grading by
    # level, so [L_0, L_2] = 2 L_2 fails
    source = inspect.getsource(operators._expand)
    signed = "-n if x.parity and y.parity else n"
    assert source.count(signed) == 1
    namespace = dict(vars(operators))
    exec(source.replace(signed, "n"), namespace)
    monkeypatch.setattr(operators, "_expand", namespace["_expand"])
    params = small_params(family, 0, lam)
    failed = _failed(check_virasoro_relation(params, claimed_central_charge(family, 0, lam)))
    assert {"virasoro[m=0,n=2]", "virasoro[m=2,n=0]"} <= failed


def _drop_fermion_L0_constant(monkeypatch):
    _slots_at(monkeypatch, "fermion-unconstrained", 0, lambda slots: (slots[0], 0, *slots[2:]))


INCONSISTENT = "fermion-unconstrained: m=2 gives c=5/9 but m=3 gives c=5/8; truncation soundness is broken"


def test_fermion_L0_constant_dropped(monkeypatch):
    # without -(1 - 2 lam)^2/8 the vacuum value of L_0 is off, so the oracle
    # reads a different c at m = 2 and m = 3, reported as a failed central
    # charge, and only the central rows of the Virasoro relation, where L_0
    # meets the anomaly, miss the claimed c
    _drop_fermion_L0_constant(monkeypatch)
    reports, c_formula, c_oracle = run_family_scenario(small_params("fermion-unconstrained", 0, Fraction(1, 3)))
    assert _failed(reports) == {"central_charge"} | {f"virasoro[m={k},n={-k}]" for k in (-2, -1, 1, 2)}
    (central,) = (r for r in reports if r.name == "central_charge")
    assert (central.expected, central.got) == ("2/3", INCONSISTENT)
    assert (c_formula, c_oracle) == (Fraction(2, 3), Fraction(5, 9))


def _sweep_one_point(capsys, tmp_path, family, M, lam):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"{M} {lam}\n")
    code = cli.main(["--scenario", family, "--sweep", str(grid)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inconsistent_oracle_ends_a_sweep_with_an_error(monkeypatch, capsys, tmp_path):
    _drop_fermion_L0_constant(monkeypatch)
    assert _sweep_one_point(capsys, tmp_path, "fermion-unconstrained", 0, Fraction(1, 3)) == (
        1, "", f"error: {INCONSISTENT}\n")


@pytest.mark.parametrize("family", sorted(operators.FAMILIES))
@pytest.mark.parametrize("k", [2, -2, 3, -3])
def test_doubled_oracle_generator_moves_only_its_own_side(monkeypatch, capsys, tmp_path, family, k):
    # the oracle reads L_k only in <0|[L_m, L_-m]|0> with m = |k|: doubled, it moves
    # that side off the closed form, the other side still gives it, and the sweep
    # ends in an error; each generator of the two pairs reaches the verdict through
    # its own slot positions in the cached forms
    _doubled_at(monkeypatch, family, k)
    M, lam = Fraction(2), Fraction(1, 3)
    code, out, err = _sweep_one_point(capsys, tmp_path, family, M, lam)
    c2, c3 = map(Fraction, re.fullmatch(
        rf"error: {family}: m=2 gives c=(\S+) but m=3 gives c=(\S+); truncation soundness is broken\n",
        err).groups())
    off, on = (c2, c3) if abs(k) == 2 else (c3, c2)
    c = claimed_central_charge(family, M, lam)
    assert (code, out, on) == (1, "", c) and off != c


@pytest.mark.parametrize("family", sorted(operators.FAMILIES))
def test_doubled_L0_is_seen_only_where_its_vacuum_value_is_nonzero(monkeypatch, capsys, tmp_path, family):
    # the named exception of the test above: the oracle reads L_0 only as
    # <0|L_0|0>, which is 0 in every family but fermion-unconstrained, so there
    # alone a doubled L_0 moves both sides, by -8 and -3 times that value
    _doubled_at(monkeypatch, family, 0)
    M, lam = Fraction(2), Fraction(1, 3)
    code, out, err = _sweep_one_point(capsys, tmp_path, family, M, lam)
    c = claimed_central_charge(family, M, lam)
    if family == "fermion-unconstrained":
        assert (code, out) == (1, "") and "m=2 gives c=" in err
    else:
        assert (code, out, err) == (0, f"M={M} lambda={lam} c_formula={c} c_oracle={c} match\n", "")


@pytest.mark.parametrize("family,M,lam,doubling_fails", [
    ("boson-unconstrained", Fraction(2, 3), Fraction(-5, 4), True),
    ("boson-reduced", 1, 1, True),
    ("fermion-unconstrained", 0, Fraction(1, 3), True),
    ("fermion-reduced", 0, 0, False),
])
def test_default_kernel_width_one_level_too_narrow(monkeypatch, family, M, lam, doubling_fails):
    # the kernel half-width level_cap + |m| - 1 drops terms that act inside
    # the truncation: L_0 stops grading by level, and the explicitly wide
    # window of the doubling check no longer agrees with the default one
    real = operators.row_table

    def narrow(op, trunc, window=None):
        if window is None:
            window = trunc.level_cap + abs(op.shift) - 1
        return real(op, trunc, window)

    for module in (operators, verify):
        monkeypatch.setattr(module, "row_table", narrow)
    reports, c_formula, c_oracle = run_family_scenario(small_params(family, M, lam))
    assert c_formula == c_oracle
    want = {f"virasoro[m={m},n={n}]" for m in range(-2, 3) for n in range(-2, 3)
            if (m == 0) != (n == 0)}
    if doubling_fails:
        want.add("window_doubling[100 probes]")
    assert _failed(reports) == want


def test_skeleton_index_looked_up_at_the_wrong_sign(monkeypatch):
    # an annihilating first factor at -two is indexed under -two and found
    # from a creator at two; looked up under +two it is never a candidate, so
    # no kernel term contracts a creator: L_0 no longer counts a state's level
    # and [L_m, L_-m]|0> loses the contractions the oracle reads, in every family
    source = textwrap.dedent(inspect.getsource(operators.RowTable._build))
    lookup = "by_two.get(-two, ())"
    assert source.count(lookup) == 1
    namespace = dict(vars(operators))
    exec(source.replace(lookup, "by_two.get(two, ())"), namespace)
    monkeypatch.setattr(operators.RowTable, "_build", namespace["_build"])
    for family in operators.FAMILIES:  # at the caps of tests/golden/all.txt
        reports, _, _ = run_family_scenario(ScenarioParams(family, 1, H, default_truncation(family, 4, 2), 2))
        failed = _failed(reports)
        assert "central_charge" in failed
        assert any(name.startswith("virasoro[") for name in failed)


# --- Dirac reduction, at M = 2/3 on half-width 3 -----------------------------

DIRAC_M, DIRAC_WINDOW = Fraction(2, 3), 3


def _perturb_delta(monkeypatch, family_type, change):
    """Every Delta entry of the family's closed form passes through change(p, d)."""
    real = family_type._delta_row
    monkeypatch.setattr(family_type, "_delta_row",
                        lambda self, p: tuple((r, change(p, d)) for r, d in real(self, p)))


def test_boson_delta_entry_doubled(monkeypatch):
    # the elimination no longer matches the closed form, which the contract
    # check reports at its first entry, and the Dirac brackets that read
    # Delta^{2,-2} stop vanishing against the constraints
    _perturb_delta(monkeypatch, dirac.BosonConstraints, lambda p, d: 2 * d if p == 2 else d)
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"delta_contract[boson,N=3]", "dirac_bracket_boson[N=3]",
                                "dirac_mode_compatibility[boson,N=3]"}
    (contract,) = (r for r in reports if r.name == "delta_contract[boson,N=3]")
    assert contract.got == "windowed inversion disagrees with the closed form at (2,-2): -3/8 vs -3/4"
    with pytest.raises(ClosedFormMismatchError, match="closed form"):
        invert_c(BosonConstraints(DIRAC_M), DIRAC_WINDOW)


def test_boson_zero_gauge_brackets_dropped(monkeypatch):
    # C loses its a[0] row and column: chi[0] and a[0] turn first class, so
    # the elimination meets a singular block, reported as a failed contract
    real = dirac.BosonConstraints._c_row
    monkeypatch.setattr(dirac.BosonConstraints, "_c_row", lambda self, p: tuple(
        (r, c) for r, c in real(self, p) if dirac.ZERO_GAUGE_LABEL not in (p, r)))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"delta_contract[boson,N=3]", "bracket_matrix_closed_form[N=3]",
                                "classify[boson,gauged]"}
    (contract,) = (r for r in reports if r.name == "delta_contract[boson,N=3]")
    assert contract.got == "first-class constraints [0, 'a0'] present; the bracket matrix is not invertible"
    with pytest.raises(SingularBlockError):
        invert_c(BosonConstraints(DIRAC_M), DIRAC_WINDOW)


def test_boson_closed_form_entry_off_the_pairing_support(monkeypatch):
    # chi_1 and chi_2 share no pair of modes at opposite doubled indices, so
    # C_{1,2} is off the pairing support: the rows computed from the
    # expressions hold a 0 there, and the row comparison reports the stated 1.
    # The closed rows are what the elimination reads, so the elimination no
    # longer reproduces Delta's closed form either.
    real = dirac.BosonConstraints._c_row
    monkeypatch.setattr(dirac.BosonConstraints, "_c_row", lambda self, p: (
        real(self, p) + ((2, dirac.ONE),) if p == 1 else real(self, p)))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"bracket_matrix_closed_form[N=3]", "delta_contract[boson,N=3]"}
    (contract,) = (r for r in reports if r.name == "delta_contract[boson,N=3]")
    assert contract.got == "windowed inversion disagrees with the closed form at (-1,-2): 9/32 vs 0"


def test_boson_support_drops_the_zero_gauge_label(monkeypatch):
    # the zero modes lose their correction through chi = a[0]
    real = dirac.BosonConstraints.support_labels
    monkeypatch.setattr(dirac.BosonConstraints, "support_labels",
                        lambda self, expr: real(self, expr) - {dirac.ZERO_GAUGE_LABEL})
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {
        "dirac_bracket_boson[N=3]", "dirac_mode_compatibility[boson,N=3]"}


def test_fermion_delta_sign_flipped(monkeypatch):
    _perturb_delta(monkeypatch, dirac.FermionConstraints, lambda p, d: -d)
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"delta_contract[fermion,N=3]", "dirac_bracket_fermion[N=3]",
                                "dirac_mode_compatibility[fermion,N=3]"}
    (contract,) = (r for r in reports if r.name == "delta_contract[fermion,N=3]")
    assert contract.got == "windowed inversion disagrees with the closed form at (-5/2,5/2): 1/2 vs -1/2"
    with pytest.raises(ClosedFormMismatchError, match="closed form"):
        invert_c(FermionConstraints(), DIRAC_WINDOW)


def _with_brackets(real, brackets):
    """The algebra real, same name, M, kinds and flags, with another bracket table."""
    return algebra.Algebra(real.name, real.M, real.kinds, real.has_zero_modes, brackets, real.index_weighted)


def test_reduced_boson_bracket_doubled(monkeypatch):
    # the boson Dirac table expects the reduced algebra's [a†[m], a†[-m]], so
    # a doubled bracket there misses every pair with m != 0
    real = dirac.reduced_boson
    monkeypatch.setattr(dirac, "reduced_boson", lambda M: _with_brackets(
        real(M), {kinds: 2 * v for kinds, v in real(M).brackets.items()}))
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {"dirac_bracket_boson[N=3]"}


def test_reduced_fermion_bracket_a_quarter(monkeypatch):
    # the fermion Dirac table expects the reduced algebra's [b[r], b[-r]}
    red_b = algebra.FieldKind.RED_B
    monkeypatch.setattr(dirac, "REDUCED_FERMION", _with_brackets(
        algebra.REDUCED_FERMION, {(red_b, red_b): Fraction(1, 4)}))
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {"dirac_bracket_fermion[N=3]"}


def _square_the_reduced_boson_bracket(monkeypatch, tmp_path):
    # [a†[m], a†[-m]] = -(M^2/2) m equals the true bracket at M = 1 only: the
    # oracle reads its forms at M = 1, so it must take each point's scale off
    # that point's bracket table, not off M, to miss the claimed c elsewhere
    real = operators.FAMILIES["boson-reduced"].algebra
    red = algebra.FieldKind.RED_ADAG
    _replace_family(monkeypatch, "boson-reduced",
                    algebra=lambda M: _with_brackets(real(M), {(red, red): -M * M / 2}))
    grid = tmp_path / "grid.txt"
    grid.write_text("1 1/3\n2 1/3\n-1/3 1/3\n")
    return ["--scenario", "boson-reduced", "--sweep", str(grid)]


def test_reduced_boson_bracket_squared_in_m(monkeypatch, capsys, tmp_path):
    assert cli.main(_square_the_reduced_boson_bracket(monkeypatch, tmp_path)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "M=1 lambda=1/3 c_formula=-5/3 c_oracle=-5/3 match",
        "M=2 lambda=1/3 c_formula=-13/3 c_oracle=-20/3 MISMATCH",
        "M=-1/3 lambda=1/3 c_formula=17/9 c_oracle=-5/27 MISMATCH"]


def test_mismatch_rows_print_as_the_json_encoder_would(monkeypatch, capsys, tmp_path):
    # no golden holds a failing sweep row, so this is what pins a "match": false row
    argv = _square_the_reduced_boson_bracket(monkeypatch, tmp_path) + ["--format", "json"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert [(row["c_oracle"], row["match"]) for row in doc["sweep"]] == [
        ("-5/3", True), ("-20/3", False), ("-5/27", False)]
    assert doc["summary"] == {"total": 3, "passed": 1, "failed": 2, "skipped": 0}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_fermion_support_shifted_by_one(monkeypatch):
    # every correction runs through chi[r + 1] instead of chi[r]: the fermion
    # bracket loses its correction and the modes stop commuting with the
    # constraints; the boson family is untouched
    real = dirac.FermionConstraints.support_labels
    monkeypatch.setattr(dirac.FermionConstraints, "support_labels",
                        lambda self, expr: {p + 1 for p in real(self, expr)})
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"dirac_bracket_fermion[N=3]", "dirac_mode_compatibility[fermion,N=3]"}
    (compat,) = (r for r in reports if r.name == "dirac_mode_compatibility[fermion,N=3]")
    assert compat.got == ("[b[-5/2],chi[5/2]]*=-1; [b[-3/2],chi[3/2]]*=-1; "
                          "[b[-1/2],chi[1/2]]*=-1; [b[1/2],chi[-1/2]]*=-1")


def test_fermion_chi_transform_coefficient_off_by_one(monkeypatch):
    # the stated law [L_m, chi_r] = (m/2 + r) chi[m+r] gains 1, so every
    # fermion transform at lambda = 1/2 misses it; lambda = 0 stays incompatible
    real = dirac.FermionConstraints.chi_transform
    monkeypatch.setattr(dirac.FermionConstraints, "chi_transform",
                        lambda self, m, label: (real(self, m, label)[0] + 1, real(self, m, label)[1]))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    half5 = [Fraction(t, 2) for t in range(-9, 10, 2)]
    assert _failed(reports) == {f"chi_transform[m={m},n={n}]" for m in range(-5, 6) for n in half5}
    (law,) = (r for r in reports if r.name == "chi_transform[m=2,n=1/2]")
    assert (law.expected, law.got) == ("5/2·chi[5/2]", "3/2·b[5/2] - 3/2·b†[5/2]")


def test_fermion_generator_ignores_lambda(monkeypatch):
    # every fermion generator is built at lambda = 1/2, where it keeps the
    # constraint ideal, so the lambda = 0 probe finds nothing to report
    real = operators.FAMILIES["fermion-unconstrained"].slots
    _replace_family(monkeypatch, "fermion-unconstrained", slots=lambda m, M, lam: real(m, M, H))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"incompatibility_detected[fermion,lambda=0]"}
    (probe,) = (r for r in reports if r.name == "incompatibility_detected[fermion,lambda=0]")
    assert probe.got == "not detected"


def test_even_copy_built_on_the_fermion_pair(monkeypatch):
    # b - b† with fermionic statistics is second class, C_rs = -2 delta(r+s),
    # so the copy no longer degenerates; no other check reads the copy
    monkeypatch.setattr(dirac.EvenCopyConstraints, "algebra", FERMION)
    monkeypatch.setattr(dirac.EvenCopyConstraints, "chi_modes", (b, bdag))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"classify[even-copy]"}


def test_commutator_with_linear_without_its_graded_sign(monkeypatch):
    # [:XY:, z} = [Y,z} X + [X,z} Y for every z: on the odd fermion pair the
    # second term has the wrong sign, so [L_m, chi_r] = (m/2 + r) chi[m+r]
    # fails wherever m/2 + r != 0, and so does every [L_m, b[r]} law, where b
    # contracts the kernel's odd b†; [L_m, b†[r]} contracts the first term, and
    # the boson families are even and untouched
    source = inspect.getsource(operators.commutator_with_linear)
    graded = "sign = -1 if (z.parity and y.parity) else 1"
    assert source.count(graded) == 1
    namespace = dict(vars(operators))
    exec(source.replace(graded, "sign = 1"), namespace)
    for module in (operators, dirac, verify):
        monkeypatch.setattr(module, "commutator_with_linear", namespace["commutator_with_linear"])
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    half5 = [Fraction(t, 2) for t in range(-9, 10, 2)]
    assert _failed(reports) == {f"chi_transform[m={m},n={n}]" for m in range(-5, 6) for n in half5
                                if m + 2 * n != 0}
    failed = set()
    for family in operators.FAMILIES:
        failed |= _failed(run_family_scenario(small_params(family, 1 if family.startswith("boson") else 0,
                                                           Fraction(1, 3)))[0])
    assert failed == {f"primary[b,m={m},n={Fraction(t, 2)}]" for m in range(-2, 3) for t in (-3, -1, 1, 3)}
