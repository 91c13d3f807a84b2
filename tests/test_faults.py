"""Injected faults that the family checks must catch, at small caps.

Each fault is monkeypatched into the engine or into a family's stated laws,
and names the checks that must flip to `fail`.  A check that stays `pass`
under a fault that changes its identity compares nothing.  The engine's
caches are cleared around every fault, so a faulty table built here is
never seen by another test.
"""

import inspect
from dataclasses import replace
from fractions import Fraction

import pytest

import virfock.algebra as algebra
import virfock.cli as cli
import virfock.dirac as dirac
import virfock.operators as operators
import virfock.verify as verify
from virfock.algebra import FERMION, b, bdag
from virfock.fock import Truncation
from virfock.operators import OperatorSpec
from virfock.dirac import (
    BosonConstraints,
    ClosedFormMismatchError,
    FermionConstraints,
    SingularBlockError,
    Window,
    invert_c,
)
from virfock.verify import (
    ScenarioParams,
    check_virasoro_relation,
    claimed_central_charge,
    run_dirac_checks,
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
    laws = operators.FAMILIES["fermion-unconstrained"].primary_laws
    (b_kind, b_coeff), (bdag_kind, bdag_coeff) = laws.modes

    def off(m, r, lam):
        return bdag_coeff(m, r, lam) + (1 if (m, r) == (1, H) else 0)

    _replace_family(monkeypatch, "fermion-unconstrained",
                    primary_laws=laws._replace(modes=((b_kind, b_coeff), (bdag_kind, off))))
    reports, _, _ = run_family_scenario(small_params("fermion-unconstrained", 0, Fraction(1, 3)))
    assert _failed(reports) == {"primary[b†,m=1,n=1/2]"}


def test_christoffel_anomaly_off(monkeypatch):
    # the anomaly enters only the n = -m rows, on both the Fock and the Dirac route
    real = operators.FAMILIES["boson-reduced"].christoffel_anomaly
    _replace_family(monkeypatch, "boson-reduced",
                    christoffel_anomaly=lambda m, M, lam: real(m, M, lam) + 1)
    reports, _, _ = run_family_scenario(small_params("boson-reduced", 1, 1))
    assert _failed(reports) == {f"christoffel{route}[m={k},n={-k}]"
                                for route in ("", "_dirac") for k in (-2, -1, 1, 2)}


def test_one_kernel_alpha_off(monkeypatch):
    # L_1 gains delta = (sum_r :a†[1-r]a†[r]:); the oracle never reads L_1, and
    # [L_2, L_-1] = -3 L_1 must now miss -3 delta, [L_1, a†[1]] must change
    family = "boson-reduced"
    real = operators.FAMILIES[family].build

    def build(m, M, lam):
        op = real(m, M, lam)
        if m != 1:
            return op
        (term,) = op.bilinears
        return OperatorSpec(op.algebra, op.shift, (term._replace(alpha=term.alpha + 1),),
                            op.linear, op.constant, op.parity)

    _replace_family(monkeypatch, family, build=build)
    reports, c_formula, c_oracle = run_family_scenario(small_params(family, 1, 1))
    assert c_formula == c_oracle
    assert {"virasoro[m=2,n=-1]", "virasoro[m=-1,n=2]", "christoffel[m=1,n=1]"} <= _failed(reports)


@pytest.mark.parametrize("family,lam", [("fermion-reduced", 0), ("fermion-unconstrained", Fraction(1, 3))])
def test_normal_ordering_sign_flipped(monkeypatch, family, lam):
    # every swapped odd pair of the kernel loses its -1: L_0 stops grading by
    # level, so [L_0, L_2] = 2 L_2 fails
    real = operators._skeleton
    monkeypatch.setattr(operators, "_skeleton",
                        lambda *key: operators.Skeleton(tuple(
                            (two_r, 1, first, second) for two_r, _, first, second in real(*key).terms)))
    params = small_params(family, 0, lam)
    failed = _failed(check_virasoro_relation(params, claimed_central_charge(family, 0, lam)))
    assert {"virasoro[m=0,n=2]", "virasoro[m=2,n=0]"} <= failed


def _drop_fermion_L0_constant(monkeypatch):
    family = "fermion-unconstrained"
    real = operators.FAMILIES[family].build

    def build(m, M, lam):
        op = real(m, M, lam)
        return OperatorSpec(op.algebra, op.shift, op.bilinears, op.linear, Fraction(0), op.parity)

    _replace_family(monkeypatch, family, build=build)


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


def test_inconsistent_oracle_ends_a_sweep_with_an_error(monkeypatch, capsys, tmp_path):
    _drop_fermion_L0_constant(monkeypatch)
    grid = tmp_path / "grid.txt"
    grid.write_text("0 1/3\n")
    assert cli.main(["--scenario", "fermion-unconstrained", "--sweep", str(grid)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {INCONSISTENT}\n")


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


# --- Dirac reduction, at M = 2/3 on Window(3) --------------------------------

DIRAC_M, DIRAC_WINDOW = Fraction(2, 3), Window(3)


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
    real = dirac.BosonConstraints.c_entry
    monkeypatch.setattr(dirac.BosonConstraints, "c_entry", lambda self, p, r: (
        dirac.ZERO if dirac.ZERO_GAUGE_LABEL in (p, r) else real(self, p, r)))
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    assert _failed(reports) == {"delta_contract[boson,N=3]", "bracket_matrix_closed_form[N=3]",
                                "classify[boson,gauged]"}
    (contract,) = (r for r in reports if r.name == "delta_contract[boson,N=3]")
    assert contract.got == "first-class constraints [0, 'a0'] present; the bracket matrix is not invertible"
    with pytest.raises(SingularBlockError):
        invert_c(BosonConstraints(DIRAC_M), DIRAC_WINDOW)


def test_boson_closed_form_entry_off_the_pairing_support(monkeypatch):
    # chi_1 and chi_2 share no pair of modes at opposite doubled indices, so
    # C_{1,2} is off the pairing support that C's rows are evaluated on: the
    # elimination never reads the stated 1, and only the comparison with the
    # expressions at every window pair reports it.  Together with the contract
    # this still proves Delta·C = 1 and C = 0 off the support.
    real = dirac.BosonConstraints.c_entry
    monkeypatch.setattr(dirac.BosonConstraints, "c_entry", lambda self, p, r: (
        dirac.ONE if (p, r) == (1, 2) else real(self, p, r)))
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {"bracket_matrix_closed_form[N=3]"}


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


def test_reduced_boson_bracket_doubled(monkeypatch):
    # the boson Dirac table expects the reduced algebra's [a†[m], a†[-m]], so
    # a doubled bracket there misses every pair with m != 0
    real = verify.reduced_boson
    monkeypatch.setattr(verify, "reduced_boson", lambda M: replace(
        real(M), brackets={kinds: 2 * v for kinds, v in real(M).brackets.items()}))
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {"dirac_bracket_boson[N=3]"}


def test_reduced_fermion_bracket_a_quarter(monkeypatch):
    # the fermion Dirac table expects the reduced algebra's [b[r], b[-r]}
    red_b = algebra.FieldKind.RED_B
    monkeypatch.setattr(verify, "REDUCED_FERMION", replace(
        algebra.REDUCED_FERMION, brackets={(red_b, red_b): Fraction(1, 4)}))
    assert _failed(run_dirac_checks(DIRAC_M, DIRAC_WINDOW)) == {"dirac_bracket_fermion[N=3]"}


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
    real = operators.FAMILIES["fermion-unconstrained"].build
    _replace_family(monkeypatch, "fermion-unconstrained", build=lambda m, M, lam: real(m, M, H))
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
    # fails wherever m/2 + r != 0; the boson family is even and untouched
    source = inspect.getsource(operators.commutator_with_linear)
    graded = "sign = -1 if (z.parity and y.parity) else 1"
    assert source.count(graded) == 1
    namespace = dict(vars(operators))
    exec(source.replace(graded, "sign = 1"), namespace)
    for module in (operators, dirac):
        monkeypatch.setattr(module, "commutator_with_linear", namespace["commutator_with_linear"])
    reports = run_dirac_checks(DIRAC_M, DIRAC_WINDOW)
    half5 = [Fraction(t, 2) for t in range(-9, 10, 2)]
    assert _failed(reports) == {f"chi_transform[m={m},n={n}]" for m in range(-5, 6) for n in half5
                                if m + 2 * n != 0}
