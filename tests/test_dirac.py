"""Constraint matrices, classification, windowed inversion, Dirac brackets."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from virfock.algebra import (
    AlgebraMismatchError,
    BOSON,
    FERMION,
    REDUCED_FERMION,
    Mode,
    a,
    adag,
    b,
    bdag,
    reduced_boson,
)
from virfock.operators import (
    build_L,
    commutator_with_linear,
    linear_bracket,
    linear_operator,
    mode_operator,
)
from virfock.dirac import (
    BosonConstraints,
    EvenCopyConstraints,
    FermionConstraints,
    NotSecondClassError,
    SingularBlockError,
    ZERO_GAUGE_LABEL,
    _invert_exact,
    classify,
    delta_contract_residuals,
    dirac_bracket,
    dirac_op_bracket,
    dirac_transform_adagger,
    invert_c,
    mode_compatibility_reports,
    solve_boson_constraints,
    verify_compatibility,
)
from virfock import dirac, verify
from reference import build_K, canonical_bracket

H = Fraction(1, 2)
HALF_LABELS = lambda n: [Fraction(t, 2) for t in range(-2 * n + 1, 2 * n, 2)]


def _c_entries(family, window):
    """C over the window's labels as {(P, R): C_PR}, read off its nonzero rows."""
    labels = tuple(family.labels(window))
    return {(p, labels[j]): v for p, row in zip(labels, dirac._c_rows(family, labels))
            for j, v in row.items()}


def test_closed_form_bracket_matrix():
    c = _c_entries(BosonConstraints(Fraction(3, 2)), 4)
    assert c[(4, -4)] == 2 * Fraction(3, 2) * 4
    assert (4, 4) not in c
    assert c[(0, ZERO_GAUGE_LABEL)] == 1
    assert c[(ZERO_GAUGE_LABEL, 0)] == -1
    assert (0, 0) not in c
    assert len(c) == 2 * 4 + 2  # each label pairs with one partner
    c = _c_entries(FermionConstraints(), 4)
    assert c[(H, -H)] == -2
    assert (H, Fraction(3, 2)) not in c
    assert len(c) == 2 * 4


@pytest.mark.parametrize("family", [BosonConstraints(2), FermionConstraints(),
                                    EvenCopyConstraints()])
def test_bracket_matrix_matches_expressions(family):
    labels = tuple(family.labels(5))
    rows = dirac._c_rows(family, labels)
    assert rows == dirac.support_rows(family, labels)
    for i, row in enumerate(rows):
        for j, v in row.items():
            sign = -1 if family.parity else 1
            assert rows[j].get(i) == -sign * v


def test_closed_form_delta_entries():
    bos = BosonConstraints(1)
    assert dict(bos.delta_row(3))[-3] == Fraction(-1, 6)
    assert dict(bos.delta_row(ZERO_GAUGE_LABEL))[0] == 1
    assert dict(bos.delta_row(0))[ZERO_GAUGE_LABEL] == -1
    fer = FermionConstraints()
    for r in HALF_LABELS(8):
        assert dict(fer.delta_row(r))[-r] == H


@pytest.mark.parametrize("n", range(1, 9))
def test_delta_contract_on_all_windows(n):
    # (-1)^p(R) Delta^PR C_RS = delta^P_S entry-exactly, N = 1..8
    assert delta_contract_residuals(BosonConstraints(Fraction(5, 3)), n) == []
    assert delta_contract_residuals(FermionConstraints(), n) == []


@pytest.mark.parametrize("N", [0, -2])
@pytest.mark.parametrize("check", [
    lambda N: mode_compatibility_reports(FermionConstraints(), N),
    lambda N: mode_compatibility_reports(BosonConstraints(1), N),
    lambda N: delta_contract_residuals(FermionConstraints(), N),
    lambda N: classify(EvenCopyConstraints(), N),
    lambda N: FermionConstraints().labels(N),
], ids=["mode-compatibility-fermion", "mode-compatibility-boson", "delta-contract-fermion",
        "classify-even-copy", "fermion-labels"])
def test_an_empty_constraint_window_is_refused_where_the_labels_are_made(check, N):
    # at N < 1 the half-odd families have no label, so each of these passed
    # or came back empty without probing anything
    with pytest.raises(ValueError, match="N >= 1"):
        check(N)


def test_windowed_inversion_agrees_with_closed_form():
    # invert_c raises internally on any closed-form mismatch; also spot check
    bos = BosonConstraints(2)
    delta = invert_c(bos, 4)
    assert delta[(3, -3)] == Fraction(-1, 12)
    assert delta[(ZERO_GAUGE_LABEL, 0)] == 1
    fer = FermionConstraints()
    delta = invert_c(fer, 4)
    assert delta[(H, -H)] == H


def test_classification_boson_without_gauge():
    split = classify(BosonConstraints(1, with_zero_gauge=False), 4)
    assert split.first_class == [0]
    assert sorted(split.second_class) == [m for m in range(-4, 5) if m != 0]


def test_classification_boson_with_gauge():
    split = classify(BosonConstraints(1), 4)
    assert split.first_class == []
    assert len(split.second_class) == 10


def test_classification_even_copy_degenerates():
    # bosonic statistics on the fermionic constraint shape: C identically 0
    split = classify(EvenCopyConstraints(), 4)
    assert split.second_class == []
    assert len(split.first_class) == 8


def test_invert_requires_second_class():
    with pytest.raises(SingularBlockError):
        invert_c(BosonConstraints(1, with_zero_gauge=False), 3)


def test_dirac_bracket_reduced_boson_table():
    fam = BosonConstraints(2)
    got = dirac_bracket(mode_operator(BOSON, adag(3)), mode_operator(BOSON, adag(-3)), fam)
    assert got == -3  # -(M/2) m at M=2, m=3
    for m in range(-6, 7):
        for n in range(-6, 7):
            want = -(Fraction(2) / 2) * m if m + n == 0 else 0
            got = dirac_bracket(mode_operator(BOSON, adag(m)),
                                mode_operator(BOSON, adag(n)), fam)
            assert got == want


def test_dirac_bracket_zero_modes_vanish():
    fam = BosonConstraints(Fraction(7, 3))
    pairs = [(adag(0), adag(0)), (adag(0), a(0)), (a(0), a(0))]
    for x, y in pairs:
        assert dirac_bracket(mode_operator(BOSON, x), mode_operator(BOSON, y), fam) == 0


def test_dirac_bracket_reduced_fermion_table():
    fam = FermionConstraints()
    got = dirac_bracket(mode_operator(FERMION, b(H)), mode_operator(FERMION, b(-H)), fam)
    assert got == H
    for r in HALF_LABELS(4):
        for s in HALF_LABELS(4):
            want = H if r + s == 0 else 0
            assert dirac_bracket(mode_operator(FERMION, b(r)),
                                 mode_operator(FERMION, b(s)), fam) == want



def test_equal_families_share_one_cache_entry():
    first, second = BosonConstraints("4/6"), BosonConstraints(Fraction(2, 3))
    assert first == second and hash(first) == hash(second)
    A, B = mode_operator(BOSON, adag(2)), mode_operator(BOSON, adag(-2))
    assert dirac_bracket(A, B, first) == Fraction(-2, 3)
    misses = dirac._projected.cache_info().misses
    assert dirac_bracket(A, B, second) == Fraction(-2, 3)
    assert dirac._projected.cache_info().misses == misses


def test_dirac_bracket_requires_second_class():
    fam = BosonConstraints(1, with_zero_gauge=False)
    with pytest.raises(NotSecondClassError):
        dirac_bracket(mode_operator(BOSON, adag(1)), mode_operator(BOSON, adag(-1)), fam)


def test_dirac_bracket_argument_validation():
    fam = BosonConstraints(1)
    with pytest.raises(AlgebraMismatchError):
        dirac_bracket(mode_operator(FERMION, b(H)), mode_operator(FERMION, b(-H)), fam)
    with pytest.raises(ValueError):
        dirac_bracket(build_K(1), mode_operator(BOSON, adag(-1)), fam)
    with pytest.raises(ValueError):
        BosonConstraints(0)


@pytest.mark.parametrize("M", [1, -3, 2, "4/6"])
def test_boson_family_holds_M_exactly(M):
    # an int M must not turn Delta^{p,-p} = -1/(2 M p) into a float; the
    # uncached rows are compared, since equal families share one cache entry
    fam, exact = BosonConstraints(M), BosonConstraints(Fraction(M))
    assert type(fam.M) is Fraction and fam == exact
    for p in fam.labels(4):
        row = fam._delta_row(p)
        assert row == exact._delta_row(p) and all(type(d) is Fraction for _, d in row)
    assert BosonConstraints(M)._delta_row(3) == ((-3, -1 / (6 * Fraction(M))),)


@pytest.mark.parametrize("M", [0, Fraction(0), "0/5"])
@pytest.mark.parametrize("with_zero_gauge", [True, False])
def test_boson_family_rejects_zero_mass(M, with_zero_gauge):
    # C scales with M: at M = 0 every label would be first class
    with pytest.raises(ValueError, match="M != 0"):
        BosonConstraints(M, with_zero_gauge)


@pytest.mark.parametrize("op,B,family", [
    (build_K(1), mode_operator(BOSON, adag(-1)), FermionConstraints()),
    (build_K(1), mode_operator(BOSON, adag(0)), FermionConstraints()),
    (build_L("fermion-unconstrained", 1, 0, H), mode_operator(FERMION, b(-H)), BosonConstraints(1)),
])
def test_dirac_op_bracket_rejects_foreign_operands(op, B, family):
    # refused before a constraint is built at a label of the wrong algebra
    with pytest.raises(AlgebraMismatchError):
        dirac_op_bracket(op, B, family)


def _random_linear(rng, algebra, ctors, max_two):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        ctor = rng.choice(ctors)
        two = rng.choice([t for t in range(-max_two, max_two + 1)
                          if (t & 1) == (1 if ctor in (b, bdag) else 0)])
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            terms[ctor(Fraction(two, 2))] = terms.get(ctor(Fraction(two, 2)), 0) + coeff
    shift = None
    levels = {m.index for m in terms}
    if len(levels) > 1:
        return None
    return linear_operator(algebra, terms) if terms else None


def test_dirac_bracket_graded_antisymmetry_sample():
    rng = random.Random(3)
    fam_b = BosonConstraints(Fraction(4, 3))
    fam_f = FermionConstraints()
    done = 0
    while done < 100:
        if rng.random() < 0.5:
            x = _random_linear(rng, BOSON, [a, adag], 8)
            y = _random_linear(rng, BOSON, [a, adag], 8)
            fam = fam_b
        else:
            x = _random_linear(rng, FERMION, [b, bdag], 7)
            y = _random_linear(rng, FERMION, [b, bdag], 7)
            fam = fam_f
        if x is None or y is None:
            continue
        sign = -1 if (x.parity and y.parity) else 1
        assert dirac_bracket(x, y, fam) == -sign * dirac_bracket(y, x, fam)
        done += 1


def test_compatibility_boson():
    M = Fraction(1)
    fam = BosonConstraints(M)
    lm = build_L("boson-unconstrained", 2, M, Fraction(1, 2))
    reports = verify_compatibility(lm, fam, range(-5, 6))
    assert all(r.status == "pass" for r in reports)
    # [L_2, chi_3] = 3 chi_5 as an exact expression
    assert commutator_with_linear(lm, fam.expr(3)) == 3 * fam.expr(5)


def test_compatibility_fermion_half_lambda():
    fam = FermionConstraints()
    lm = build_L("fermion-unconstrained", 2, 0, H)
    reports = verify_compatibility(lm, fam, HALF_LABELS(5))
    assert all(r.status == "pass" for r in reports)
    got = dict((r.name, r) for r in reports)
    assert got["chi_transform[m=2,n=1/2]"].expected == "3/2·chi[5/2]"


def test_compatibility_fermion_lambda_zero_fails():
    fam = FermionConstraints()
    lm = build_L("fermion-unconstrained", 2, 0, 0)
    reports = verify_compatibility(lm, fam, HALF_LABELS(3))
    assert any(r.status == "fail" for r in reports)


def test_mode_compatibility_window():
    fam = BosonConstraints(Fraction(3))
    reports = verify_compatibility(build_L("boson-unconstrained", 1, 3, 1), fam, range(-3, 4))
    reports += mode_compatibility_reports(fam, 3)
    assert all(r.status == "pass" for r in reports)
    fam = FermionConstraints()
    reports = verify_compatibility(build_L("fermion-unconstrained", 1, 0, H), fam, HALF_LABELS(3))
    reports += mode_compatibility_reports(fam, 3)
    assert all(r.status == "pass" for r in reports)


def test_dirac_transform_adagger_examples():
    # off-diagonal: [L_1, a†[2]]* = 2 a†[3] for any M, lam
    got = dirac_transform_adagger(1, 2, Fraction(5, 2), Fraction(7))
    assert dict(got.linear) == {adag(3): 2} and got.constant == 0
    # diagonal: m=2, n=-2, M=1, lam=1/2: -2 a†[0] is skipped, scalar -3 remains
    got = dirac_transform_adagger(2, -2, 1, H)
    assert got.linear == () and got.constant == -3
    # m=0: no anomaly, 5 a†[5]
    got = dirac_transform_adagger(0, 5, 1, 1)
    assert dict(got.linear) == {adag(5): 5} and got.constant == 0


def test_dirac_transform_matches_christoffel_law():
    for M, lam in [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 3))]:
        for m in range(-3, 4):
            for n in [k for k in range(-3, 4) if k != 0]:
                got = dirac_transform_adagger(m, n, M, lam)
                anomaly = -M * lam * m * (m + 1) if m + n == 0 else Fraction(0)
                want = linear_operator(BOSON, {adag(m + n): n} if m + n != 0 else {},
                                       constant=anomaly, shift=Fraction(m + n))
                assert got == want, (M, lam, m, n)


def test_solve_constraints_substitution():
    M = Fraction(2)
    expr = linear_operator(BOSON, {a(3): 1, adag(3): 1}, shift=3)
    solved = solve_boson_constraints(expr, M)
    assert dict(solved.linear) == {adag(3): 1 + Fraction(1, 6)}
    dropped = linear_operator(BOSON, {a(0): 4, adag(0): 5}, constant=9, shift=0)
    solved = solve_boson_constraints(dropped, M)
    assert solved.linear == () and solved.constant == 9
    with pytest.raises(ValueError):
        solve_boson_constraints(expr, 0)


def test_dirac_transform_requires_nonzero_M():
    with pytest.raises(ValueError):
        dirac_transform_adagger(1, 1, 0, 1)


# --- Dirac brackets against an unfiltered sum -------------------------------

def _canonical_sum(x, y):
    """[x, y} over every mode pair through canonical_bracket."""
    return sum((cx * cy * canonical_bracket(mx, my, x.algebra)
                for mx, cx in x.linear for my, cy in y.linear), Fraction(0))


def _brute_dirac_bracket(A, B, family, window):
    """[A, B} - sum over every window label P, R of
    [A, chi_P} (-1)^p(R) Delta^PR [chi_R, B}, Delta by elimination."""
    delta = invert_c(family, window)
    labels = family.labels(window)
    corr = sum((_canonical_sum(A, family.expr(p)) * (-1 if family.parity else 1)
                * delta.get((p, r), 0) * _canonical_sum(family.expr(r), B)
                for p in labels for r in labels), Fraction(0))
    return _canonical_sum(A, B) - corr


_Q = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _linear_over(algebra, makers, indices):
    modes = [make(n) for make in makers for n in indices]
    return st.builds(lambda mapping, c: linear_operator(algebra, mapping, c, shift=0),
                     st.dictionaries(st.sampled_from(modes), _Q.filter(bool),
                                     min_size=1, max_size=4), _Q)


_BOSON_LINEAR = _linear_over(BOSON, (a, adag), range(-2, 3))
_FERMION_LINEAR = _linear_over(FERMION, (b, bdag), HALF_LABELS(3))


# a constraint label outside the partners of an expression would be a bracket
# that the sparse scans never evaluate; the unfiltered sum finds any such one
@settings(max_examples=100, deadline=None)
@example((BosonConstraints(Fraction(2, 3)), mode_operator(BOSON, adag(0))))
@given(st.one_of(st.tuples(_Q.filter(bool).map(BosonConstraints), _BOSON_LINEAR),
                 st.tuples(st.just(FermionConstraints()), _FERMION_LINEAR)))
def test_partners_hold_every_nonzero_bracket(case):
    family, expr = case
    labels = family.labels(3)
    index = dirac.pairing_index([family.expr(r) for r in labels])
    nonzero = {j for j, r in enumerate(labels) if _canonical_sum(expr, family.expr(r))}
    assert nonzero <= set(dirac.partners(index, expr))


def _family_id(family):
    if family.name != "boson":
        return family.name
    return f"boson-M={family.M}" + ("" if family.with_zero_gauge else "-no-a0")


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("family", [
    BosonConstraints(Fraction(2, 3)), BosonConstraints(-4),
    BosonConstraints(Fraction(2, 3), with_zero_gauge=False), BosonConstraints(-4, with_zero_gauge=False),
    FermionConstraints(), EvenCopyConstraints()], ids=_family_id)
def test_sparse_c_rows_equal_a_dense_scan(family, n):
    # C's closed rows and the rows computed on the pairing support only,
    # against a scan that evaluates every pair: an entry either misses shows
    labels = tuple(family.labels(n))
    exprs = [family.expr(p) for p in labels]
    dense = [{j: v for j, y in enumerate(exprs) if (v := linear_bracket(x, y))} for x in exprs]
    assert dirac._c_rows(family, labels) == dense
    assert dirac.support_rows(family, labels) == dense


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("family", [
    BosonConstraints(Fraction(2, 3)), BosonConstraints(-4, with_zero_gauge=False),
    FermionConstraints(), EvenCopyConstraints()], ids=_family_id)
def test_every_constraint_has_its_family_parity(family, n):
    # the signs (-1)^p(R) of C's inverse and of the Dirac bracket are read off the
    # family, not off each chi_R, so every chi_R must carry the family's parity
    for p in family.labels(n):
        assert family.expr(p).parity == family.parity


# the zero-mode pair meets the gauge label a0 only through a†[0] against a[0],
# which random draws rarely pair; state it as an example
@settings(max_examples=100, deadline=None)
@example((BosonConstraints(Fraction(2, 3)), mode_operator(BOSON, adag(0)), mode_operator(BOSON, a(0))))
@example((BosonConstraints(-4), mode_operator(BOSON, a(0)), mode_operator(BOSON, adag(0))))
@given(st.one_of(
    st.tuples(_Q.filter(bool).map(BosonConstraints), _BOSON_LINEAR, _BOSON_LINEAR),
    st.tuples(st.just(FermionConstraints()), _FERMION_LINEAR, _FERMION_LINEAR)))
def test_dirac_bracket_matches_unfiltered_label_sum(case):
    # modes reach index 5/2, so every label they bracket with lies inside half-width 3
    family, A, B = case
    assert dirac_bracket(A, B, family) == _brute_dirac_bracket(A, B, family, 3)



# the operator route projects B, the linear route projects A: the two routes
# project opposite operands, so on two linear operands this checks
# [Ã, B} = [A, B̃}, the operator route as a constant-only expression
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(_Q.filter(bool).map(BosonConstraints), _BOSON_LINEAR, _BOSON_LINEAR),
    st.tuples(st.just(FermionConstraints()), _FERMION_LINEAR, _FERMION_LINEAR)))
def test_dirac_bracket_matches_operator_route(case):
    family, A, B = case
    got = dirac_op_bracket(A, B, family)
    assert not got.bilinears and not got.linear
    assert got.constant == dirac_bracket(A, B, family)


# --- the operator bracket against a windowed R-sum --------------------------

def _windowed_op_bracket(op, B, family, window):
    """[op, B} - sum over every (P, R) of Delta on the window of
    (-1)^p(R) Delta^PR [chi_R, B} [op, chi_P}, as a mode dict and a constant."""
    plain = commutator_with_linear(op, B)
    linear, constant = dict(plain.linear), plain.constant
    for (p, r), d in invert_c(family, window).items():
        scale = (-1 if family.parity else 1) * d * linear_bracket(family.expr(r), B)
        bra = commutator_with_linear(op, family.expr(p))
        for mode, c in bra.linear:
            linear[mode] = linear.get(mode, 0) - scale * c
        constant -= scale * bra.constant
    return {mode: c for mode, c in linear.items() if c}, constant


def _assert_op_bracket_matches_window(op, B, family):
    # B sits at |index| <= 3, so every label it brackets with, and that label's
    # Delta partners, lie inside half-width 8
    got = dirac_op_bracket(op, B, family)
    assert (dict(got.linear), got.constant) == _windowed_op_bracket(op, B, family, 8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_Q.filter(bool), _Q, st.integers(-3, 3), st.sampled_from((a, adag)), st.integers(-3, 3))
def test_dirac_op_bracket_matches_windowed_sum_boson(M, lam, m, make, n):
    _assert_op_bracket_matches_window(build_L("boson-unconstrained", m, M, lam),
                                      mode_operator(BOSON, make(n)), BosonConstraints(M))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.sampled_from((b, bdag)), st.sampled_from(HALF_LABELS(3)))
def test_dirac_op_bracket_matches_windowed_sum_fermion(m, make, r):
    _assert_op_bracket_matches_window(build_L("fermion-unconstrained", m, 0, H),
                                      mode_operator(FERMION, make(r)), FermionConstraints())


# --- sparse elimination on dense inputs -------------------------------------

_entry = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
_square = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n))


def _sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _det(matrix):
    """Leibniz determinant: exact and independent of any elimination."""
    n, total = len(matrix), Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(_square)
def test_invert_exact_dense_random(matrix):
    n = len(matrix)
    if _det(matrix) == 0:
        with pytest.raises(SingularBlockError):
            _invert_exact(_sparse(matrix))
        return
    inverse = _invert_exact(_sparse(matrix))
    assert all(v for row in inverse for v in row.values())  # only nonzeros are stored
    for i in range(n):
        for k in range(n):
            total = sum((v * matrix[j][k] for j, v in inverse[i].items()), Fraction(0))
            assert total == (1 if i == k else 0)


@settings(max_examples=60, deadline=None)
@given(_square.filter(lambda m: len(m) > 1), st.data())
def test_invert_exact_zero_or_repeated_row_is_singular(matrix, data):
    n = len(matrix)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
    zero_row = [list(row) for row in matrix]
    zero_row[i] = [Fraction(0)] * n
    with pytest.raises(SingularBlockError):
        _invert_exact(_sparse(zero_row))
    repeated = [list(row) for row in matrix]
    repeated[i] = list(repeated[j])
    with pytest.raises(SingularBlockError):
        _invert_exact(_sparse(repeated))


# the four Dirac faults of test_faults.py, each on the family it breaks, and
# one whose projection adds constraints at a shifted index, which the probes
# must follow
_DIRAC_FAULTS = {
    "boson-delta-partner-shifted": (BosonConstraints, "_delta_row", lambda real: lambda self, p: tuple(
        (r if r == ZERO_GAUGE_LABEL else r + 1, d) for r, d in real(self, p))),
    "boson-delta-doubled": (BosonConstraints, "_delta_row", lambda real: lambda self, p: tuple(
        (r, 2 * d if p == 2 else d) for r, d in real(self, p))),
    "fermion-delta-flipped": (FermionConstraints, "_delta_row", lambda real: lambda self, p: tuple(
        (r, -d) for r, d in real(self, p))),
    "boson-support-without-a0": (BosonConstraints, "support_labels", lambda real: lambda self, expr: (
        real(self, expr) - {ZERO_GAUGE_LABEL})),
    "fermion-support-shifted": (FermionConstraints, "support_labels", lambda real: lambda self, expr: {
        p + 1 for p in real(self, expr)}),
}

_NONZERO_AT_3 = {None: 0, "boson-delta-partner-shifted": 24, "boson-delta-doubled": 2,
                 "fermion-delta-flipped": 12, "boson-support-without-a0": 1,
                 "fermion-support-shifted": 12}


def _dirac_scans(family, n):
    """(name, xs, ys, want, run) of the mode-compatibility scan and the Dirac table of
    family at half-width n: run() gives the pairs the scan finds off want, as modes."""
    algebra, chis = family.algebra, [family.expr(r) for r in family.labels(n)]
    ops = [mode_operator(algebra, Mode(kind, two)) for kind in algebra.kinds
           for two in range(-2 * n, 2 * n + 1) if two % 2 == kind.half_integer_moded]
    if isinstance(family, BosonConstraints):
        modes, reduced = [adag(m) for m in range(-n, n + 1)], reduced_boson(family.M)
    else:
        modes, reduced = [b(r) for r in HALF_LABELS(n)], REDUCED_FERMION
    (kind,) = reduced.kinds
    table = [mode_operator(algebra, x) for x in modes]

    def compatibility():
        (report,) = mode_compatibility_reports(family, n)
        return report.status == "fail"

    return [("compatibility", ops, chis, lambda x, y: 0, compatibility),
            ("table", table, table,
             lambda x, y: canonical_bracket(Mode(kind, x.linear[0][0].two),
                                            Mode(kind, y.linear[0][0].two), reduced),
             lambda: {(x, y) for x, y, _ in dirac._dirac_table(family, modes, reduced)})]


# pairs off the expected value under each fault at half-width 3, and the number of
# pairs each scan probes without a fault, per (family, scan)
_TABLE_OFF_AT_3 = {None: 0, "boson-delta-partner-shifted": 11, "boson-delta-doubled": 1,
                   "fermion-delta-flipped": 6, "boson-support-without-a0": 0,
                   "fermion-support-shifted": 6}
_PROBED_AT_3 = {("boson", "compatibility"): 12, ("fermion", "compatibility"): 12,
                ("boson", "table"): 7, ("fermion", "table"): 6}


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("fault", [None, *_DIRAC_FAULTS])
def test_mode_compatibility_probes_every_nonzero_pair(monkeypatch, fresh_caches, fault, n):
    # each scan, mode compatibility and the Dirac table, evaluates dirac_bracket
    # only at the partners of the projected mode (and, for the table, at its
    # paired position); every pair it leaves out must be exactly its expected
    # value, also under each Dirac fault, which puts some pairs off it.  A dense
    # scan in the test finds them.
    families = [BosonConstraints(Fraction(2, 3)), FermionConstraints()]
    if fault:
        cls, name, make = _DIRAC_FAULTS[fault]
        monkeypatch.setattr(cls, name, make(getattr(cls, name)))
        families = [f for f in families if type(f) is cls]
    original, probed = dirac.dirac_bracket, []

    def recording(A, B, family):
        probed.append((A, B))
        return original(A, B, family)

    for module in (dirac, verify):  # every binding a scan may call through
        if hasattr(module, "dirac_bracket"):
            monkeypatch.setattr(module, "dirac_bracket", recording)
    for family in families:
        for scan, xs, ys, want, run in _dirac_scans(family, n):
            probed.clear()
            found = run()
            off = {(x, y) for x in xs for y in ys if original(x, y, family) != want(x, y)}
            assert off <= set(probed) and len(probed) == len(set(probed))
            if scan == "table":
                assert found == {(x.linear[0][0], y.linear[0][0]) for x, y in off}
            else:
                assert found == bool(off)
            if n == 3:
                # each fault puts some pairs off; correct code probes a fixed
                # number of pairs per scan, so a scan that goes dense again, or
                # that drops the table's paired positions, shows
                assert len(off) == (_NONZERO_AT_3 if scan == "compatibility" else _TABLE_OFF_AT_3)[fault]
                assert fault or len(probed) == _PROBED_AT_3[family.name, scan]
