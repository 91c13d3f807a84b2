"""Generator builders, normal-ordered application, graded commutator action."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from virfock.algebra import (
    Algebra,
    AlgebraMismatchError,
    BOSON,
    BOSONIZED_FERMION,
    FERMION,
    FieldKind,
    Mode,
    ONE,
    REDUCED_FERMION,
    ZERO,
    a,
    adag,
    b,
    bdag,
    canonical_bracket,
    conformal_weight,
    is_creator,
    red_adag,
    red_b,
    reduced_boson,
)
from virfock.fock import BasisState, Truncation, TruncationOverflowError, VACUUM, enumerate_basis
from virfock.fock import _apply_to_basis as mode_table
from virfock.operators import (
    FAMILIES,
    BilinearTerm,
    Commutator,
    OperatorSpec,
    UnsafeLevelError,
    _apply_to_basis,
    _skeleton,
    build_K,
    build_L,
    build_chi_bar0,
    build_chi_boson,
    commutator_with_linear,
    linear_bracket,
    linear_operator,
    mode_operator,
    pair_shifts,
    row_table,
    safe_ids,
)

H = Fraction(1, 2)


def _image(table, i) -> dict:
    """Row i of an id-row table as {basis state: Fraction}."""
    return {table.basis[j]: Fraction(n, table.den) for j, n in table.row(i)}


def _pair_ids(op_a, op_b, trunc):
    """The state ids of the safe window of the pair (op_a, op_b)."""
    return safe_ids(op_a.algebra, trunc, pair_shifts(op_a, op_b))


def _obeys_law(op_a, op_b, coeff, target, trunc) -> bool:
    """[A, B} = coeff·target on every safe state of the pair, target a mode."""
    comm, table = Commutator(op_a, op_b, trunc), mode_table(op_a.algebra, target, trunc)
    return all(_image(comm, i) == {s: coeff * q for s, q in _image(table, i).items() if coeff}
               for i in _pair_ids(op_a, op_b, trunc))


def build_B(m: int, M) -> OperatorSpec:
    """a†[m] + M*m*a[m] over the unconstrained boson algebra."""
    M = Fraction(M)
    return linear_operator(BOSON, {adag(m): 1, a(m): M * m}, shift=m, parity=0)


def test_build_B_structure():
    b0 = build_B(0, Fraction(7))
    assert b0.linear == ((adag(0), Fraction(1)),)  # the a[0] term has coefficient 0
    b2 = build_B(2, H)
    assert dict(b2.linear) == {adag(2): 1, a(2): 1}


def test_B_and_chi_bracket_table():
    # [B_m, B_n] = -2Mm delta(m+n); [chi_m, chi_n] = 2Mm delta(m+n); [B, chi] = 0
    M = H
    assert linear_bracket(build_B(2, M), build_B(-2, M)) == -2
    M = Fraction(1)
    assert linear_bracket(build_chi_boson(3, M), build_chi_boson(-3, M)) == 6
    assert linear_bracket(build_B(3, M), build_chi_boson(-3, M)) == 0
    assert linear_bracket(build_chi_boson(0, M), build_chi_bar0()) == 1
    assert linear_bracket(build_chi_boson(5, M), build_chi_boson(4, M)) == 0


def test_build_K_structure():
    k = build_K(3)
    assert k.bilinears == (BilinearTerm(FieldKind.ADAG, FieldKind.A, 3,
                                        Fraction(0), Fraction(1)),)
    assert k.linear == () and k.constant == 0 and k.shift == 3


def test_build_L_boson_zero_mode():
    lam = Fraction(1, 3)
    l0 = build_L("boson-unconstrained", 0, Fraction(5), lam)
    assert dict(l0.linear) == {adag(0): lam}  # K_0 + lam a†[0]
    assert l0.bilinears == build_K(0).bilinears


def test_build_L_reduced_boson():
    M = Fraction(2)
    l0 = build_L("boson-reduced", 0, M, Fraction(1, 2))
    assert l0.bilinears == (BilinearTerm(FieldKind.RED_ADAG, FieldKind.RED_ADAG, 0,
                                         Fraction(1, 2), Fraction(0)),)
    assert l0.linear == ()  # a†[0] linear part skipped at build time
    l2 = build_L("boson-reduced", 2, M, Fraction(1, 2))
    assert dict(l2.linear) == {red_adag(2): 3}  # 2 lam (m+1)
    with pytest.raises(ValueError):
        build_L("boson-reduced", 1, 0, 1)  # 1/M kernel undefined


def test_build_L_fermion_kernel():
    lam = Fraction(1, 3)
    l2 = build_L("fermion-unconstrained", 2, 0, lam)
    assert l2.bilinears == (BilinearTerm(FieldKind.BDAG, FieldKind.B, 2,
                                         2 * lam, Fraction(-1)),)
    lr = build_L("fermion-reduced", 3)
    assert lr.bilinears == (BilinearTerm(FieldKind.RED_B, FieldKind.RED_B, 3,
                                         Fraction(3, 2), Fraction(-1)),)


def test_K_mode_laws_on_states():
    # [K_1, a_2] = 3 a_3 and [K_2, a†_-1] = -a†_1, as actions on safe states
    trunc = Truncation(Fraction(6), 3)
    assert _obeys_law(build_K(1), mode_operator(BOSON, a(2)), 3, a(3), trunc)
    assert _obeys_law(build_K(2), mode_operator(BOSON, adag(-1)), -1, adag(1), trunc)
    assert not _obeys_law(build_K(1), mode_operator(BOSON, a(2)), 2, a(3), trunc)


def test_K_chi_commutator_symbolic():
    # [K_2, chi_3] = 3 chi_5 as linear expressions
    M = Fraction(1)
    got = commutator_with_linear(build_K(2), build_chi_boson(3, M))
    assert got == 3 * build_chi_boson(5, M)
    # [K_m, B_n] = n B_{m+n}
    got = commutator_with_linear(build_K(-1), build_B(4, M))
    assert got == 4 * build_B(3, M)
    # [L_m, a_0] = m a_m + lam delta(m)
    lam = Fraction(2, 3)
    got = commutator_with_linear(build_L("boson-unconstrained", 2, 1, lam),
                                 mode_operator(BOSON, a(0)))
    assert dict(got.linear) == {a(2): 2} and got.constant == 0
    got = commutator_with_linear(build_L("boson-unconstrained", 0, 1, lam),
                                 mode_operator(BOSON, a(0)))
    assert got.linear == () and got.constant == lam


def test_L0_fermion_reduced_eigenvalue_by_hand():
    # expand L_0 = -sum_r r :b[-r] b[r]: manually on the level-1/2 state;
    # only r = +-1/2 contribute and each term yields (1/4) psi
    trunc = Truncation(Fraction(7, 2))
    lower = mode_table(REDUCED_FERMION, red_b(-H), trunc)
    raise_ = mode_table(REDUCED_FERMION, red_b(H), trunc)
    psi = BasisState((red_b(H),))
    i = lower.state_id(psi)
    plus = {lower.basis[j]: Fraction(n, lower.den * raise_.den)
            for j, n in raise_.apply(lower.row(i)).items()}
    # r=+1/2 term: -(1/2) :b[-1/2]b[1/2]: = +(1/2) b[1/2] b[-1/2] after the odd swap
    # r=-1/2 term: +(1/2) :b[1/2]b[-1/2]: already ordered
    oracle = {s: H * q + H * q for s, q in plus.items()}
    assert oracle == {psi: H}
    l0 = build_L("fermion-reduced", 0)
    assert _image(row_table(l0, trunc), i) == oracle


def test_K0_counts_level():
    trunc = Truncation(Fraction(5), 2)
    table = row_table(build_K(0), trunc)
    for i, state in enumerate(table.basis):
        assert _image(table, i) == ({state: state.level} if state.level else {})


def test_operator_naming_a_foreign_mode_is_rejected():
    # specs built directly, past linear_operator's own membership check
    trunc = Truncation(Fraction(3), 2)
    linear = OperatorSpec(BOSON, H, (), ((b(H), Fraction(1)),), parity=1)
    bilinear = OperatorSpec(BOSON, Fraction(0), (
        BilinearTerm(FieldKind.BDAG, FieldKind.B, 0, Fraction(0), Fraction(1)),))
    for op in (linear, bilinear):
        with pytest.raises(AlgebraMismatchError):
            row_table(op, trunc)


def test_operator_on_zero_vector():
    trunc = Truncation(Fraction(4))
    assert row_table(build_L("fermion-reduced", -2), trunc).apply(()) == {}


@pytest.mark.parametrize("family,M,lam", [
    ("boson-unconstrained", Fraction(1), Fraction(1, 2)),
    ("boson-reduced", Fraction(2), Fraction(1, 3)),
    ("fermion-unconstrained", 0, Fraction(1, 3)),
    ("fermion-reduced", 0, 0),
])
def test_generators_are_level_homogeneous(family, M, lam):
    algebra = FAMILIES[family].algebra(M)
    cap = Fraction(5) if not family.startswith("fermion") else Fraction(9, 2)
    trunc = Truncation(cap, 3 if algebra.has_zero_modes else 0)
    for m in range(-3, 4):
        table = row_table(build_L(family, m, M, lam), trunc)
        for i, state in enumerate(table.basis):
            if state.level + max(0, m) > trunc.level_cap:
                continue
            if algebra.has_zero_modes and state.zero_occ + 1 > trunc.zero_mode_cap:
                continue
            for j, _ in table.row(i):
                assert table.basis[j].level == state.level + m


def test_primary_field_law_matches_conformal_weight():
    # [G_m, phi_n] = ((1-h) m + n) phi_{m+n} with h the mode's weight metadata
    lam = Fraction(1, 3)
    cases = [
        (BOSON, build_K, None, a, FieldKind.A, Truncation(Fraction(5), 3)),
        (BOSON, build_K, None, adag, FieldKind.ADAG, Truncation(Fraction(5), 3)),
        (FERMION, lambda m: build_L("fermion-unconstrained", m, 0, lam), lam,
         b, FieldKind.B, Truncation(Fraction(9, 2))),
        (FERMION, lambda m: build_L("fermion-unconstrained", m, 0, lam), lam,
         bdag, FieldKind.BDAG, Truncation(Fraction(9, 2))),
    ]
    for algebra, gen, wlam, ctor, kind, trunc in cases:
        h = conformal_weight(kind, wlam)
        half = kind.half_integer_moded
        indices = ([Fraction(t, 2) for t in range(-5, 6, 2)] if half
                   else list(range(-3, 4)))
        for m in range(-3, 4):
            op = gen(m)
            for n in indices:
                coeff = (1 - h) * m + n
                assert _obeys_law(op, mode_operator(algebra, ctor(n)), coeff, ctor(n + m), trunc), (m, n)


def test_window_widening_changes_nothing():
    rng = random.Random(11)
    for family, M, lam, trunc in [
        ("boson-unconstrained", Fraction(1), Fraction(1, 2), Truncation(Fraction(5), 3)),
        ("fermion-unconstrained", 0, Fraction(1, 3), Truncation(Fraction(9, 2))),
    ]:
        algebra = FAMILIES[family].algebra(M)
        states = enumerate_basis(algebra, trunc)
        for _ in range(60):
            m = rng.randint(-3, 3)
            op = build_L(family, m, M, lam)
            pool = [i for i, s in enumerate(states) if s.level + max(0, m) <= trunc.level_cap
                    and (not algebra.has_zero_modes
                         or s.zero_occ + 1 <= trunc.zero_mode_cap)]
            i = rng.choice(pool)
            wide = row_table(op, trunc, window=3 * (trunc.level_cap + abs(op.shift)) + 2)
            assert _image(row_table(op, trunc), i) == _image(wide, i)


def test_fermion_half_lambda_mode_law():
    # lam = 1/2: [L_1, b[1/2]] = (1/2 + 1/2) b[3/2] = b[3/2]
    trunc = Truncation(Fraction(9, 2))
    l1 = build_L("fermion-unconstrained", 1, 0, H)
    assert _obeys_law(l1, mode_operator(FERMION, b(H)), 1, b(Fraction(3, 2)), trunc)


def test_commutator_with_itself_vanishes():
    trunc = Truncation(Fraction(9, 2))
    l1 = build_L("fermion-unconstrained", 1, 0, H)
    comm = Commutator(l1, l1, trunc)
    assert all(comm.row(i) == () for i in _pair_ids(l1, l1, trunc))


def test_central_term_vacuum_values():
    # <0|[L_2, L_-2]|0> = -(c/12)(2^3-2) with the family's central charge
    trb = Truncation(Fraction(6), 4)
    comm = Commutator(build_L("boson-unconstrained", 2, 1, H),
                      build_L("boson-unconstrained", -2, 1, H), trb)
    assert _image(comm, comm.state_id(VACUUM))[VACUUM] == 2  # c = -4
    trf = Truncation(Fraction(11, 2))
    comm = Commutator(build_L("fermion-reduced", 2), build_L("fermion-reduced", -2), trf)
    assert _image(comm, comm.state_id(VACUUM))[VACUUM] == Fraction(-1, 4)  # c = 1/2


def test_reduced_fermion_raising_on_vacuum():
    # L_2 |0> = -(1/2 + 1/2) b[1/2]b[3/2]|0> termwise: fixes the sign convention
    table = row_table(build_L("fermion-reduced", 2), Truncation(Fraction(11, 2)))
    t = BasisState((red_b(H), red_b(Fraction(3, 2))))
    assert _image(table, table.state_id(VACUUM)) == {t: -1}


def test_unsafe_level_is_rejected():
    trunc = Truncation(Fraction(2))
    comm = Commutator(build_L("fermion-reduced", 2), build_L("fermion-reduced", -2), trunc)
    high = BasisState((red_b(H), red_b(Fraction(3, 2))))  # level 2, rise 2
    with pytest.raises(UnsafeLevelError):
        comm.row(comm.state_id(high))


def test_apply_operator_overflow_propagates():
    table = row_table(build_L("fermion-reduced", 3), Truncation(Fraction(2)))
    i = table.state_id(BasisState((red_b(Fraction(3, 2)),)))
    for _ in range(2):  # raises on every request; never kept as an empty row
        with pytest.raises(TruncationOverflowError):
            table.row(i)


def test_operator_addition_and_scaling():
    M = Fraction(1)
    lhs = build_B(2, M) + build_chi_boson(2, M)
    assert dict(lhs.linear) == {adag(2): 2}  # the a[2] parts cancel
    assert (0 * build_K(1)).bilinears == ()
    with pytest.raises(ValueError):
        build_K(1) + build_K(2)  # inhomogeneous sum


def test_safe_basis_is_computed_once_per_rise():
    trunc = Truncation(Fraction(4), 3)
    probes = safe_ids(BOSON, trunc, (Fraction(1), Fraction(-2), Fraction(-1)))
    assert safe_ids(BOSON, trunc, (1, 0, 1)) is probes  # same rise, same tuple
    assert probes == tuple(i for i, s in enumerate(enumerate_basis(BOSON, trunc))
                           if s.level + 1 <= 4 and s.zero_occ + 2 <= 3)


def test_rows_are_integers_over_the_common_denominator():
    # L_2 = (1/M) sum_r :a†[2-r]a†[r]: + 2 lam (2+1) a†[2] on the reduced boson;
    # on the vacuum only r = 1 survives: (3/2) a†[1]a†[1]|0> + (6/5) a†[2]|0>
    M, lam = Fraction(2, 3), Fraction(1, 5)
    op = build_L("boson-reduced", 2, M, lam)
    trunc = Truncation(Fraction(5))
    table = _apply_to_basis(op, trunc, trunc.level_cap + 2)
    # kernel 3/2 times the bracket denominator 3 (of -M/2) squared, linear 6/5 times 3
    assert table.den == 90
    index = {s: i for i, s in enumerate(enumerate_basis(op.algebra, trunc))}
    twice = BasisState((red_adag(1), red_adag(1)))
    assert dict(table.row(index[VACUUM])) == {index[twice]: 135,
                                              index[BasisState((red_adag(2),))]: 108}


def _walked_den(op, skeleton):
    """den of a one-kernel operator, by a walk over every realized term of
    its skeleton with the kernel coefficient in Fractions."""
    (t,) = op.bilinears
    bd = op.algebra.bracket_denominator
    coefficients = [t.alpha + t.beta * Fraction(two_r, 2) for two_r, *_ in skeleton.terms]
    return math.lcm(*(c.denominator * bd * bd for c in coefficients if c), op.constant.denominator)


_KERNEL_KINDS = {  # M -> algebra, the two kinds of the kernel, a truncation
    "boson": (lambda M: BOSON, FieldKind.ADAG, FieldKind.A, Truncation(Fraction(3), 2)),
    "boson-reduced": (reduced_boson, FieldKind.RED_ADAG, FieldKind.RED_ADAG, Truncation(Fraction(4))),
    "fermion": (lambda M: FERMION, FieldKind.BDAG, FieldKind.B, Truncation(Fraction(7, 2))),
    "fermion-reduced": (lambda M: REDUCED_FERMION, FieldKind.RED_B, FieldKind.RED_B,
                        Truncation(Fraction(7, 2))),
}


_COEFFICIENTS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


# The examples, in order: one term (r = 0); one term, since of r in {-1, 0, 1}
# the reduced boson realizes only r = -1 (a†[0] is skipped at r = 0 and 1);
# that one term with a coefficient that vanishes there; r = ±1 realized, where
# 1/2 + r/2 is an integer, while the skipped r = 0 would give 1/2; a kernel
# that vanishes on all six realized r; and a coefficient that vanishes at
# 2r = -1 only.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_KINDS)), st.integers(-3, 3), st.integers(0, 9),
       _COEFFICIENTS.filter(bool), _COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS)
@example("boson", 0, 0, Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(0))
@example("boson-reduced", 1, 2, Fraction(2, 3), Fraction(1, 5), Fraction(1, 7), Fraction(0))
@example("boson-reduced", 1, 2, Fraction(2, 3), Fraction(3, 7), Fraction(3, 7), Fraction(1, 5))
@example("boson-reduced", 0, 2, Fraction(-5, 2), Fraction(1, 2), Fraction(1, 2), Fraction(0))
@example("fermion-reduced", 2, 5, Fraction(1), Fraction(0), Fraction(0), Fraction(1, 3))
@example("fermion", -3, 1, Fraction(1), Fraction(-3, 4), Fraction(-3, 2), Fraction(0))
def test_row_table_den_equals_a_walk_over_the_realized_terms(kinds, m, two_w, M, alpha, beta, constant):
    # two_w is twice the kernel half-width; M matters for the reduced boson only
    algebra, left, right, trunc = _KERNEL_KINDS[kinds]
    algebra = algebra(M)
    width = Fraction(two_w, 2)
    op = OperatorSpec(algebra, Fraction(m), (BilinearTerm(left, right, m, alpha, beta),), (), constant)
    skeleton = _skeleton(algebra, trunc, left, right, m, width)
    assert _apply_to_basis(op, trunc, width).den == _walked_den(op, skeleton)


def _composed_L(family, m, M, lam):
    """L_m composed by OperatorSpec arithmetic, which normalizes the sum: the
    generators' defining expressions, built term by term."""
    if family == "boson-unconstrained":
        return build_K(m) + (lam * (m + 1)) * build_B(m, M)
    algebra = FAMILIES[family].algebra(M)
    if family == "boson-reduced":
        kernel = BilinearTerm(FieldKind.RED_ADAG, FieldKind.RED_ADAG, m, 1 / M, Fraction(0))
        rest = linear_operator(algebra, {red_adag(m): 2 * lam * (m + 1)} if m else {}, shift=m)
    elif family == "fermion-unconstrained":
        kernel = BilinearTerm(FieldKind.BDAG, FieldKind.B, m, lam * m, Fraction(-1))
        rest = linear_operator(algebra, {}, constant=-(1 - 2 * lam) ** 2 / 8 if m == 0 else 0)
    else:
        kernel = BilinearTerm(FieldKind.RED_B, FieldKind.RED_B, m, Fraction(m, 2), Fraction(-1))
        rest = linear_operator(algebra, {})
    return OperatorSpec(algebra, Fraction(m), (kernel,)) + rest


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(-6, 6),
       st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
       st.fractions(min_value=-6, max_value=6, max_denominator=6))
@example("boson-unconstrained", -1, Fraction(-2, 3), Fraction(5, 4))
@example("boson-unconstrained", 2, Fraction(-2, 3), Fraction(0))
@example("boson-unconstrained", 0, Fraction(3), Fraction(1, 5))
@example("boson-reduced", -1, Fraction(-2, 3), Fraction(5, 4))
@example("boson-reduced", 3, Fraction(-1, 5), Fraction(0))
@example("fermion-unconstrained", 0, Fraction(-1), Fraction(0))
@example("boson-unconstrained", 2, Fraction(0), Fraction(1, 3))  # M = 0 drops a[m]: a†[m] alone
@example("boson-unconstrained", -3, Fraction(0), Fraction(-5, 4))
@example("boson-unconstrained", 0, Fraction(0), Fraction(2))
@example("boson-unconstrained", 1, Fraction(0), Fraction(0))
def test_direct_generators_equal_their_composition(family, m, M, lam):
    direct, composed = build_L(family, m, M, lam), _composed_L(family, m, M, lam)
    assert direct == composed
    assert hash(direct) == hash(composed)
    if family.startswith("boson") and (m == -1 or lam == 0):
        assert direct.linear == ()  # the linear term carries lam*(m+1)


def test_equal_specs_share_one_row_table():
    trunc, same = Truncation(6), Truncation(Fraction(12, 2))
    assert trunc == same and hash(trunc) == hash(same)
    first = build_L("boson-reduced", 2, Fraction(-3, 5), Fraction(2, 5))
    second = build_L("boson-reduced", 2, Fraction(-6, 10), Fraction(4, 10))
    assert first is not second and first == second and hash(first) == hash(second)
    assert row_table(first, trunc) is row_table(second, same)
    # int and Fraction forms of one operator: equal, so they must hash alike
    kernel = (FieldKind.ADAG, FieldKind.A, 2)
    ints = OperatorSpec(BOSON, 2, (BilinearTerm(*kernel, 0, 1),), ((adag(2), 3),), constant=0)
    fractions = OperatorSpec(BOSON, Fraction(2), (BilinearTerm(*kernel, ZERO, ONE),),
                             ((adag(2), Fraction(3)),), constant=Fraction(0))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert row_table(ints, trunc) is row_table(fractions, same)


_BOSON_COPY = Algebra(BOSON.name, BOSON.M, BOSON.kinds, BOSON.has_zero_modes, dict(BOSON.brackets))
_SCALARS = st.sampled_from([0, 1, Fraction(0), Fraction(1), Fraction(-1, 2)])
_SPECS = st.builds(
    OperatorSpec, st.sampled_from([BOSON, _BOSON_COPY, FERMION]), _SCALARS,
    st.lists(st.builds(lambda m, al, be: BilinearTerm(FieldKind.ADAG, FieldKind.A, m, al, be),
                       st.sampled_from([0, 1]), _SCALARS, _SCALARS), max_size=1).map(tuple),
    st.lists(st.tuples(st.sampled_from([a(1), adag(1)]), _SCALARS), max_size=1).map(tuple),
    _SCALARS, st.sampled_from([0, 1]))


def _fields_equal(x, y) -> bool:
    """Field-by-field equality, every scalar compared by value."""
    return ((x.algebra, x.shift, x.bilinears, x.linear, x.constant, x.parity)
            == (y.algebra, y.shift, y.bilinears, y.linear, y.constant, y.parity))


def _respelled(op):
    """op with each integral scalar as the other of int and Fraction, every
    other scalar a new Fraction, over an equal algebra where there is one."""
    def flip(q):
        return int(q) if type(q) is Fraction and q.denominator == 1 else Fraction(q)

    algebra = {BOSON: _BOSON_COPY, _BOSON_COPY: BOSON}.get(op.algebra, op.algebra)
    return OperatorSpec(algebra, flip(op.shift),
                        tuple(t._replace(alpha=flip(t.alpha), beta=flip(t.beta)) for t in op.bilinears),
                        tuple((x, flip(c)) for x, c in op.linear), flip(op.constant), op.parity)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SPECS, min_size=1, max_size=6))
def test_spec_equality_and_hash_agree_with_a_field_by_field_reference(specs):
    assert _BOSON_COPY is not BOSON and _BOSON_COPY == BOSON
    specs = specs + [_respelled(op) for op in specs]
    for x in specs:
        for y in specs:
            assert (x == y) == _fields_equal(x, y)
            if x == y:
                assert hash(x) == hash(y)
    for op in specs:
        assert _respelled(op) == op and hash(_respelled(op)) == hash(op)
        # equal in every field but the algebra
        other = OperatorSpec(FERMION if op.algebra == BOSON else BOSON, op.shift, op.bilinears,
                             op.linear, op.constant, op.parity)
        assert op != other and other != op


def _acts_on(x, state, algebra, trunc) -> bool:
    """Whether applying x to the state gives a nonzero row or overflows."""
    table = mode_table(algebra, x, trunc)
    try:
        return bool(table.row(table.state_id(state)))
    except TruncationOverflowError:
        return True


@pytest.mark.parametrize("algebra,left,right,trunc", [
    (BOSON, FieldKind.ADAG, FieldKind.A, Truncation(Fraction(3), 2)),
    (FERMION, FieldKind.BDAG, FieldKind.B, Truncation(Fraction(7, 2))),
    (reduced_boson(Fraction(-2, 3)), FieldKind.RED_ADAG, FieldKind.RED_ADAG, Truncation(Fraction(4))),
])
@pytest.mark.parametrize("m", [-2, 0, 3])
def test_each_state_visits_only_the_kernel_terms_acting_on_it(algebra, left, right, trunc, m):
    skeleton = _skeleton(algebra, trunc, left, right, m, trunc.level_cap + abs(m))
    basis = enumerate_basis(algebra, trunc)
    for i, state in enumerate(basis):
        assert skeleton[i] == tuple(t for t in skeleton.terms
                                    if _acts_on(t[2].mode, state, algebra, trunc))
    # on the vacuum only creating first factors act
    vacuum_terms = skeleton[basis.index(VACUUM)]
    assert all(is_creator(first.mode) for _, _, first, _ in vacuum_terms)
    assert len(vacuum_terms) < len(skeleton.terms)


def test_zero_coefficient_term_is_skipped_before_its_row():
    # at level cap 0 the only term of L_1 whose first factor acts on the
    # vacuum is :b[1/2] b[1/2]:, whose b[1/2] overflows; its coefficient
    # 1/2 - r vanishes in L_1, so L_1|0> = 0, and a nonzero one must raise
    trunc = Truncation(Fraction(0))
    assert row_table(build_L("fermion-reduced", 1), trunc).row(0) == ()
    flat = OperatorSpec(REDUCED_FERMION, Fraction(1),
                        (BilinearTerm(FieldKind.RED_B, FieldKind.RED_B, 1, ONE, ZERO),))
    with pytest.raises(TruncationOverflowError):
        row_table(flat, trunc).row(0)


def test_non_integral_scaled_amplitude_raises(monkeypatch):
    import virfock.operators as operators
    # a denominator too small for L_0 = (1/7)(1/2)... on b[1/2]|0>; the scaled
    # operator and the caps are used nowhere else, so no other test sees the table
    monkeypatch.setattr(operators, "_common_denominator", lambda op, realized: 1)
    op = Fraction(1, 7) * build_L("fermion-reduced", 0)
    table = row_table(op, Truncation(Fraction(13, 2)))
    with pytest.raises(ArithmeticError):
        table.row(table.state_id(BasisState((red_b(H),))))


def test_input_state_outside_the_truncation_raises():
    table = row_table(build_L("fermion-reduced", 0), Truncation(Fraction(2)))
    high = BasisState((red_b(H), red_b(Fraction(5, 2))))  # level 3 > cap 2
    with pytest.raises(TruncationOverflowError):
        table.state_id(high)


def _reference(op, v, trunc):
    """op v, for v a dict {basis state: Fraction}, summed term by term over
    mode-table rows in Fractions; each kernel term is normal ordered here,
    independently of the engine."""
    def act(x, w):
        table, out = mode_table(op.algebra, x, trunc), {}
        for state, q in w.items():
            for image, p in _image(table, table.state_id(state)).items():
                out[image] = out.get(image, 0) + q * p
        return out

    terms = [(op.constant, ())] + [(c, (mode,)) for mode, c in op.linear]  # (c, modes in order of action)
    width = trunc.level_cap + abs(op.shift)
    for t in op.bilinears:
        odd = 1 if t.right.half_integer_moded else 0
        for two_r in range(-int(2 * width), int(2 * width) + 1):
            x, y = Mode(t.left, 2 * t.m - two_r), Mode(t.right, two_r)
            coeff = t.alpha + t.beta * Fraction(two_r, 2)
            no_mode = FieldKind.RED_ADAG in (x.kind, y.kind) and 0 in (x.two, y.two)
            if two_r % 2 != odd or not coeff or no_mode:  # the reduced boson has no a†[0]
                continue
            if not is_creator(x) and is_creator(y):  # :x y: = ±y x
                terms.append(((-1 if x.parity and y.parity else 1) * coeff, (x, y)))
            else:
                terms.append((coeff, (y, x)))
    out = {}
    for c, modes in terms:
        w = v
        for x in modes:
            w = act(x, w)
        for state, q in w.items():
            out[state] = out.get(state, 0) + c * q
    return {state: q for state, q in out.items() if q}


_CAPS = {
    "boson-unconstrained": Truncation(Fraction(4), 2),
    "boson-reduced": Truncation(Fraction(5)),
    "fermion-unconstrained": Truncation(Fraction(9, 2)),
    "fermion-reduced": Truncation(Fraction(9, 2)),
}
_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), _RATIONALS.filter(bool), _RATIONALS,
       st.integers(-3, 3), st.integers(-3, 3), st.data())
def test_integer_engine_matches_fraction_reference(family, M, lam, m, n, data):
    trunc = _CAPS[family]
    op = build_L(family, m, M, lam)
    table = row_table(op, trunc)
    pool = safe_ids(op.algebra, trunc, (op.shift,), zero_uses=1)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-6, 6)),
                               min_size=1, max_size=3))
    v = {}
    for i, k in pairs:
        v[table.basis[i]] = v.get(table.basis[i], 0) + k
    got = {table.basis[j]: Fraction(k, table.den) for j, k in table.apply(pairs).items()}
    assert got == _reference(op, v, trunc)
    # the commutator's rows, on a state drawn from the pair's safe window;
    # the generators are even, so [L_m, L_n} = L_m L_n - L_n L_m
    other = build_L(family, n, M, lam)
    pair_pool = _pair_ids(op, other, trunc)
    if pair_pool:
        i = data.draw(st.sampled_from(pair_pool))
        w = {table.basis[i]: Fraction(1)}
        ab = _reference(op, _reference(other, w, trunc), trunc)
        ba = _reference(other, _reference(op, w, trunc), trunc)
        want = {s: ab.get(s, 0) - ba.get(s, 0) for s in ab.keys() | ba.keys()}
        assert _image(Commutator(op, other, trunc), i) == {s: q for s, q in want.items() if q}


# --- linear brackets against the canonical bracket --------------------------

def _reference_linear_bracket(x, y):
    """Every mode pair through canonical_bracket, with no pairing by index."""
    return sum((cx * cy * canonical_bracket(mx, my, x.algebra)
                for mx, cx in x.linear for my, cy in y.linear), Fraction(0))


_LINEAR_ALGEBRAS = [BOSON, FERMION, REDUCED_FERMION, BOSONIZED_FERMION,
                    *(reduced_boson(M) for M in (Fraction(2, 3), -4, 5, Fraction(-1, 6)))]


def _linear_exprs(algebra):
    """Random linear expressions over the algebra: up to four distinct modes
    with doubled index |two| <= 6, and a constant."""
    modes = [Mode(kind, two) for kind in algebra.kinds for two in range(-6, 7)
             if two % 2 == (1 if kind.half_integer_moded else 0)
             and not (kind is FieldKind.RED_ADAG and two == 0)]
    terms = st.dictionaries(st.sampled_from(modes), _RATIONALS.filter(bool), max_size=4)
    return st.builds(lambda mapping, c: linear_operator(algebra, mapping, c, shift=0),
                     terms, _RATIONALS)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_LINEAR_ALGEBRAS).flatmap(
    lambda alg: st.tuples(_linear_exprs(alg), _linear_exprs(alg))))
def test_linear_bracket_matches_canonical_reference(pair):
    x, y = pair
    assert linear_bracket(x, y) == _reference_linear_bracket(x, y)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_LINEAR_ALGEBRAS).flatmap(_linear_exprs), st.booleans())
def test_linear_bracket_rejects_a_foreign_mode(expr, foreign_first):
    # built directly, past linear_operator's membership check; the foreign
    # mode pairs with nothing by index, and must still raise
    algebra = expr.algebra
    kind = next(k for k in FieldKind if k not in algebra.kinds)
    two = 7 if kind.half_integer_moded else 8
    foreign = OperatorSpec(algebra, Fraction(0), (), ((Mode(kind, two), Fraction(1)),))
    for _ in range(2):  # a repeated call raises too: no check result is kept as a pass
        with pytest.raises(AlgebraMismatchError):
            linear_bracket(*((foreign, expr) if foreign_first else (expr, foreign)))
