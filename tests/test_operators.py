"""Generator builders, normal-ordered application, graded commutator action."""

import functools
import itertools
import math
import random
from fractions import Fraction
from operator import attrgetter

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
    is_creator,
    reduced_boson,
)
from virfock.dirac import ZERO_GAUGE_LABEL, BosonConstraints
from virfock.fock import BasisState, Truncation, TruncationOverflowError, VACUUM, enumerate_basis
from virfock.fock import _apply_to_basis as mode_table
from virfock.operators import (
    FAMILIES,
    BilinearTerm,
    Commutator,
    OperatorSpec,
    UnsafeLevelError,
    _apply_to_basis,
    _expand,
    _norm_linear,
    build_L,
    commutator_with_linear,
    linear_bracket,
    linear_operator,
    mode_operator,
    row_table,
    safe_ids,
)
from virfock.verify import ScenarioParams, _parts, check_laws
from reference import REFERENCE_L, build_K, canonical_bracket, red_adag, red_b, scale

H = Fraction(1, 2)


def _image(table, i) -> dict:
    """Row i of an id-row table as {basis state: Fraction}."""
    return {table.basis[j]: Fraction(n, table.den) for j, n in table.row(i)}


def _pair_ids(op_a, op_b, trunc):
    """The state ids of the safe window of the pair (op_a, op_b)."""
    return safe_ids(trunc, op_a, op_b)


def _obeys_law(op_a, op_b, coeff, target, trunc) -> bool:
    """[A, B} = coeff·target on every safe state of the pair, target a mode; a pair
    without a safe state fails the test, since the law would hold there vacuously."""
    comm, table = Commutator(op_a, op_b, trunc), mode_table(op_a.algebra, target, trunc)
    ids = _pair_ids(op_a, op_b, trunc)
    assert ids, f"no safe state for shifts ({op_a.shift}, {op_b.shift}) at {trunc}"
    return all(_image(comm, i) == {s: coeff * q for s, q in _image(table, i).items() if coeff} for i in ids)


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
    chi = BosonConstraints(M).expr
    assert linear_bracket(chi(3), chi(-3)) == 6
    assert linear_bracket(build_B(3, M), chi(-3)) == 0
    assert linear_bracket(chi(0), chi(ZERO_GAUGE_LABEL)) == 1
    assert linear_bracket(chi(5), chi(4)) == 0


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
    got = commutator_with_linear(build_K(2), BosonConstraints(M).expr(3))
    assert got == scale(3, BosonConstraints(M).expr(5))
    # [K_m, B_n] = n B_{m+n}
    got = commutator_with_linear(build_K(-1), build_B(4, M))
    assert got == scale(4, build_B(3, M))
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


def conformal_weight(kind: FieldKind, lam=None) -> Fraction:
    """Conformal weight of a field kind, the primary-law test's independent
    reference; the fermion weights need the family parameter lambda."""
    if kind is FieldKind.A:
        return ZERO
    if kind in (FieldKind.ADAG, FieldKind.RED_ADAG):
        return ONE
    if kind is FieldKind.RED_B:
        return H
    if lam is None:
        raise ValueError("fermion conformal weights need the lambda parameter")
    lam = Fraction(lam)
    return lam if kind in (FieldKind.B, FieldKind.EVEN_B) else 1 - lam


def test_conformal_weight_metadata():
    assert conformal_weight(FieldKind.A) == 0
    assert conformal_weight(FieldKind.ADAG) == 1
    assert conformal_weight(FieldKind.B, Fraction(1, 3)) == Fraction(1, 3)
    assert conformal_weight(FieldKind.BDAG, Fraction(1, 3)) == Fraction(2, 3)
    assert conformal_weight(FieldKind.RED_B) == H
    with pytest.raises(ValueError):
        conformal_weight(FieldKind.B)


def test_primary_field_law_matches_conformal_weight():
    # [G_m, phi_n] = ((1-h) m + n) phi_{m+n} with h the mode's weight metadata; each cap
    # is the largest shift sum, 3 + 3 and 3 + 5/2, so every case has a safe state
    lam = Fraction(1, 3)
    cases = [
        (BOSON, build_K, None, a, FieldKind.A, Truncation(Fraction(6), 3)),
        (BOSON, build_K, None, adag, FieldKind.ADAG, Truncation(Fraction(6), 3)),
        (FERMION, lambda m: build_L("fermion-unconstrained", m, 0, lam), lam,
         b, FieldKind.B, Truncation(Fraction(11, 2))),
        (FERMION, lambda m: build_L("fermion-unconstrained", m, 0, lam), lam,
         bdag, FieldKind.BDAG, Truncation(Fraction(11, 2))),
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


def test_christoffel_law_on_states():
    # the reduced boson's law at n != -m, where a†[m+n] exists, on every safe state: its
    # row tables meet the law table's coefficient here, not in check_laws
    M, lam, trunc = Fraction(2, 3), Fraction(-5, 4), Truncation(Fraction(6), 0)
    (law,) = FAMILIES["boson-reduced"].laws
    algebra = FAMILIES["boson-reduced"].algebra(M)
    for m, n in itertools.product(range(-3, 4), repeat=2):
        if n and m + n:
            op, x = build_L("boson-reduced", m, M, lam), mode_operator(algebra, red_adag(n))
            assert _obeys_law(op, x, law.coefficient(m, n, lam), red_adag(m + n), trunc), (m, n)
    assert not _obeys_law(build_L("boson-reduced", 1, M, lam), mode_operator(algebra, red_adag(2)), 3,
                          red_adag(3), trunc)


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


def add(x: OperatorSpec, y: OperatorSpec) -> OperatorSpec:
    """x + y with like terms collected, the composition reference's sum; a
    constant-only operand takes the shift and parity of the other."""
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("cannot add operators over different algebras")
    if not x.bilinears and not x.linear:
        shift, parity = y.shift, y.parity
    elif not y.bilinears and not y.linear:
        shift, parity = x.shift, x.parity
    else:
        if x.shift != y.shift:
            raise ValueError("adding operators of different level shift breaks homogeneity")
        if x.parity != y.parity:
            raise ValueError("adding operators of different parity")
        shift, parity = x.shift, x.parity
    bil = {}
    for t in x.bilinears + y.bilinears:
        key = (t.left, t.right, t.m)
        prev = bil.get(key)
        bil[key] = (prev[0] + t.alpha, prev[1] + t.beta) if prev else (t.alpha, t.beta)
    bilinears = tuple(BilinearTerm(l, r, m, al, be)
                      for (l, r, m), (al, be) in sorted(bil.items(),
                                                        key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2]))
                      if al or be)
    return OperatorSpec(x.algebra, shift, bilinears, _norm_linear(x.linear + y.linear),
                        x.constant + y.constant, parity)


def test_operator_addition_and_scaling():
    M = Fraction(1)
    lhs = add(build_B(2, M), BosonConstraints(M).expr(2))
    assert dict(lhs.linear) == {adag(2): 2}  # the a[2] parts cancel
    assert scale(0, build_K(1)).bilinears == ()
    with pytest.raises(ValueError):
        add(build_K(1), build_K(2))  # inhomogeneous sum


def test_safe_basis_is_computed_once_per_rise():
    trunc = Truncation(Fraction(4), 3)
    probes = safe_ids(trunc, build_K(1), build_K(-2))
    assert safe_ids(trunc, build_K(1), build_K(0)) is probes  # same rise, same tuple
    assert probes == tuple(i for i, s in enumerate(enumerate_basis(BOSON, trunc))
                           if s.level + 1 <= 4 and s.zero_occ + 2 <= 3)


def _window_ops(algebra):
    """Operators on BOSON (K_m and single modes, a†[0] and a[0] among them) or
    on FERMION (single modes, whose shifts are half-odd)."""
    if algebra is BOSON:
        modes = st.builds(lambda make, n: mode_operator(BOSON, make(n)),
                          st.sampled_from([a, adag]), st.integers(-4, 4))
        return st.one_of(st.integers(-4, 4).map(build_K), modes)
    return st.builds(lambda make, two: mode_operator(FERMION, make(Fraction(two, 2))),
                     st.sampled_from([b, bdag]), st.sampled_from(range(-7, 8, 2)))


_WINDOW_CAPS = {BOSON: Truncation(Fraction(3), 2), FERMION: Truncation(Fraction(7, 2))}


def _reference_window(trunc, ops) -> tuple:
    """The safe ids by the rule's statement: the largest partial shift sum
    (0 for the empty subset) and one a†[0] per operator."""
    rise = max(sum(op.shift for op in sub)
               for k in range(len(ops) + 1) for sub in itertools.combinations(ops, k))
    uses = len(ops) if ops[0].algebra.has_zero_modes else 0
    return tuple(i for i, s in enumerate(enumerate_basis(ops[0].algebra, trunc))
                 if s.level + rise <= trunc.level_cap and s.zero_occ + uses <= trunc.zero_mode_cap)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([BOSON, FERMION]).flatmap(
    lambda algebra: st.lists(_window_ops(algebra), min_size=1, max_size=3)))
@example([build_K(1), build_K(2), build_K(-3)])  # the Jacobi triple
@example([mode_operator(BOSON, adag(0)), mode_operator(BOSON, adag(0))])
def test_safe_window_matches_its_statement(ops):
    trunc = _WINDOW_CAPS[ops[0].algebra]
    assert safe_ids(trunc, *ops) == _reference_window(trunc, ops)
    if len(ops) < 2:
        return
    # a commutator probes its pair's window, rows inside it never overflow,
    # and its guard raises on exactly the other states
    comm = Commutator(ops[0], ops[1], trunc)
    assert comm.probes == safe_ids(trunc, *ops[:2]) == _reference_window(trunc, ops[:2])
    for i in range(len(comm.basis)):
        if i in comm.probes:
            comm.row(i)
        else:
            with pytest.raises(UnsafeLevelError):
                comm.row(i)


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


def _realized(t, width) -> list:
    """The doubled r of every term of the kernel t over |r| <= width whose two modes exist:
    r on the kinds' ladder, and neither factor a reduced-boson zero mode."""
    two_w, odd = math.floor(2 * width), 1 if t.left.half_integer_moded else 0
    return [two_r for two_r in range(-two_w, two_w + 1) if two_r % 2 == odd and not any(
        kind is FieldKind.RED_ADAG and two == 0 for kind, two in ((t.left, 2 * t.m - two_r), (t.right, two_r)))]


def _walked_den(op, width):
    """den of a one-kernel operator, by a walk over every realized term
    with the kernel coefficient in Fractions."""
    (t,) = op.bilinears
    bd = op.algebra.bracket_denominator
    coefficients = [t.alpha + t.beta * Fraction(two_r, 2) for two_r in _realized(t, width)]
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
    t = BilinearTerm(left, right, m, alpha, beta)
    op = OperatorSpec(algebra, Fraction(m), (t,), (), constant)
    assert _apply_to_basis(op, trunc, width).den == _walked_den(op, width)
    # the expansion keeps exactly the realized terms whose coefficient is nonzero
    assert [two_r for two_r, *_ in _expand(algebra, trunc, t, width)[1]] == [
        two_r for two_r in _realized(t, width) if alpha + beta * Fraction(two_r, 2)]


def _composed_L(family, m, M, lam):
    """L_m composed by add and scale (reference.py), which normalize the sum:
    the generators' defining expressions, built term by term."""
    if family == "boson-unconstrained":
        return add(build_K(m), scale(lam * (m + 1), build_B(m, M)))
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
    return add(OperatorSpec(algebra, Fraction(m), (kernel,)), rest)


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
    assert direct.parity == 0  # the Virasoro suite reads a mirror's rows negated, as for even operands
    if family.startswith("boson") and (m == -1 or lam == 0):
        assert direct.linear == ()  # the linear term carries lam*(m+1)


_SLOT_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(-6, 6), _SLOT_RATIONALS, _SLOT_RATIONALS)
@example("boson-reduced", 2, Fraction(-2, 3), Fraction(5, 4))  # M's sign in alpha's numerator
@example("boson-reduced", 0, Fraction(-3), Fraction(1, 2))  # no a†[0] term
@example("boson-reduced", 1, Fraction(0), Fraction(1))  # no slot before reduced_boson(0) raises
@example("boson-unconstrained", -1, Fraction(2), Fraction(1, 3))  # lam(m+1) = 0 drops both linear terms
@example("boson-unconstrained", 3, Fraction(0), Fraction(1, 3))  # M = 0 drops a[m]
@example("fermion-unconstrained", 0, Fraction(0), Fraction(1, 3))  # L_0's constant
def test_build_L_equals_the_reference_builders(family, m, M, lam):
    # build_L reads the family's slots; the builders it replaced formed each spec directly
    reference = REFERENCE_L[family]
    if family == "boson-reduced" and not M:
        for build in (lambda: build_L(family, m, M, lam), lambda: reference(m, M, lam)):
            with pytest.raises(ValueError, match="needs M != 0"):
                build()
        return
    direct, expected = build_L(family, m, M, lam), reference(m, M, lam)
    fields = attrgetter(*OperatorSpec._fields)
    assert fields(direct) == fields(expected)
    assert direct == expected and hash(direct) == hash(expected)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(-6, 6), _SLOT_RATIONALS.filter(bool), _SLOT_RATIONALS)
@example("boson-reduced", 0, Fraction(-3), Fraction(1, 2))
@example("boson-unconstrained", -1, Fraction(2), Fraction(1, 3))
@example("fermion-unconstrained", 0, Fraction(-1), Fraction(1, 3))
@example("fermion-reduced", 0, Fraction(1), Fraction(0))  # alpha = 0: the beta part alone
def test_slots_times_the_oracle_parts_sum_to_build_L(family, m, M, lam):
    # the oracle's reader of the statement, a unit part per slot, zero slots included, against build_L's
    gen = FAMILIES[family]
    den, *values = gen.slots(m, M, lam)
    assert den > 0
    parts = _parts(gen.algebra(M), gen.kernel, gen.linear, m)
    assert [k for k, _ in parts] == [2 * len(p.bilinears) + len(p.linear) for _, p in parts]
    terms = [scale(Fraction(v, den), part) for v, (_, part) in zip(values, parts, strict=True)]
    assert functools.reduce(add, terms) == build_L(family, m, M, lam)


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


def _scanned_row(algebra, trunc, t, width, i) -> dict:
    """Row i of the kernel t = sum_r (alpha + beta*r) :X[m-r] Y[r]: by a scan of every realized
    term, normal ordered here, each factor's row read as Fractions; an overflowing factor raises."""
    acc = {}
    for two_r in _realized(t, width):
        x, y, sign = Mode(t.left, 2 * t.m - two_r), Mode(t.right, two_r), 1
        if not is_creator(x) and is_creator(y):  # :X Y: = ±Y X, X applied first
            x, y, sign = y, x, -1 if x.parity and y.parity else 1
        coefficient = sign * (t.alpha + t.beta * Fraction(two_r, 2))
        first, second = mode_table(algebra, y, trunc), mode_table(algebra, x, trunc)
        for mid, w in first.row(i):
            for j, n in second.row(mid):
                acc[j] = acc.get(j, ZERO) + coefficient * Fraction(w, first.den) * Fraction(n, second.den)
    return {j: q for j, q in acc.items() if q}


# the default half-width, and the doubled one that check_window_doubling reads
@pytest.mark.parametrize("widen", [1, 2], ids=["default-width", "doubled-width"])
@pytest.mark.parametrize("algebra,left,right,trunc", [
    (BOSON, FieldKind.ADAG, FieldKind.A, Truncation(Fraction(3), 2)),
    (FERMION, FieldKind.BDAG, FieldKind.B, Truncation(Fraction(7, 2))),
    (reduced_boson(Fraction(-2, 3)), FieldKind.RED_ADAG, FieldKind.RED_ADAG, Truncation(Fraction(4))),
    (REDUCED_FERMION, FieldKind.RED_B, FieldKind.RED_B, Truncation(Fraction(7, 2))),
])
@pytest.mark.parametrize("m", [-2, 0, 3])
def test_each_row_equals_a_scan_of_every_realized_term(algebra, left, right, trunc, m, widen):
    # a row build tries only the terms the state's creators index; the reference scans every
    # term, so a term that acts but is never tried shows here.  alpha + beta*r is nonzero at
    # every r, so every term counts
    alpha, beta, width = Fraction(1, 3), ONE, widen * (trunc.level_cap + abs(m))
    t = BilinearTerm(left, right, m, alpha, beta)
    table = _apply_to_basis(OperatorSpec(algebra, Fraction(m), (t,)), trunc, width)
    rows = 0
    for i in range(len(table.basis)):
        try:
            want = _scanned_row(algebra, trunc, t, width, i)
        except TruncationOverflowError:
            with pytest.raises(TruncationOverflowError):
                table.row(i)
            continue
        assert {j: Fraction(n, table.den) for j, n in table.row(i)} == want
        rows += bool(want)
    assert rows


def test_zero_coefficient_term_is_skipped_before_its_row():
    # at level cap 0 the only term of L_1 whose first factor acts on the
    # vacuum is :b[1/2] b[1/2]:, whose b[1/2] overflows; its coefficient
    # 1/2 - r vanishes in L_1, so L_1|0> = 0, and a nonzero one must raise
    trunc = Truncation(Fraction(0))
    assert row_table(build_L("fermion-reduced", 1), trunc).row(0) == ()
    flat = OperatorSpec(REDUCED_FERMION, Fraction(1),
                        (BilinearTerm(FieldKind.RED_B, FieldKind.RED_B, 1, ONE, ZERO),))
    table = row_table(flat, trunc)
    for _ in range(2):  # raises on every request; never kept as an empty row
        with pytest.raises(TruncationOverflowError):
            table.row(0)
    assert 0 not in table.rows


def test_non_integral_scaled_amplitude_raises(monkeypatch):
    import virfock.operators as operators
    # a denominator too small for L_0/7, whose kernel coefficients -r/7 are no
    # integers over it: the table is refused when it is made, before any row,
    # so it is never kept where another test could see it
    monkeypatch.setattr(operators, "_common_denominator", lambda op, realized: 1)
    op = scale(Fraction(1, 7), build_L("fermion-reduced", 0))
    with pytest.raises(ArithmeticError):
        row_table(op, Truncation(Fraction(13, 2)))


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
    pool = safe_ids(trunc, op)
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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), _RATIONALS.filter(bool), _RATIONALS,
       st.integers(-3, 3), st.integers(-3, 3))
def test_even_commutators_are_antisymmetric_row_by_row(family, M, lam, m, n):
    # the Virasoro check reads [L_n, L_m] as [L_m, L_n] negated, and [L_m, L_m] as zero
    trunc = _CAPS[family]
    lm, ln = build_L(family, m, M, lam), build_L(family, n, M, lam)
    mn, nm, mm = Commutator(lm, ln, trunc), Commutator(ln, lm, trunc), Commutator(lm, lm, trunc)
    assert mn.den == nm.den
    for i in _pair_ids(lm, ln, trunc):
        assert dict(nm.row(i)) == {j: -k for j, k in mn.row(i)}
    for i in _pair_ids(lm, lm, trunc):
        assert mm.row(i) == ()


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


def _reference_commutator_with_linear(op, lin):
    """[op, lin} as a Fraction walk over every kernel index r of a window wider than any
    pairing, through canonical_bracket: [:XY:, z} = [Y,z} X + (-1)^{p(z)p(Y)} [X,z} Y,
    and [w, z} for each linear pair; the constants commute away."""
    algebra, acc, constant = op.algebra, {}, Fraction(0)
    for z, cz in lin.linear:
        for t in op.bilinears:
            span = abs(z.two) + 2 * abs(t.m) + 4
            for two_r in range(-span, span + 1):
                if two_r % 2 != (1 if t.right.half_integer_moded else 0):
                    continue
                x, y = Mode(t.left, 2 * t.m - two_r), Mode(t.right, two_r)
                if FieldKind.RED_ADAG in (x.kind, y.kind) and 0 in (x.two, y.two):
                    continue  # the reduced boson has no zero mode
                coeff = cz * (t.alpha + t.beta * Fraction(two_r, 2))
                acc[x] = acc.get(x, 0) + coeff * canonical_bracket(y, z, algebra)
                acc[y] = acc.get(y, 0) + (-1) ** (z.parity * y.parity) * coeff * canonical_bracket(x, z, algebra)
        for w, cw in op.linear:
            constant += cw * cz * canonical_bracket(w, z, algebra)
    linear = tuple(sorted(((m, c) for m, c in acc.items() if c), key=lambda mc: mc[0].sort_key))
    return OperatorSpec(algebra, op.shift + lin.shift, (), linear, constant, (op.parity + lin.parity) % 2)


def _operator_and_linear(algebra):
    """(op, lin): op one or two random kernels plus a random linear part and
    constant, lin a random linear expression, over the algebra."""
    kinds = st.sampled_from(algebra.kinds)
    term = st.builds(BilinearTerm, kinds, kinds, st.integers(-3, 3), _RATIONALS, _RATIONALS)
    op = st.builds(lambda terms, base: OperatorSpec(algebra, Fraction(terms[0].m), tuple(terms), base.linear,
                                                    base.constant, 0),
                   st.lists(term, min_size=1, max_size=2), _linear_exprs(algebra))
    return st.tuples(op, _linear_exprs(algebra))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LINEAR_ALGEBRAS).flatmap(_operator_and_linear))
def test_commutator_with_linear_matches_canonical_reference(pair):
    op, lin = pair
    assert commutator_with_linear(op, lin) == _reference_commutator_with_linear(op, lin)


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
        with pytest.raises(AlgebraMismatchError):
            commutator_with_linear(expr, foreign)
    assert "integer_linear" not in vars(foreign)  # the raising view kept nothing


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=20, deadline=None)
@given(_RATIONALS.filter(bool), _RATIONALS)
@example(Fraction(5), Fraction(2))
def test_each_law_is_an_operator_identity(family, M, lam):
    # every report of check_laws, each law an identity of linear specs on the whole module
    reports = check_laws(ScenarioParams(family, M, lam, m_range=3))
    assert [r.name for r in reports if r.status != "pass"] == []


@settings(max_examples=20, deadline=None)
@given(_RATIONALS.filter(bool), _RATIONALS)
@example(Fraction(5), Fraction(2))
def test_laws_no_report_states_are_operator_identities(M, lam):
    # the reduced fermion's modes have weight 1/2; its law table is still empty
    for m, two in itertools.product(range(-3, 4), range(-5, 6, 2)):
        x, target = Mode(FieldKind.RED_B, two), Mode(FieldKind.RED_B, two + 2 * m)
        got = commutator_with_linear(build_L("fermion-reduced", m, M, lam), mode_operator(REDUCED_FERMION, x))
        want = linear_operator(REDUCED_FERMION, {target: Fraction(m, 2) + x.index}, shift=target.index, parity=1)
        assert got == want, (m, two)
