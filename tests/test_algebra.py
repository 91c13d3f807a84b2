"""Bracket tables, grading, parity, and exact-scalar plumbing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virfock.algebra import (
    Algebra,
    AlgebraMismatchError,
    BOSON,
    BOSONIZED_FERMION,
    FERMION,
    FieldKind,
    Mode,
    REDUCED_FERMION,
    a,
    adag,
    b,
    bdag,
    even_b,
    even_bdag,
    format_rational,
    parse_rational,
    reduced_boson,
)
from reference import canonical_bracket, red_adag, red_b

H = Fraction(1, 2)


def all_modes(algebra, max_two=16):
    out = []
    for kind in algebra.kinds:
        lo = 1 if kind.half_integer_moded else 0
        for two in range(lo, max_two + 1, 2):
            for t in {two, -two}:
                if kind is FieldKind.RED_ADAG and t == 0:
                    continue
                out.append(Mode(kind, t))
    return out


def test_bracket_examples_unconstrained_boson():
    assert canonical_bracket(adag(2), a(-2), BOSON) == 1
    assert canonical_bracket(a(-2), adag(2), BOSON) == -1
    assert canonical_bracket(adag(2), a(3), BOSON) == 0
    assert canonical_bracket(adag(2), adag(-2), BOSON) == 0
    assert canonical_bracket(a(0), a(0), BOSON) == 0
    assert canonical_bracket(adag(0), a(0), BOSON) == 1


def test_bracket_examples_reduced_boson():
    alg = reduced_boson(1)
    assert canonical_bracket(red_adag(3), red_adag(5), alg) == 0
    assert canonical_bracket(red_adag(3), red_adag(-3), alg) == Fraction(-3, 2)
    alg2 = reduced_boson(2)
    assert canonical_bracket(red_adag(3), red_adag(-3), alg2) == -3
    assert canonical_bracket(red_adag(-3), red_adag(3), alg2) == 3


def test_bracket_examples_fermion():
    assert canonical_bracket(b(H), bdag(-H), FERMION) == 1
    assert canonical_bracket(bdag(-H), b(H), FERMION) == 1
    assert canonical_bracket(b(H), b(-H), FERMION) == 0
    assert canonical_bracket(red_b(H), red_b(-H), REDUCED_FERMION) == H
    assert canonical_bracket(red_b(-H), red_b(H), REDUCED_FERMION) == H


def test_bracket_even_copy_is_antisymmetric():
    assert canonical_bracket(even_bdag(H), even_b(-H), BOSONIZED_FERMION) == 1
    assert canonical_bracket(even_b(-H), even_bdag(H), BOSONIZED_FERMION) == -1


@pytest.mark.parametrize("algebra", [BOSON, FERMION, reduced_boson(Fraction(3, 2)),
                                     REDUCED_FERMION, BOSONIZED_FERMION])
def test_graded_antisymmetry_window(algebra):
    modes = all_modes(algebra)
    for x in modes:
        for y in modes:
            sign = -1 if (x.parity and y.parity) else 1
            assert canonical_bracket(x, y, algebra) == \
                -sign * canonical_bracket(y, x, algebra)


@pytest.mark.parametrize("algebra", [BOSON, FERMION, reduced_boson(2), REDUCED_FERMION])
def test_bracket_is_level_graded(algebra):
    modes = all_modes(algebra)
    for x in modes:
        for y in modes:
            if canonical_bracket(x, y, algebra):
                assert x.index + y.index == 0


def test_mode_level_values():
    # a mode's level is its index
    assert adag(3).index == 3
    assert b(Fraction(-5, 2)).index == Fraction(-5, 2)
    assert a(0).index == 0


def test_bilinear_pair_total_level():
    # every realized pair (a†[m-r], a[r]) of a label-m kernel has total level m
    m = 2
    for two_r in range(-12, 13, 2):
        r = Fraction(two_r, 2)
        assert adag(m - r).index + a(r).index == m


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(" 2 ") == 2
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"


def test_mode_constructor_validation():
    with pytest.raises(ValueError):
        b(1)  # fermions live on half-odd indices
    with pytest.raises(ValueError):
        a(H)  # bosons on integers
    with pytest.raises(ValueError):
        red_adag(0)  # constrained away
    with pytest.raises(ValueError):
        a(Fraction(1, 3))


def test_algebra_membership_errors():
    with pytest.raises(AlgebraMismatchError):
        canonical_bracket(a(1), b(H), BOSON)
    with pytest.raises(AlgebraMismatchError):
        canonical_bracket(red_b(H), red_b(-H), FERMION)
    with pytest.raises(ValueError):
        reduced_boson(0)


def test_bracket_table_stays_out_of_equality():
    # caches and mismatch checks key on (name, M, kinds, zero modes) only
    bare = Algebra("boson-reduced", Fraction(2), (FieldKind.RED_ADAG,), False)
    assert reduced_boson(2) == bare and hash(reduced_boson(2)) == hash(bare)
    assert reduced_boson(2) != reduced_boson(3)


def test_parity_table():
    assert a(1).parity == 0 and adag(1).parity == 0 and red_adag(1).parity == 0
    assert b(H).parity == 1 and bdag(H).parity == 1 and red_b(H).parity == 1
    assert even_b(H).parity == 0 and even_bdag(H).parity == 0


def test_mode_rendering():
    assert str(adag(-3)) == "a†[-3]"
    assert str(b(H)) == "b[1/2]"
    assert str(a(0)) == "a[0]"
