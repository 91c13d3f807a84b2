"""Value semantics of the immutable types that key the engine's caches.

Each compares equal, and hashes equal, to an instance of its own type with
equal fields, and to nothing else; it refuses assignment to a field; and its
constructor normalizes and validates its arguments.
"""

from fractions import Fraction

import pytest

from virfock.algebra import BOSON, FERMION, Algebra, FieldKind, Mode, adag, reduced_boson
from virfock.dirac import BosonConstraints, EvenCopyConstraints, FermionConstraints
from virfock.fock import BasisState, Truncation
from virfock.operators import OperatorSpec

H = Fraction(1, 2)
RED = FieldKind.RED_ADAG


def _spec(constant=0):
    return OperatorSpec(BOSON, 1, (), ((adag(1), Fraction(3, 2)),), Fraction(constant))


# (value, an equal value built another way, unequal values)
CASES = {
    "Truncation": (lambda: Truncation(6, 4), lambda: Truncation(Fraction(6), 4),
                   lambda: [(Fraction(6), 4), Truncation(6, 3), Truncation(Fraction(11, 2), 4)]),
    "Algebra": (lambda: reduced_boson(Fraction(2)),
                lambda: Algebra("boson-reduced", Fraction(2), (RED,), False, {(RED, RED): Fraction(-1)}, True),
                lambda: [reduced_boson(3), Algebra("boson-reduced", Fraction(2), (RED,), True), BOSON,
                         ("boson-reduced", Fraction(2), (RED,), False)]),
    "OperatorSpec": (_spec, lambda: OperatorSpec(BOSON, Fraction(1), (), ((adag(1), Fraction(3, 2)),)),
                     lambda: [_spec(1), OperatorSpec(FERMION, 1),
                              (BOSON, 1, (), ((adag(1), Fraction(3, 2)),), 0, 0)]),
    "BosonConstraints": (lambda: BosonConstraints(2), lambda: BosonConstraints(Fraction(2)),
                         lambda: [BosonConstraints(2, with_zero_gauge=False), BosonConstraints(-2),
                                  FermionConstraints(), (Fraction(2), True)]),
    "FermionConstraints": (FermionConstraints, FermionConstraints, lambda: [EvenCopyConstraints(), ()]),
    "EvenCopyConstraints": (EvenCopyConstraints, EvenCopyConstraints, lambda: [FermionConstraints(), ()]),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_equal(name):
    make, make_equal, _ = CASES[name]
    x, y = make(), make_equal()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", CASES)
def test_another_type_or_field_compares_unequal(name):
    make, _, make_others = CASES[name]
    x = make()
    for other in make_others():
        assert x != other and other != x
        assert not x == other


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment(name):
    make = CASES[name][0]
    x = make()
    for field in vars(x).copy() or ["anything"]:
        if field.startswith("_"):
            continue
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    with pytest.raises(AttributeError):
        x.new_attribute = 1
    assert x == make()


def test_constructors_normalize_their_scalars():
    assert type(Truncation(6, 4).level_cap) is Fraction
    assert Truncation(H).level_cap == H and Truncation(H).zero_mode_cap == 0
    assert type(BosonConstraints(2).M) is Fraction
    assert BosonConstraints(2).with_zero_gauge


def test_truncation_text_is_kept():
    # TruncationOverflowError prints it
    assert repr(Truncation(6, 4)) == "Truncation(level_cap=Fraction(6, 1), zero_mode_cap=4)"


@pytest.mark.parametrize("make", [lambda: Truncation(-1), lambda: Truncation(Fraction(1, 3)),
                                  lambda: Truncation(1, -1), lambda: BosonConstraints(0)],
                         ids=["Truncation(-1)", "Truncation(1/3)", "Truncation(1,-1)", "BosonConstraints(0)"])
def test_invalid_values_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_field_kinds_hash_by_identity_and_keys_still_match():
    # FieldKind members are singletons, so they hash as objects, in C
    for kind in FieldKind:
        assert hash(kind) == object.__hash__(kind)
    keys = {Mode(FieldKind.BDAG, 3): "mode", BasisState((adag(1), adag(2)), 1): "state"}
    assert keys[Mode(FieldKind.BDAG, 3)] == "mode"
    assert keys[BasisState((Mode(FieldKind.ADAG, 2), Mode(FieldKind.ADAG, 4)), 1)] == "state"
