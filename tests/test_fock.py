"""Basis enumeration against a brute-force oracle, and exact mode action."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from virfock import (
    BOSON,
    BOSONIZED_FERMION,
    BasisState,
    FERMION,
    Mode,
    REDUCED_FERMION,
    StateVector,
    Truncation,
    TruncationOverflowError,
    VACUUM,
    a,
    adag,
    apply_mode,
    b,
    bdag,
    canonical_bracket,
    enumerate_basis,
    red_b,
    reduced_boson,
)
from virfock.algebra import is_creator
from virfock.fock import _apply_to_basis

H = Fraction(1, 2)


def brute_states(algebra, trunc):
    """Independent enumeration: product over per-mode occupation numbers."""
    candidates = []
    for kind in algebra.kinds:
        two = 1 if kind.half_integer_moded else 2
        while Fraction(two, 2) <= trunc.level_cap:
            candidates.append(Mode(kind, two))
            two += 2
    ranges = []
    for m in candidates:
        if m.parity:
            ranges.append(range(2))
        else:
            ranges.append(range(int(trunc.level_cap / m.index) + 1))
    occs = range(trunc.zero_mode_cap + 1) if algebra.has_zero_modes else (0,)
    out = set()
    for counts in itertools.product(*ranges):
        level = sum(c * m.index for c, m in zip(counts, candidates))
        if level > trunc.level_cap:
            continue
        creators = tuple(sorted(
            (m for c, m in zip(counts, candidates) for _ in range(c)),
            key=lambda mm: mm.sort_key))
        for z in occs:
            out.add(BasisState(creators, z))
    return out


def test_enumerate_reduced_fermion_level_2():
    states = enumerate_basis(REDUCED_FERMION, Truncation(Fraction(2)))
    expected = {
        VACUUM,
        BasisState((red_b(H),)),
        BasisState((red_b(Fraction(3, 2)),)),
        BasisState((red_b(H), red_b(Fraction(3, 2)))),
    }
    assert set(states) == expected
    assert len(states) == 4


def test_enumerate_level_zero_is_vacuum():
    for algebra in (BOSON, FERMION, reduced_boson(1), REDUCED_FERMION):
        assert enumerate_basis(algebra, Truncation(Fraction(0), 0)) == (VACUUM,)


def test_enumerate_basis_once_per_truncation():
    # equal (algebra, truncation) arguments share one basis tuple
    first = enumerate_basis(BOSON, Truncation(Fraction(3), 2))
    assert enumerate_basis(BOSON, Truncation(Fraction(3), 2)) is first


def test_enumerate_unconstrained_fermion_level_1():
    # exhaustive enumeration gives exactly these four states
    states = enumerate_basis(FERMION, Truncation(Fraction(1)))
    expected = {VACUUM, BasisState((b(H),)), BasisState((bdag(H),)),
                BasisState((b(H), bdag(H)))}
    assert set(states) == expected
    assert sorted(s.level for s in states) == [0, H, H, 1]


@pytest.mark.parametrize("algebra,trunc", [
    (BOSON, Truncation(Fraction(4), 2)),
    (FERMION, Truncation(Fraction(7, 2))),
    (reduced_boson(1), Truncation(Fraction(5))),
    (REDUCED_FERMION, Truncation(Fraction(11, 2))),
])
def test_enumerate_matches_bruteforce(algebra, trunc):
    states = enumerate_basis(algebra, trunc)
    assert len(states) == len(set(states))  # each exactly once
    assert set(states) == brute_states(algebra, trunc)
    levels = [(s.level, s.zero_occ) for s in states]
    assert levels == sorted(levels)  # canonical order leads with the level


_POOL = enumerate_basis(FERMION, Truncation(Fraction(3, 2)))


@given(st.lists(st.tuples(st.sampled_from(_POOL), st.fractions(max_denominator=4),
                          st.booleans()), max_size=12),
       st.randoms(use_true_random=False))
def test_constructor_sums_and_drops_cancelled_amplitudes(entries, rng):
    # each entry flagged True is also added negated, so some states cancel exactly
    pairs = [(s, q) for s, q, _ in entries] + [(s, -q) for s, q, neg in entries if neg]
    rng.shuffle(pairs)
    naive = {}
    for s, q in pairs:
        naive[s] = naive.get(s, 0) + q
    assert StateVector(FERMION, pairs).amp == {s: q for s, q in naive.items() if q}


def test_apply_creator_then_conjugate_annihilator():
    # a†[-2] (a[2] |0>) = [a†[-2], a[2]] |0> = |0>
    trunc = Truncation(Fraction(3))
    v = apply_mode(a(2), StateVector.vacuum(BOSON), trunc)
    v = apply_mode(adag(-2), v, trunc)
    assert v == StateVector.vacuum(BOSON)


def test_apply_reduced_fermion_contraction():
    trunc = Truncation(Fraction(2))
    v = StateVector.basis(REDUCED_FERMION, BasisState((red_b(H),)))
    out = apply_mode(red_b(-H), v, trunc)
    assert out == H * StateVector.vacuum(REDUCED_FERMION)


def test_fermion_nilpotency():
    trunc = Truncation(Fraction(2))
    v = StateVector.basis(REDUCED_FERMION, BasisState((red_b(H),)))
    assert apply_mode(red_b(H), v, trunc).is_zero()


def test_annihilators_kill_vacuum():
    trunc = Truncation(Fraction(6), 2)
    vac = StateVector.vacuum(BOSON)
    for k in range(1, 7):
        assert apply_mode(a(-k), vac, trunc).is_zero()
        assert apply_mode(adag(-k), vac, trunc).is_zero()
    assert apply_mode(a(0), vac, trunc).is_zero()
    fvac = StateVector.vacuum(FERMION)
    for two in range(1, 13, 2):
        assert apply_mode(b(Fraction(-two, 2)), fvac, trunc).is_zero()
        assert apply_mode(bdag(Fraction(-two, 2)), fvac, trunc).is_zero()


def test_zero_mode_ladder():
    trunc = Truncation(Fraction(2), 3)
    vac = StateVector.vacuum(BOSON)
    up = apply_mode(adag(0), apply_mode(adag(0), vac, trunc), trunc)
    assert up == StateVector.basis(BOSON, BasisState((), 2))
    # a[0] (a†[0])^2 |0> = -2 a†[0] |0>
    down = apply_mode(a(0), up, trunc)
    assert down == (-2) * StateVector.basis(BOSON, BasisState((), 1))


def test_level_bookkeeping():
    # apply_mode maps the level-l subspace into level l + index, exactly
    trunc = Truncation(Fraction(6), 2)
    basis = enumerate_basis(BOSON, trunc)
    for two in range(-8, 9, 2):
        for ctor in (a, adag):
            x = ctor(Fraction(two, 2))
            for state in basis:
                if state.level + x.index > trunc.level_cap:
                    continue
                if x.two == 0 and x.kind.name == "ADAG" and state.zero_occ + 1 > trunc.zero_mode_cap:
                    continue
                out = apply_mode(x, StateVector.basis(BOSON, state), trunc)
                for s2 in out.amp:
                    assert s2.level == state.level + x.index


def _safe(state, ix, iy, trunc, algebra):
    rise = max(Fraction(0), ix, iy, ix + iy)
    if state.level + rise > trunc.level_cap:
        return False
    if algebra.has_zero_modes and state.zero_occ + 2 > trunc.zero_mode_cap:
        return False
    return True


@pytest.mark.parametrize("algebra,trunc,max_two", [
    (BOSON, Truncation(Fraction(4), 3), 8),
    (FERMION, Truncation(Fraction(7, 2)), 7),
    (reduced_boson(Fraction(1, 2)), Truncation(Fraction(4)), 8),
    (REDUCED_FERMION, Truncation(Fraction(7, 2)), 7),
])
def test_canonical_commutation_property(algebra, trunc, max_two):
    # (x.y - (-1)^{p(x)p(y)} y.x) psi = canonical_bracket(x, y) psi on safe states
    modes = []
    for kind in algebra.kinds:
        lo = 1 if kind.half_integer_moded else 0
        for two in range(lo, max_two + 1, 2):
            for t in {two, -two}:
                if kind.name == "RED_ADAG" and t == 0:
                    continue
                modes.append(Mode(kind, t))
    basis = enumerate_basis(algebra, trunc)
    for x in modes:
        for y in modes:
            sign = -1 if (x.parity and y.parity) else 1
            want = canonical_bracket(x, y, algebra)
            for state in basis:
                if not _safe(state, x.index, y.index, trunc, algebra):
                    continue
                v = StateVector.basis(algebra, state)
                lhs = apply_mode(x, apply_mode(y, v, trunc), trunc) \
                    - sign * apply_mode(y, apply_mode(x, v, trunc), trunc)
                assert lhs == want * v, (x, y, state)


def test_truncation_overflow_is_signalled():
    trunc = Truncation(Fraction(2))
    v = StateVector.basis(BOSON, BasisState((a(2),)))
    with pytest.raises(TruncationOverflowError):
        apply_mode(a(1), v, trunc)
    tight = Truncation(Fraction(2), 0)
    with pytest.raises(TruncationOverflowError):
        apply_mode(adag(0), StateVector.vacuum(BOSON), tight)


def test_vacuum_component_examples():
    assert StateVector.vacuum(REDUCED_FERMION).vacuum_component() == 1
    one = StateVector.basis(BOSON, BasisState((adag(1),)))
    assert one.vacuum_component() == 0
    two_modes = BasisState((red_b(H), red_b(Fraction(3, 2))))
    v = Fraction(3, 2) * StateVector.vacuum(REDUCED_FERMION) \
        + (-2) * StateVector.basis(REDUCED_FERMION, two_modes)
    assert v.vacuum_component() == Fraction(3, 2)


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(Fraction(-1))
    with pytest.raises(ValueError):
        Truncation(Fraction(1, 3))
    with pytest.raises(ValueError):
        Truncation(Fraction(2), -1)


def test_state_vector_arithmetic():
    s1 = StateVector.basis(FERMION, BasisState((b(H),)))
    s2 = StateVector.basis(FERMION, BasisState((bdag(H),)))
    v = 2 * s1 + s2 - s1
    assert v.amp == {BasisState((b(H),)): 1, BasisState((bdag(H),)): 1}
    assert (s1 - s1).is_zero()
    assert str(StateVector.vacuum(FERMION)) == "1·|0⟩"
    assert str(BasisState((b(H), bdag(Fraction(3, 2))))) == "b[1/2]b†[3/2]|0⟩"


def _canonical(factors, algebra):
    """Product of creators on |0>, as (BasisState, sign) or None when it vanishes:
    a†[0] factors become the zero occupancy, the rest is bubble sorted into
    canonical order with -1 per swap of two odd modes."""
    z = sum(1 for f in factors if f.kind.name == "ADAG" and f.two == 0)
    rest = [f for f in factors if not (f.kind.name == "ADAG" and f.two == 0)]
    sign = 1
    for end in range(len(rest) - 1, 0, -1):
        for k in range(end):
            if rest[k].sort_key > rest[k + 1].sort_key:
                rest[k], rest[k + 1] = rest[k + 1], rest[k]
                sign *= -1 if rest[k].parity and rest[k + 1].parity else 1
    if any(p.parity and p == q for p, q in zip(rest, rest[1:])):
        return None  # a repeated odd creator
    return BasisState(tuple(rest), z), sign


def _reference_action(algebra, x, state):
    """x|state> in Fractions, independent of the engine: a creator joins the
    product, an annihilator is commuted through it with canonical_bracket."""
    factors = list(state.creators) + [adag(0)] * state.zero_occ
    terms = []
    if is_creator(x):
        terms.append(([x] + factors, Fraction(1)))
    else:
        sign = 1
        for k, c in enumerate(factors):
            val = canonical_bracket(x, c, algebra)
            if val:
                terms.append((factors[:k] + factors[k + 1:], sign * val))
            if x.parity and c.parity:
                sign = -sign
    out = {}
    for product, q in terms:
        canon = _canonical(product, algebra)
        if canon:
            image, sign = canon
            out[image] = out.get(image, 0) + sign * q
    return {s: q for s, q in out.items() if q}


_ALGEBRAS = st.one_of(
    st.sampled_from([BOSON, FERMION, REDUCED_FERMION, BOSONIZED_FERMION]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool).map(reduced_boson))


@settings(max_examples=300, deadline=None)
@given(_ALGEBRAS, st.integers(0, 7), st.integers(0, 3), st.data())
@example(BOSON, 4, 3, None)
@example(FERMION, 5, 0, None)
def test_mode_table_rows_match_fraction_reference(algebra, two_cap, zmax, data):
    trunc = Truncation(Fraction(two_cap, 2), zmax)
    basis = enumerate_basis(algebra, trunc)
    if data is None:  # the a[0]/a†[0] tower, and a fermion insertion crossing odd modes
        cases = ([(s, m) for s in basis for m in (a(0), adag(0))] if algebra is BOSON else
                 [(s, bdag(H)) for s in basis] + [(s, b(Fraction(3, 2))) for s in basis])
    else:
        kind = data.draw(st.sampled_from(algebra.kinds))
        odd = 1 if kind.half_integer_moded else 0
        two = data.draw(st.integers(-5, 5).map(lambda k: 2 * k + odd)
                        .filter(lambda t: t or kind.name != "RED_ADAG"))
        cases = [(data.draw(st.sampled_from(basis)), Mode(kind, two))]
    for state, x in cases:
        table = _apply_to_basis(algebra, x, trunc)
        i = basis.index(state)
        want = _reference_action(algebra, x, state)
        if any(s.two_level > 2 * trunc.level_cap or s.zero_occ > zmax for s in want):
            for _ in range(2):  # raises on every request; never kept as an empty row
                with pytest.raises(TruncationOverflowError):
                    table.row(i)
            assert table.rows[i] is None
            continue
        row = table.row(i)
        assert len({j for j, _ in row}) == len(row) and all(w for _, w in row)
        assert {basis[j]: Fraction(w, table.den) for j, w in row} == want, (x, state)
