"""Basis enumeration against a brute-force oracle, and exact mode action."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from virfock.algebra import (
    BOSON,
    BOSONIZED_FERMION,
    FERMION,
    Mode,
    REDUCED_FERMION,
    a,
    adag,
    b,
    bdag,
    is_creator,
    reduced_boson,
)
from virfock.fock import (
    BasisState,
    Truncation,
    TruncationOverflowError,
    VACUUM,
    _apply_to_basis,
    accumulate,
    enumerate_basis,
)
from virfock.verify import ScenarioParams, default_truncation
from reference import canonical_bracket, red_b

H = Fraction(1, 2)


def _image(table, i) -> dict:
    """Row i of an id-row table as {basis state: Fraction}."""
    return {table.basis[j]: Fraction(n, table.den) for j, n in table.row(i)}


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
    assert str(BasisState((b(H), bdag(Fraction(3, 2))))) == "b[1/2]b†[3/2]|0⟩"


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


def _fraction_key(state):
    # the canonical order stated with the level as a Fraction sum of mode indices
    return (sum((m.index for m in state.creators), Fraction(0)), state.zero_occ,
            tuple(m.sort_key for m in state.creators))


@pytest.mark.parametrize("family", ["boson-unconstrained", "boson-reduced",
                                    "fermion-unconstrained", "fermion-reduced"])
@pytest.mark.parametrize("level", [None, "benchmark"])
def test_basis_order_equals_a_fraction_keyed_sort(family, level):
    # the default caps, and the benchmark's (level 6 for boson-unconstrained, 8 for the others)
    if level is None:
        params = ScenarioParams(family, 2, H)
    else:
        level = 6 if family == "boson-unconstrained" else 8
        params = ScenarioParams(family, 2, H, default_truncation(family, level))
    states = enumerate_basis(params.algebra, params.trunc)
    assert len(states) == len(set(states))
    assert list(states) == sorted(reversed(states), key=_fraction_key)


_POOL = range(len(enumerate_basis(FERMION, Truncation(Fraction(3, 2)))))


@given(st.lists(st.tuples(st.sampled_from(_POOL), st.fractions(max_denominator=4),
                          st.booleans()), max_size=12),
       st.randoms(use_true_random=False))
def test_accumulate_sums_and_drops_cancelled_amplitudes(entries, rng):
    # each entry flagged True is also added negated, so some ids cancel exactly
    pairs = [(i, q) for i, q, _ in entries] + [(i, -q) for i, q, neg in entries if neg]
    rng.shuffle(pairs)
    naive = {}
    for i, q in pairs:
        naive[i] = naive.get(i, 0) + q
    assert accumulate({}, pairs) == {i: q for i, q in naive.items() if q}
    assert accumulate({}, pairs, 3) == {i: 3 * q for i, q in naive.items() if q}


def test_apply_creator_then_conjugate_annihilator():
    # a†[-2] (a[2] |0>) = [a†[-2], a[2]] |0> = |0>
    trunc = Truncation(Fraction(3))
    up, down = _apply_to_basis(BOSON, a(2), trunc), _apply_to_basis(BOSON, adag(-2), trunc)
    vac = up.state_id(VACUUM)
    assert down.apply(up.row(vac)) == {vac: up.den * down.den}


def test_apply_reduced_fermion_contraction():
    trunc = Truncation(Fraction(2))
    table = _apply_to_basis(REDUCED_FERMION, red_b(-H), trunc)
    assert _image(table, table.state_id(BasisState((red_b(H),)))) == {VACUUM: H}


def test_fermion_nilpotency():
    trunc = Truncation(Fraction(2))
    table = _apply_to_basis(REDUCED_FERMION, red_b(H), trunc)
    assert table.row(table.state_id(BasisState((red_b(H),)))) == ()


def test_annihilators_kill_vacuum():
    trunc = Truncation(Fraction(6), 2)
    modes = [(BOSON, a(0))] + [(BOSON, x(-k)) for k in range(1, 7) for x in (a, adag)]
    modes += [(FERMION, x(Fraction(-two, 2))) for two in range(1, 13, 2) for x in (b, bdag)]
    for algebra, x in modes:
        table = _apply_to_basis(algebra, x, trunc)
        assert table.row(table.state_id(VACUUM)) == (), x


def test_zero_mode_ladder():
    trunc = Truncation(Fraction(2), 3)
    up, down = _apply_to_basis(BOSON, adag(0), trunc), _apply_to_basis(BOSON, a(0), trunc)
    twice = up.apply(up.row(up.state_id(VACUUM)))
    assert twice == {up.state_id(BasisState((), 2)): 1}
    # a[0] (a†[0])^2 |0> = -2 a†[0] |0>
    assert down.apply(twice.items()) == {up.state_id(BasisState((), 1)): -2}


def test_level_bookkeeping():
    # a mode table maps the level-l subspace into level l + index, exactly
    trunc = Truncation(Fraction(6), 2)
    basis = enumerate_basis(BOSON, trunc)
    for two in range(-8, 9, 2):
        for ctor in (a, adag):
            x = ctor(Fraction(two, 2))
            table = _apply_to_basis(BOSON, x, trunc)
            for i, state in enumerate(basis):
                if state.level + x.index > trunc.level_cap:
                    continue
                if x.two == 0 and x.kind.name == "ADAG" and state.zero_occ + 1 > trunc.zero_mode_cap:
                    continue
                for j, _ in table.row(i):
                    assert basis[j].level == state.level + x.index


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
        tx = _apply_to_basis(algebra, x, trunc)
        for y in modes:
            ty = _apply_to_basis(algebra, y, trunc)
            sign = -1 if (x.parity and y.parity) else 1
            want = canonical_bracket(x, y, algebra)
            for i, state in enumerate(basis):
                if not _safe(state, x.index, y.index, trunc, algebra):
                    continue
                lhs = accumulate(tx.apply(ty.row(i)), ty.apply(tx.row(i)).items(), -sign)
                assert ({basis[j]: Fraction(n, tx.den * ty.den) for j, n in lhs.items()}
                        == ({state: want} if want else {})), (x, y, state)


def test_truncation_overflow_is_signalled():
    trunc = Truncation(Fraction(2))
    table = _apply_to_basis(BOSON, a(1), trunc)
    i = table.state_id(BasisState((a(2),)))
    for _ in range(2):  # raises on every request
        with pytest.raises(TruncationOverflowError):
            table.row(i)
    with pytest.raises(TruncationOverflowError):  # a state outside the truncation has no id
        table.state_id(BasisState((a(3),)))
    tight = _apply_to_basis(BOSON, adag(0), Truncation(Fraction(2), 0))
    with pytest.raises(TruncationOverflowError):
        tight.row(tight.state_id(VACUUM))


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(Fraction(-1))
    with pytest.raises(ValueError):
        Truncation(Fraction(1, 3))
    with pytest.raises(ValueError):
        Truncation(Fraction(2), -1)


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
            assert i not in table.rows
            continue
        row = table.row(i)
        assert len({j for j, _ in row}) == len(row) and all(w for _, w in row)
        assert {basis[j]: Fraction(w, table.den) for j, w in row} == want, (x, state)


@pytest.mark.parametrize("algebra", [BOSON, FERMION, REDUCED_FERMION, BOSONIZED_FERMION,
                                     reduced_boson(Fraction(-3, 4))], ids=str)
def test_every_annihilator_row_is_the_paired_brackets(algebra):
    # every entry of every annihilator's table at small caps: the integers each table reads
    # once through paired_numerator against the Fraction reference through paired_bracket
    trunc = Truncation(Fraction(7, 2), 2)
    basis = enumerate_basis(algebra, trunc)
    modes = [Mode(kind, two) for kind in algebra.kinds for two in range(-trunc.two_cap, 1)
             if two % 2 == kind.half_integer_moded and (two or algebra.has_zero_modes)]
    assert any(m.two == 0 for m in modes) == algebra.has_zero_modes
    for x in (m for m in modes if not is_creator(m)):
        table = _apply_to_basis(algebra, x, trunc)
        for i, state in enumerate(basis):
            row = table.row(i)
            assert len({j for j, _ in row}) == len(row) and all(w for _, w in row)
            assert {basis[j]: Fraction(w, table.den) for j, w in row} == _reference_action(algebra, x, state), (x, state)
