"""Normal-ordered operator families and their exact truncated action.

An OperatorSpec is a sum of bilinear mode families, a linear part and a
constant.  Each bilinear family stands for

    sum over r of (alpha + beta*r) :X[m-r] Y[r]:

with the coefficient affine in the summation index r; that is general enough
for every generator built here.  Normal ordering :X Y: moves annihilating
modes (negative index, and the boson zero mode a[0]) to the right, with a
-1 for each transposition of two odd modes.  Realized terms whose modes do
not exist in the algebra (the reduced boson has no zero mode) are skipped;
the skip is decided when the symbolic kernel is expanded, which is the only
point where individual terms exist at all.

Truncated application realizes the kernel over the window |r| <= level_cap
+ |m|.  Any term acting nontrivially inside the truncation has either its
annihilating factor bounded by the state level (|r| <= level_cap, possibly
through the swap X <-> Y) or both factors creating (|r| < |m|), so the
window provably contains every contribution; widening it can only add terms
that act as zero.

On one truncation an operator is a row table keyed by state id (the
position of a state in fock.enumerate_basis): row i lists (j, n) with
op|basis[i]> = sum of (n/den)|basis[j]>.  The common denominator den is
fixed by the operator before any row exists: the lcm of each realized
kernel coefficient's denominator times the square of the algebra's bracket
denominator (two contractions), of each linear coefficient's times that
denominator, and of the constant's.  The kernel's mode pairs form a skeleton
of fock mode tables shared by every operator with the same kinds, label and
width; it keeps per state id the terms that act on that state, a row build
visits only those, and its realized 2r fix the kernel's share of den in O(1).
A table keeps only the integers of its coefficients: row builds and a
Commutator (the graded commutator's row table over den_a·den_b) add and
multiply integers by state id.

A Commutator evaluates graded commutators on basis states restricted to
the safe window

    level + max(0, m, n, m+n) <= level_cap      (labels m, n of the pair)
    zero_occ + 2 <= zero_mode_cap               (zero-moded algebras only)

inside which the level grading guarantees the truncated evaluation equals
the untruncated one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    BOSON,
    FERMION,
    FieldKind,
    Mode,
    ONE,
    REDUCED_FERMION,
    VirfockError,
    ZERO,
    a,
    adag,
    is_creator,
    format_rational,
    paired_bracket,
    reduced_boson,
    require_members,
)
from .fock import (
    IdRows,
    Truncation,
    TruncationOverflowError,
    accumulate,
    doubled_levels,
    enumerate_basis,
)
from .fock import _apply_to_basis as mode_table


class UnsafeLevelError(VirfockError):
    """A commutator probe state violates the safe-window rule."""


class BilinearTerm(NamedTuple):
    """sum_r (alpha + beta*r) :left[m-r] right[r]: with m the total index."""

    left: FieldKind
    right: FieldKind
    m: int
    alpha: Fraction
    beta: Fraction


def _norm_linear(items) -> tuple:
    acc = {}
    pairs = items.items() if isinstance(items, dict) else items
    for mode, c in pairs:
        c = Fraction(c)
        if not c:
            continue
        acc[mode] = acc.get(mode, ZERO) + c
    return tuple(sorted(((m, c) for m, c in acc.items() if c),
                        key=lambda mc: mc[0].sort_key))


@dataclass(frozen=True)
class OperatorSpec:
    """A normal-ordered operator expression over one algebra.

    shift is the level the operator adds to any homogeneous state (the
    generator label m); parity is the Z2 grading controlling commutator
    versus anticommutator.  Scalars compare and hash as integer pairs.
    """

    algebra: Algebra
    shift: Fraction
    bilinears: tuple = ()
    linear: tuple = ()
    constant: Fraction = ZERO
    parity: int = 0
    _hash = None  # set in the instance dict by the first __hash__; cached_property would lock

    def _key(self) -> tuple:
        return (self.algebra, self.shift.as_integer_ratio(), self.constant.as_integer_ratio(), self.parity,
                tuple([(t.left, t.right, t.m, t.alpha.as_integer_ratio(), t.beta.as_integer_ratio())
                       for t in self.bilinears]), tuple([(x, c.as_integer_ratio()) for x, c in self.linear]))

    def __hash__(self):
        if self._hash is None:
            self.__dict__["_hash"] = hash(self._key())
        return self._hash

    def __eq__(self, other):
        return self is other or (type(other) is OperatorSpec and self._key() == other._key())

    @cached_property
    def checked_linear(self) -> tuple:
        """The linear terms, checked against the algebra once; a foreign mode raises every time."""
        require_members((mode for mode, _ in self.linear), self.algebra)
        return self.linear

    @cached_property
    def linear_by_two(self) -> dict:
        """The checked linear terms grouped by doubled index: {two: [(mode, c), ...]}."""
        out = {}
        for mode, c in self.checked_linear:
            out.setdefault(mode.two, []).append((mode, c))
        return out

    @property
    def is_linear(self) -> bool:
        return not self.bilinears

    @property
    def is_constant_only(self) -> bool:
        return not self.bilinears and not self.linear

    def __add__(self, other: "OperatorSpec") -> "OperatorSpec":
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("cannot add operators over different algebras")
        if self.is_constant_only:
            shift, parity = other.shift, other.parity
        elif other.is_constant_only:
            shift, parity = self.shift, self.parity
        else:
            if self.shift != other.shift:
                raise ValueError("adding operators of different level shift breaks homogeneity")
            if self.parity != other.parity:
                raise ValueError("adding operators of different parity")
            shift, parity = self.shift, self.parity
        bil = {}
        for t in self.bilinears + other.bilinears:
            key = (t.left, t.right, t.m)
            prev = bil.get(key)
            bil[key] = (prev[0] + t.alpha, prev[1] + t.beta) if prev else (t.alpha, t.beta)
        bilinears = tuple(BilinearTerm(l, r, m, al, be)
                          for (l, r, m), (al, be) in sorted(bil.items(),
                                                            key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2]))
                          if al or be)
        return OperatorSpec(self.algebra, shift, bilinears,
                            _norm_linear(self.linear + other.linear),
                            self.constant + other.constant, parity)

    def __rmul__(self, scalar) -> "OperatorSpec":
        scalar = Fraction(scalar)
        if not scalar:
            return OperatorSpec(self.algebra, self.shift, (), (), ZERO, self.parity)
        return OperatorSpec(
            self.algebra, self.shift,
            tuple(BilinearTerm(t.left, t.right, t.m, scalar * t.alpha, scalar * t.beta)
                  for t in self.bilinears),
            tuple((m, scalar * c) for m, c in self.linear),
            scalar * self.constant, self.parity)

    def __str__(self):
        bits = []
        for t in self.bilinears:
            bits.append(f"sum_r ({format_rational(t.alpha)} + {format_rational(t.beta)}r) "
                        f":{t.left.symbol}[{t.m}-r]{t.right.symbol}[r]:")
        for mode, c in self.linear:
            bits.append(f"{format_rational(c)}·{mode}")
        if self.constant or not bits:
            bits.append(format_rational(self.constant))
        return " + ".join(bits).replace("+ -", "- ")


def linear_operator(algebra: Algebra, mapping, constant=0, shift=None, parity=None) -> OperatorSpec:
    """Build a linear expression c_x * x + constant as an OperatorSpec.

    Modes must carry one parity (homogeneity invariant).  The level shift is
    inferred when all modes sit at one level.
    """
    linear = _norm_linear(mapping)
    parities = {m.parity for m, _ in linear}
    if len(parities) > 1:
        raise ValueError("linear expression mixes parities; homogeneous parity required")
    if parity is None:
        parity = parities.pop() if parities else 0
    if shift is None:
        levels = {m.index for m, _ in linear}
        if len(levels) > 1:
            raise ValueError("cannot infer the level shift of an inhomogeneous expression")
        shift = levels.pop() if levels else ZERO
    require_members((mode for mode, _ in linear), algebra)
    return OperatorSpec(algebra, Fraction(shift), (), linear, Fraction(constant), parity)


@lru_cache(maxsize=None)
def mode_operator(algebra: Algebra, x: Mode) -> OperatorSpec:
    """The expression 1·x, one instance per mode: caches keyed by it match by identity."""
    return linear_operator(algebra, {x: 1})


def build_chi_boson(m: int, M) -> OperatorSpec:
    """Constraint a†[m] - M*m*a[m]."""
    M = Fraction(M)
    return linear_operator(BOSON, {adag(m): 1, a(m): -M * m}, shift=m, parity=0)


def build_chi_bar0() -> OperatorSpec:
    """The extra zero-mode constraint a[0], which makes the boson family fully second class."""
    return linear_operator(BOSON, {a(0): 1}, shift=0, parity=0)


def build_K(m: int) -> OperatorSpec:
    """sum_r r :a†[m-r] a[r]: over the unconstrained boson algebra."""
    term = BilinearTerm(FieldKind.ADAG, FieldKind.A, int(m), ZERO, Fraction(1))
    return OperatorSpec(BOSON, Fraction(m), (term,))


@lru_cache(maxsize=None)
def _reduced_boson_kernel(M: Fraction) -> tuple:
    return reduced_boson(M), Fraction(M.denominator, M.numerator)  # the algebra and 1/M; raises for M = 0


# Builders form each coefficient once from integer numerators and denominators,
# shift m an int, in normalized form: linear terms sorted, zero ones dropped.
def _boson_L(m: int, M: Fraction, lam: Fraction) -> OperatorSpec:
    # K[m] + lam*(m+1)*(a†[m] + M*m*a[m])
    term = BilinearTerm(FieldKind.ADAG, FieldKind.A, m, ZERO, ONE)
    s, q = lam.numerator * (m + 1), lam.denominator
    sMm = s * M.numerator * m
    lin = ((Mode(FieldKind.A, 2 * m), Fraction(sMm, q * M.denominator)),) if sMm else ()
    lin += ((Mode(FieldKind.ADAG, 2 * m), Fraction(s, q)),) if s else ()
    return OperatorSpec(BOSON, m, (term,), lin)


def _reduced_boson_L(m: int, M: Fraction, lam: Fraction) -> OperatorSpec:
    # sum_r (1/M) :a†[m-r]a†[r]: + 2*lam*(m+1)*a†[m], every a†[0] factor skipped
    algebra, inverse = _reduced_boson_kernel(M)
    term = BilinearTerm(FieldKind.RED_ADAG, FieldKind.RED_ADAG, m, inverse, ZERO)
    c = 2 * lam.numerator * (m + 1)
    lin = ((Mode(FieldKind.RED_ADAG, 2 * m), Fraction(c, lam.denominator)),) if m and c else ()
    return OperatorSpec(algebra, m, (term,), lin)


def _fermion_L(m: int, M: Fraction, lam: Fraction) -> OperatorSpec:
    # -sum_r (-lam*m + r) :b†[m-r] b[r]:
    p, q = lam.numerator, lam.denominator
    term = BilinearTerm(FieldKind.BDAG, FieldKind.B, m, Fraction(p * m, q), -1)
    # Zero-mode normal-ordering constant.  On the half-odd-integer mode
    # lattice the kernel's subtraction point sits at r = 0, not at the
    # weight-lam Fourier origin, so L_0 must carry -(1-2*lam)^2/8 for the
    # commutator anomaly to close on the (m^3 - m) shape (it vanishes at
    # lam = 1/2, where the lattice and the weight agree).
    const = Fraction(-(q - 2 * p) ** 2, 8 * q * q) if m == 0 else ZERO
    return OperatorSpec(FERMION, m, (term,), (), const)


def _reduced_fermion_L(m: int, M: Fraction, lam: Fraction) -> OperatorSpec:
    # -sum_r (-m/2 + r) :b[m-r] b[r]:
    term = BilinearTerm(FieldKind.RED_B, FieldKind.RED_B, m, Fraction(m, 2), -1)
    return OperatorSpec(REDUCED_FERMION, m, (term,))


def _fermion_truncation(level: int, zmax: int) -> Truncation:
    return Truncation(Fraction(2 * level - 1, 2), 0)


class PrimaryLaws(NamedTuple):
    """[G_m, x[n]] = coefficient(m, n, lam) x[m+n] for each listed mode kind x."""

    generator: Callable  # (m, M, lam) -> G_m
    modes: tuple  # ((kind, coefficient), ...)


class GeneratorFamily(NamedTuple):
    """Everything that differs between the four Virasoro generator families."""

    algebra: Callable  # M -> Algebra
    build: Callable  # (m, M, lam) -> L_m, arguments already exact
    central_charge: Callable  # (M, lam) -> the closed-form c claimed for it
    truncation: Callable  # (level, zmax) -> default Truncation
    primary_laws: PrimaryLaws | None = None
    # (m, M, lam) -> the anomaly of [L_m, a†[-m]] in the Christoffel law
    # [L_m, a†[n]] = n a†[m+n] + anomaly delta(m+n), checked on the reduced
    # module and through the Dirac bracket of the unconstrained boson
    christoffel_anomaly: Callable | None = None


FAMILIES = {
    "boson-unconstrained": GeneratorFamily(
        lambda M: BOSON, _boson_L,
        lambda M, lam: 2 - 24 * M * lam * lam,
        lambda level, zmax: Truncation(Fraction(level), zmax),
        # lambda and M enter only through the linear part, which commutes
        # with the modes up to scalars, so the laws are stated for K_m
        PrimaryLaws(lambda m, M, lam: build_K(m),
                    ((FieldKind.A, lambda m, n, lam: m + n),
                     (FieldKind.ADAG, lambda m, n, lam: n)))),
    "boson-reduced": GeneratorFamily(
        reduced_boson, _reduced_boson_L,
        lambda M, lam: 1 - 24 * M * lam * lam,
        lambda level, zmax: Truncation(Fraction(level), 0),
        christoffel_anomaly=lambda m, M, lam: -M * lam * m * (m + 1)),
    "fermion-unconstrained": GeneratorFamily(
        lambda M: FERMION, _fermion_L,
        lambda M, lam: -2 * (1 - 6 * lam + 6 * lam * lam),
        _fermion_truncation,
        PrimaryLaws(_fermion_L,
                    ((FieldKind.B, lambda m, r, lam: (1 - lam) * m + r),
                     (FieldKind.BDAG, lambda m, r, lam: lam * m + r)))),
    "fermion-reduced": GeneratorFamily(
        lambda M: REDUCED_FERMION, _reduced_fermion_L,
        lambda M, lam: Fraction(1, 2),
        _fermion_truncation),
}


def generator_family(family: str) -> GeneratorFamily:
    if family not in FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    return FAMILIES[family]


def build_L(family: str, m: int, M=0, lam=0) -> OperatorSpec:
    """The Virasoro generator labelled m of one of the four families; a
    Fraction M or lam is used as it is."""
    M, lam = (q if isinstance(q, Fraction) else Fraction(q) for q in (M, lam))
    return generator_family(family).build(int(m), M, lam)


def _kernel_modes(left: FieldKind, right: FieldKind, m: int, two_r: int):
    """(X[m-r], Y[r]) of one kernel term, or None when either names a mode
    that does not exist (the reduced boson has no zero mode)."""
    x, y = Mode(left, 2 * m - two_r), Mode(right, two_r)
    if any(v.kind is FieldKind.RED_ADAG and v.two == 0 for v in (x, y)):
        return None
    return x, y


class Skeleton(dict):
    """The realized terms of one kernel (see _skeleton).  skeleton[i], computed
    once per state id, keeps the terms whose first factor acts on basis[i] or
    raises there: every other term sends that state to zero."""

    def __init__(self, terms: tuple):
        super().__init__()
        self.terms = terms
        self.first = terms[0][0] if terms else 0
        self.step = math.gcd(*(t[0] - self.first for t in terms))  # each realized 2r is first + k·step

    def __missing__(self, i: int) -> tuple:
        acting = self[i] = tuple(t for t in self.terms if _acts(t[2], i))
        return acting


def _acts(table, i: int) -> bool:
    try:
        return bool(table.row(i))
    except TruncationOverflowError:
        return True


@lru_cache(maxsize=None)
def _skeleton(algebra: Algebra, trunc: Truncation, left: FieldKind, right: FieldKind,
              m: int, width: Fraction) -> Skeleton:
    """The coefficient-free expansion of sum_r :left[m-r] right[r]: over
    |r| <= width, on one truncation.

    Its terms are one (2r, sign, first, second) per realized term, where first
    and second are the mode tables of the factor applied first and second and
    sign is the normal-ordering sign.  Shared by every operator with the same
    kinds, label and width, whatever its coefficients.
    """
    for kind in (left, right):
        if kind not in algebra.kinds:
            raise AlgebraMismatchError(f"mode kind {kind.symbol} does not belong to {algebra}")
    out = []
    odd_bit = 1 if left.half_integer_moded else 0
    two_w = math.floor(2 * width)
    for two_r in range(-two_w, two_w + 1):
        modes = (two_r & 1) == odd_bit and _kernel_modes(left, right, m, two_r)
        if not modes:
            continue
        x, y = modes
        if not is_creator(x) and is_creator(y):
            sign = -1 if (x.parity and y.parity) else 1
            out.append((two_r, sign, mode_table(algebra, x, trunc), mode_table(algebra, y, trunc)))
        else:
            out.append((two_r, 1, mode_table(algebra, y, trunc), mode_table(algebra, x, trunc)))
    return Skeleton(tuple(out))


def _common_denominator(op: OperatorSpec, kernel_denominators) -> int:
    """A denominator den with den·amplitude an integer for every amplitude
    the operator can produce from a basis state.

    A bilinear term applies two modes and a linear term one, each mode
    contributing at most one bracket value, an integer over the algebra's
    bracket denominator; the constant contributes none.
    kernel_denominators are those of the nonzero realized kernel coefficients.
    """
    bd = op.algebra.bracket_denominator
    return math.lcm(*(q * bd * bd for q in kernel_denominators),
                    *(c.denominator * bd for _, c in op.linear),
                    op.constant.denominator)


def _integer(q: Fraction, scale: int, divisor: int, what: str) -> int:
    """q·scale/divisor, which must be an integer, computed in integers."""
    n, rem = divmod(q.numerator * scale, q.denominator * divisor)
    if rem:
        raise ArithmeticError(f"{what} {q}·{scale}/{divisor} is not an integer")
    return n


class RowTable(IdRows):
    """An operator on one truncation, as integer rows by state id.

    Rows are built on demand and kept in a dict, since most tables are
    asked for few rows.  The mode tables are resolved when the table is
    made, so a row build only indexes lists and adds and multiplies
    integers.  Each bilinear term is held as its shared skeleton and the
    integers (a, b, d) with kernel coefficient·den/bd² = (a + b·2r)/d at
    each realized r, bd being the algebra's bracket denominator; a scaled
    coefficient that is not an integer raises ArithmeticError.
    """

    __slots__ = ("op", "terms", "linear", "constant")

    def __init__(self, op: OperatorSpec, trunc: Truncation, width: Fraction):
        algebra = op.algebra
        # each kernel coefficient alpha + beta r as (a + b·2r) / d in integers
        kernels = []
        for t in op.bilinears:
            d = 2 * math.lcm(t.alpha.denominator, t.beta.denominator)
            kernels.append((_skeleton(algebra, trunc, t.left, t.right, t.m, width),
                            t.alpha.numerator * (d // t.alpha.denominator),
                            t.beta.numerator * (d // 2 // t.beta.denominator), d))
        # the lcm of nonzero (a + b·2r)/d's denominators is d/gcd(d, g), g = gcd(a + b·2r over r)
        den = _common_denominator(op, [d // math.gcd(g, d) for sk, a, b, d in kernels if sk.terms
                                       and (g := math.gcd(a + b * sk.first, b * sk.step))])
        super().__init__(algebra, trunc, den)
        bd = algebra.bracket_denominator
        self.op = op
        self.terms = tuple((sk, a * den, b * den, d * bd * bd) for sk, a, b, d in kernels)
        self.linear = tuple((mode_table(algebra, mode, trunc), _integer(c, den, bd, "coefficient"))
                            for mode, c in op.linear)
        self.constant = _integer(op.constant, den, 1, "constant")
        self.rows = {}

    def row(self, i: int) -> tuple:
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = self._build(i)
        return row

    def _build(self, i: int) -> tuple:
        acc = {}
        for skeleton, a, b, d in self.terms:
            for two_r, sign, first, second in skeleton[i]:
                c, rem = divmod(a + b * two_r, d)
                if rem:
                    raise ArithmeticError(
                        f"kernel coefficient of {self.op} at 2r={two_r} is not a multiple "
                        f"of 1/{self.den} over the bracket denominator squared")
                if c:
                    c *= sign
                    for mid, w in first.row(i):
                        accumulate(acc, second.row(mid), c * w)
        for table, c in self.linear:
            accumulate(acc, table.row(i), c)
        if self.constant:
            accumulate(acc, ((i, self.constant),))
        return tuple(acc.items())


def _doubled(q) -> int:  # twice a half-integer, as an int
    return 2 * q.numerator // q.denominator


@lru_cache(maxsize=None)
def _apply_to_basis(op: OperatorSpec, trunc: Truncation, width) -> RowTable:
    """The row table of an operator at one kernel half-width (None: level_cap + |m|)."""
    if width is None:  # an int when whole, which hashes cheaply and equals its Fraction
        two = _doubled(trunc.level_cap) + abs(_doubled(op.shift))
        width = two // 2 if two % 2 == 0 else Fraction(two, 2)
    return RowTable(op, trunc, width)


def row_table(op: OperatorSpec, trunc: Truncation, window=None) -> RowTable:
    """The row table of an operator; window overrides the kernel half-width
    (default level_cap + |m|, which provably contains every contributing term)."""
    return _apply_to_basis(op, trunc, None if window is None else Fraction(window))


@lru_cache(maxsize=None)
def _safe_test(algebra: Algebra, trunc: Truncation, two_rise: int, zero_uses: int):
    """Safe-window rule for a composite of operators, as a predicate on state ids.

    For a pair (m, n) the partial shifts are {0, m, n, m+n}, and two_rise is
    twice the largest of them and 0; a state is safe when its level plus
    that rise stays within the cap (and the zero-mode occupancy leaves room
    for `zero_uses` more quanta on zero-moded algebras).  Inside this window
    a truncated commutator equals the untruncated one exactly, because the
    algebra is level graded.  Levels are compared doubled, as integers, by
    state id.
    """
    top = _doubled(trunc.level_cap) - two_rise
    zmax = trunc.zero_mode_cap - zero_uses if algebra.has_zero_modes else math.inf
    levels, basis = doubled_levels(algebra, trunc), enumerate_basis(algebra, trunc)
    return lambda i: levels[i] <= top and basis[i].zero_occ <= zmax


def pair_shifts(op_a: OperatorSpec, op_b: OperatorSpec):
    return (op_a.shift, op_b.shift, op_a.shift + op_b.shift)


@lru_cache(maxsize=None)
def _safe_ids(algebra: Algebra, trunc: Truncation, two_rise: int, zero_uses: int) -> tuple:
    is_safe = _safe_test(algebra, trunc, two_rise, zero_uses)
    return tuple(filter(is_safe, range(len(enumerate_basis(algebra, trunc)))))


def safe_ids(algebra: Algebra, trunc: Truncation, shifts, zero_uses: int = 2) -> tuple:
    """The state ids of the safe window of the given level shifts, in
    increasing order; computed once per (algebra, truncation, rise, zero_uses)."""
    return _safe_ids(algebra, trunc, max(0, *map(_doubled, shifts)), zero_uses)


class Commutator(IdRows):
    """The graded commutator [A, B} on one truncation, as integer rows by state id.

    den is den_a·den_b.  Both row tables are fetched when the table is made,
    and it shares A's basis and index; each row composes their integer rows
    and is not kept.  A row outside the safe-window rule raises
    UnsafeLevelError; the caller must shrink its probe set, never ignore the
    signal.
    """

    __slots__ = ("a", "b", "sign", "is_safe")

    def __init__(self, op_a: OperatorSpec, op_b: OperatorSpec, trunc: Truncation):
        if op_a.algebra != op_b.algebra:
            raise AlgebraMismatchError("commutator of operators over different algebras")
        ta, tb = self.a, self.b = row_table(op_a, trunc), row_table(op_b, trunc)
        self.algebra, self.trunc, self.basis, self.index = ta.algebra, trunc, ta.basis, ta.index
        self.den, self.sign = ta.den * tb.den, 1 if op_a.parity and op_b.parity else -1
        self.is_safe = _safe_test(op_a.algebra, trunc, max(0, *map(_doubled, pair_shifts(op_a, op_b))), 2)

    def row(self, i: int) -> tuple:
        if not self.is_safe(i):
            state = self.basis[i]
            raise UnsafeLevelError(
                f"state {state} (level {state.level}) is outside the safe window for "
                f"shifts ({self.a.op.shift}, {self.b.op.shift}) at level_cap {self.trunc.level_cap}")
        ta, tb = self.a, self.b
        return tuple(accumulate(ta.apply(tb.row(i)), tb.apply(ta.row(i)).items(), self.sign).items())


def linear_bracket(x: OperatorSpec, y: OperatorSpec) -> Fraction:
    """Graded bracket of two linear expressions; a scalar, computed exactly.

    Each expression's modes are checked against the algebra once; each mode
    of y meets only the modes of x at the opposite doubled index.
    """
    if not (x.is_linear and y.is_linear):
        raise ValueError("linear_bracket needs linear expressions on both sides")
    algebra = x.algebra
    if y.algebra != algebra:
        raise AlgebraMismatchError("bracket of expressions over different algebras")
    xs, ys = x.linear_by_two, y.checked_linear
    total = ZERO
    for my, cy in ys:
        for mx, cx in xs.get(-my.two, ()):
            val = paired_bracket(mx, my, algebra)
            if val:
                total += cx * cy * val
    return total


def commutator_with_linear(op: OperatorSpec, lin: OperatorSpec) -> OperatorSpec:
    """Graded commutator [op, lin} of an operator with a linear expression.

    Uses [:XY:, z} = [Y,z} X + (-1)^{p(z)p(Y)} [X,z} Y termwise (the normal
    ordering constant commutes away), so the result is linear and the sum
    over the kernel index has support of at most two points per mode of
    `lin`: the r where Y[r] pairs with z and the r where X[m-r] does.
    Exact; no windowing involved.
    """
    if op.algebra != lin.algebra:
        raise AlgebraMismatchError("commutator of expressions over different algebras")
    if not lin.is_linear:
        raise ValueError("second argument must be a linear expression")
    algebra = op.algebra
    require_members((mode for mode, _ in lin.linear + op.linear), algebra)
    out_linear = []
    out_const = ZERO
    for z, cz in lin.linear:
        for term in op.bilinears:
            for two_r in {-z.two, 2 * term.m + z.two}:
                coeff = term.alpha + term.beta * Fraction(two_r, 2)
                modes = _kernel_modes(term.left, term.right, term.m, two_r)
                if not coeff or modes is None:
                    continue
                x, y = modes
                require_members(modes, algebra)
                if y.two + z.two == 0 and (by := paired_bracket(y, z, algebra)):
                    out_linear.append((x, cz * coeff * by))
                if x.two + z.two == 0 and (bx := paired_bracket(x, z, algebra)):
                    sign = -1 if (z.parity and y.parity) else 1
                    out_linear.append((y, cz * coeff * sign * bx))
        for w, cw in op.linear:
            if w.two + z.two == 0 and (val := paired_bracket(w, z, algebra)):
                out_const += cw * cz * val
    return OperatorSpec(algebra, op.shift + lin.shift, (), _norm_linear(out_linear),
                        out_const, (op.parity + lin.parity) % 2)
