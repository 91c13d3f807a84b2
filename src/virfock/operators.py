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
denominator, and of the constant's.  The kernel's realized terms with a
nonzero coefficient are pairs of fock mode tables, resolved when the table
is made, and every coefficient becomes an integer over den there, so row
builds and a Commutator (the graded commutator's row table over
den_a·den_b) only add and multiply integers by state id.  A row build
tries the kernel terms from the state's own creators, not by scanning every
term: a term whose first factor annihilates at doubled index -k can act
only on a state holding a creator at k, and only creating first factors and
a[0] are tried on every state.  The 512 most recently used tables are kept:
a scenario's working set at default flags is 35 to 154 of them, 216 at
`--scenario all --level 4 --mmax 6`, and a sweep's oracle makes tables for
one unit part per slot, once per family and truncation, which hold no M.

The safe window of k operators (safe_ids) is stated once, from the
operators themselves.  Applied in any order they raise a state's level by
at most the sum of their positive shifts, the largest of their partial
sums, and each adds at most one a†[0], so on the states with

    level + sum of max(0, shift) <= level_cap
    zero_occ + k <= zero_mode_cap               (zero-moded algebras only)

no product of them leaves the truncation, and the level grading makes the
truncated evaluation equal the untruncated one exactly.  A Commutator
probes the window of its pair and raises UnsafeLevelError off it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    BOSON,
    FERMION,
    FieldKind,
    Frozen,
    Mode,
    REDUCED_FERMION,
    VirfockError,
    ZERO,
    is_creator,
    format_rational,
    paired_numerator,
    reduced_boson,
    require_members,
)
from .fock import (
    IdRows,
    Truncation,
    _basis,
    accumulate,
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


def linear_sum(terms) -> tuple:
    """The linear part sum of n/d·mode over (mode, n, d) terms, sorted by sort_key: added as
    integers over the lcm of the d's, one Fraction per mode whose sum is nonzero."""
    den, acc = math.lcm(*(d for _, _, d in terms)), {}
    for mode, n, d in terms:
        acc[mode] = acc.get(mode, 0) + n * (den // d)
    return tuple((mode, Fraction(n, den)) for mode, n in sorted(acc.items(), key=lambda mn: mn[0].sort_key) if n)


def _norm_linear(items) -> tuple:
    """The linear part of {mode: c} or (mode, c) pairs: summed, sorted by sort_key, zeros dropped."""
    pairs = items.items() if isinstance(items, dict) else items
    return linear_sum([(mode, *Fraction(c).as_integer_ratio()) for mode, c in pairs])


class OperatorSpec(Frozen):
    """A normal-ordered operator expression over one algebra.

    shift is the level the operator adds to any homogeneous state (the
    generator label m); parity is the Z2 grading controlling commutator
    versus anticommutator.  Scalars compare and hash as integer pairs.
    """

    _fields = ("algebra", "shift", "bilinears", "linear", "constant", "parity")

    def __init__(self, algebra: Algebra, shift: Fraction, bilinears: tuple = (), linear: tuple = (),
                 constant: Fraction = ZERO, parity: int = 0):
        vars(self).update(algebra=algebra, shift=shift, bilinears=bilinears, linear=linear,
                          constant=constant, parity=parity)

    def _make_key(self) -> tuple:
        """The fields with every scalar as an integer pair."""
        return (self.algebra, self.shift.as_integer_ratio(), self.constant.as_integer_ratio(), self.parity,
                tuple([(t.left, t.right, t.m, t.alpha.as_integer_ratio(), t.beta.as_integer_ratio())
                       for t in self.bilinears]), tuple([(x, c.as_integer_ratio()) for x, c in self.linear]))

    @cached_property
    def integer_linear(self) -> tuple:
        """(den, {two: [(mode, n), ...]}): the linear terms as integers n over one den, grouped
        by doubled index.  Checked against the algebra when made, so a foreign mode raises every time."""
        require_members((mode for mode, _ in self.linear), self.algebra)
        den, by_two = math.lcm(*(c.denominator for _, c in self.linear)), {}
        for mode, c in self.linear:
            by_two.setdefault(mode.two, []).append((mode, c.numerator * (den // c.denominator)))
        return den, by_two

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


@lru_cache(maxsize=512)  # keyed through reduced_boson(M); 322 at dirac-checks --window 40
def mode_operator(algebra: Algebra, x: Mode) -> OperatorSpec:
    """The expression 1·x, one instance per mode: caches keyed by it match by identity."""
    return linear_operator(algebra, {x: 1})


# Each family states its L_m once, as integer slots (den, constant, *linear coefficients, alpha,
# beta) over a positive den, M's sign in a numerator: build_L and the sweep oracle both read them.
def _boson_slots(m: int, M: Fraction, lam: Fraction) -> tuple:
    # K[m] + lam*(m+1)*(a†[m] + M*m*a[m])
    s, q, d = lam.numerator * (m + 1), lam.denominator, M.denominator
    return q * d, 0, s * M.numerator * m, s * d, 0, q * d


def _reduced_boson_slots(m: int, M: Fraction, lam: Fraction) -> tuple:
    # sum_r (1/M) :a†[m-r]a†[r]: + 2*lam*(m+1)*a†[m], every a†[0] factor skipped
    n, q = abs(M.numerator), lam.denominator
    c = 2 * lam.numerator * (m + 1) * n if m else 0
    return q * n, 0, c, q * M.denominator * (1 if M.numerator > 0 else -1), 0


def _fermion_slots(m: int, M: Fraction, lam: Fraction) -> tuple:
    # -sum_r (-lam*m + r) :b†[m-r] b[r]:
    p, q = lam.numerator, lam.denominator
    # Zero-mode normal-ordering constant.  On the half-odd-integer mode
    # lattice the kernel's subtraction point sits at r = 0, not at the
    # weight-lam Fourier origin, so L_0 must carry -(1-2*lam)^2/8 for the
    # commutator anomaly to close on the (m^3 - m) shape (it vanishes at
    # lam = 1/2, where the lattice and the weight agree).
    return 8 * q * q, -(q - 2 * p) ** 2 if m == 0 else 0, 8 * q * p * m, -8 * q * q


def _reduced_fermion_slots(m: int, M: Fraction, lam: Fraction) -> tuple:
    # -sum_r (-m/2 + r) :b[m-r] b[r]:
    return 2, 0, m, -2


# The claimed central charges, each formed once from integer numerators and denominators.
def _boson_c(free: int, M: Fraction, lam: Fraction) -> Fraction:
    # free - 24*M*lam^2
    d = M.denominator * lam.denominator ** 2
    return Fraction(free * d - 24 * M.numerator * lam.numerator ** 2, d)


def _fermion_c(M: Fraction, lam: Fraction) -> Fraction:
    # -2*(1 - 6*lam + 6*lam^2)
    p, q = lam.numerator, lam.denominator
    return Fraction(-2 * (q * q - 6 * p * q + 6 * p * p), q * q)


class Law(NamedTuple):
    """[L_m, x[n]] = coefficient(m, n, lam) x[m+n] + anomaly(m, M, lam) delta(m+n) for the family's
    own L_m and the modes x of one kind; a target mode the algebra lacks (the reduced boson has no
    a†[0]) leaves only the anomaly."""

    prefix: str  # of its report names, e.g. "primary[b†," or "christoffel["
    kind: FieldKind
    coefficient: Callable  # (m, n, lam)
    anomaly: Callable | None = None  # (m, M, lam)


class GeneratorFamily(NamedTuple):
    """Everything that differs between the four Virasoro generator families.  L_m is stated
    once: sum_r (alpha + beta*r) :X[m-r] Y[r]: + sum_i c_i kind_i[m] + constant, with
    slots(m, M, lam) = (den, constant, c_1, ..., alpha, beta), ints over a positive den."""

    algebra: Callable  # M -> Algebra
    kernel: tuple  # the kinds (X, Y)
    linear: tuple  # the kinds of the linear terms at index m, in canonical (FieldKind value) order
    slots: Callable  # (m, M, lam) -> the slots of L_m, M and lam already exact and m an int
    central_charge: Callable  # (M, lam) -> the closed-form c claimed for it
    laws: tuple = ()  # the Laws its generators obey on the surviving modes


FAMILIES = {
    "boson-unconstrained": GeneratorFamily(
        lambda M: BOSON, (FieldKind.ADAG, FieldKind.A), (FieldKind.A, FieldKind.ADAG), _boson_slots,
        lambda M, lam: _boson_c(2, M, lam),
        # the linear part lam(m+1)(a†[m] + M m a[m]) brackets the modes to scalars at n = -m
        (Law("primary[a,", FieldKind.A, lambda m, n, lam: m + n, lambda m, M, lam: lam * (m + 1)),
         Law("primary[a†,", FieldKind.ADAG, lambda m, n, lam: n, lambda m, M, lam: -M * lam * m * (m + 1)))),
    "boson-reduced": GeneratorFamily(
        reduced_boson, (FieldKind.RED_ADAG,) * 2, (FieldKind.RED_ADAG,), _reduced_boson_slots,
        lambda M, lam: _boson_c(1, M, lam),
        # the Christoffel law, also checked through the Dirac bracket of the unconstrained boson
        (Law("christoffel[", FieldKind.RED_ADAG, lambda m, n, lam: n, lambda m, M, lam: -M * lam * m * (m + 1)),)),
    "fermion-unconstrained": GeneratorFamily(
        lambda M: FERMION, (FieldKind.BDAG, FieldKind.B), (), _fermion_slots,
        _fermion_c,
        (Law("primary[b,", FieldKind.B, lambda m, r, lam: (1 - lam) * m + r),
         Law("primary[b†,", FieldKind.BDAG, lambda m, r, lam: lam * m + r))),
    "fermion-reduced": GeneratorFamily(
        lambda M: REDUCED_FERMION, (FieldKind.RED_B,) * 2, (), _reduced_fermion_slots,
        lambda M, lam: Fraction(1, 2)),
}


def generator_family(family: str) -> GeneratorFamily:
    if family not in FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    return FAMILIES[family]


def build_L(family: str, m: int, M=0, lam=0) -> OperatorSpec:
    """The Virasoro generator labelled m of one of the four families, read off its slots with
    the zero linear terms dropped; a Fraction M or lam is used as it is."""
    M, lam = (q if isinstance(q, Fraction) else Fraction(q) for q in (M, lam))
    gen, m = generator_family(family), int(m)
    algebra = gen.algebra(M)  # before any slot: the reduced boson raises for M = 0
    den, constant, *coefficients, alpha, beta = gen.slots(m, M, lam)
    linear = tuple((Mode(kind, 2 * m), Fraction(c, den)) for kind, c in zip(gen.linear, coefficients) if c)
    term = BilinearTerm(*gen.kernel, m, Fraction(alpha, den), Fraction(beta, den))
    return OperatorSpec(algebra, m, (term,), linear, Fraction(constant, den))


def _kernel_modes(left: FieldKind, right: FieldKind, m: int, two_r: int):
    """(X[m-r], Y[r]) of one kernel term, or None when either names a mode
    that does not exist (the reduced boson has no zero mode)."""
    x, y = Mode(left, 2 * m - two_r), Mode(right, two_r)
    if any(v.kind is FieldKind.RED_ADAG and v.two == 0 for v in (x, y)):
        return None
    return x, y


def _affine(t: BilinearTerm) -> tuple:
    """(d, a, b): t's coefficient alpha + beta*r as (a + b·2r)/d in integers, d = 2·lcm of their denominators."""
    d = 2 * math.lcm(t.alpha.denominator, t.beta.denominator)
    return d, t.alpha.numerator * (d // t.alpha.denominator), t.beta.numerator * (d // 2 // t.beta.denominator)


def _expand(algebra: Algebra, trunc: Truncation, t: BilinearTerm, width: Fraction) -> tuple:
    """(d, terms): the realized terms of t over |r| <= width, on one
    truncation, whose coefficient is nonzero.

    terms holds one (2r, n, first, second) per term, where first and second
    are the mode tables of the factor applied first and second, and n/d is
    the coefficient alpha + beta*r with the normal-ordering sign, n = ±(a +
    b·2r) over d (_affine).
    """
    for kind in (t.left, t.right):
        if kind not in algebra.kinds:
            raise AlgebraMismatchError(f"mode kind {kind.symbol} does not belong to {algebra}")
    d, a, b = _affine(t)
    odd_bit = 1 if t.left.half_integer_moded else 0
    two_w = math.floor(2 * width)
    terms = []
    for two_r in range(-two_w, two_w + 1):
        n = a + b * two_r
        modes = n and (two_r & 1) == odd_bit and _kernel_modes(t.left, t.right, t.m, two_r)
        if not modes:
            continue
        x, y = modes  # the term is x·y, y applied first, unless normal order swaps them
        if not is_creator(x) and is_creator(y):
            n, x, y = -n if x.parity and y.parity else n, y, x
        terms.append((two_r, n, mode_table(algebra, y, trunc), mode_table(algebra, x, trunc)))
    return d, terms


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


def _integer(n: int, d: int, scale: int, divisor: int, what: str) -> int:
    """(n/d)·scale/divisor, which must be an integer, computed in integers."""
    c, rem = divmod(n * scale, d * divisor)
    if rem:
        raise ArithmeticError(f"{what} {Fraction(n, d)}·{scale}/{divisor} is not an integer")
    return c


class RowTable(IdRows):
    """An operator on one truncation, as integer rows by state id.

    When the table is made, every amplitude becomes an integer over den:
    each kernel term of _expand its coefficient·den/bd², bd being the
    algebra's bracket denominator, each linear coefficient ·den/bd and the
    constant ·den; one that is not an integer raises ArithmeticError.  The
    kernel terms are split there too: by_two lists those whose first factor
    annihilates at a doubled index two < 0 under two (it contracts only a
    creator at -two and never overflows), always lists the others.  A row
    build tries always, then by_two under -two of each creator at two of
    the state, so its entries come in that order: every reader takes a row
    as a dict.
    """

    __slots__ = ("op", "always", "by_two", "linear", "constant")

    def __init__(self, op: OperatorSpec, trunc: Truncation, width: Fraction):
        algebra = op.algebra
        kernels = [_expand(algebra, trunc, t, width) for t in op.bilinears]
        # the lcm of the nonzero n/d's denominators is d/gcd(d, n over the terms)
        den = _common_denominator(op, [d // math.gcd(d, *[n for _, n, _, _ in terms])
                                       for d, terms in kernels if terms])
        super().__init__(algebra, trunc, den)
        bd = algebra.bracket_denominator
        self.op, self.always, self.by_two = op, [], {}
        for d, terms in kernels:
            for _, n, first, second in terms:
                two = first.mode.two
                (self.by_two.setdefault(two, []) if two < 0 else self.always).append(
                    (_integer(n, d, den, bd * bd, "kernel coefficient"), first, second))
        self.linear = tuple((mode_table(algebra, mode, trunc), _integer(*c.as_integer_ratio(), den, bd, "coefficient"))
                            for mode, c in op.linear)
        self.constant = _integer(*op.constant.as_integer_ratio(), den, 1, "constant")

    def _build(self, i: int) -> tuple:
        acc = {}
        twos = {c.two for c in self.basis[i].creators}
        for terms in (self.always, *[self.by_two.get(-two, ()) for two in twos]):
            for c, first, second in terms:
                for mid, w in first.row(i):
                    accumulate(acc, second.row(mid), c * w)
        for table, c in self.linear:
            accumulate(acc, table.row(i), c)
        if self.constant:
            accumulate(acc, ((i, self.constant),))
        return tuple(acc.items())


def _doubled(q) -> int:  # twice a half-integer, as an int
    return 2 * q.numerator // q.denominator


@lru_cache(maxsize=512)
def _apply_to_basis(op: OperatorSpec, trunc: Truncation, width) -> RowTable:
    """The row table of an operator at one kernel half-width (None: level_cap + |m|).

    The bound holds one scenario's working set, so no family run rebuilds a
    table: at default flags 45 tables for boson-unconstrained, 39 for
    boson-reduced, 35 for either fermion and 154 for `--scenario all`; 216 at
    `--scenario all --level 4 --mmax 6`.  A sweep point makes none once the
    oracle has built its family's form, which holds no M.
    """
    if width is None:
        width = Fraction(trunc.two_cap + abs(_doubled(op.shift)), 2)
    return RowTable(op, trunc, width)


def row_table(op: OperatorSpec, trunc: Truncation, window=None) -> RowTable:
    """The row table of an operator; window overrides the kernel half-width
    (default level_cap + |m|, which provably contains every contributing term)."""
    return _apply_to_basis(op, trunc, None if window is None else Fraction(window))


@lru_cache(maxsize=None)
def _safe_window(kinds: tuple, has_zero_modes: bool, trunc: Truncation, two_rise: int, uses: int):
    """(ids, is_safe): the safe state ids in increasing order and membership
    of them, for a doubled level rise and a number of a†[0] uses.  Keyed by
    what the rule reads, so the reduced boson algebras of every M share it."""
    top = trunc.two_cap - two_rise
    zmax = trunc.zero_mode_cap - uses if has_zero_modes else math.inf
    basis, _, levels = _basis(kinds, has_zero_modes, trunc)
    ids = tuple(i for i, s in enumerate(basis) if levels[i] <= top and s.zero_occ <= zmax)
    return ids, frozenset(ids).__contains__


def _window(trunc: Truncation, ops) -> tuple:
    algebra = ops[0].algebra
    return _safe_window(algebra.kinds, algebra.has_zero_modes, trunc,
                        sum(max(0, _doubled(op.shift)) for op in ops), len(ops))


def safe_ids(trunc: Truncation, *ops: OperatorSpec) -> tuple:
    """The ids of the states on which any product of the operators stays
    inside the truncation (the safe window of the module docstring)."""
    return _window(trunc, ops)[0]


class Commutator(IdRows):
    """The graded commutator [A, B} on one truncation, as integer rows by state id.

    den is den_a·den_b.  Both row tables are fetched when the table is made,
    and it shares A's basis and index; each row composes their integer rows
    and is not kept.  probes are the pair's safe ids (safe_ids); a row off
    them raises UnsafeLevelError, and the caller must shrink its probe set,
    never ignore the signal.
    """

    __slots__ = ("a", "b", "sign", "probes", "is_safe")

    def __init__(self, op_a: OperatorSpec, op_b: OperatorSpec, trunc: Truncation):
        if op_a.algebra != op_b.algebra:
            raise AlgebraMismatchError("commutator of operators over different algebras")
        ta, tb = self.a, self.b = row_table(op_a, trunc), row_table(op_b, trunc)
        self.algebra, self.trunc, self.basis, self.index = ta.algebra, trunc, ta.basis, ta.index
        self.den, self.sign = ta.den * tb.den, 1 if op_a.parity and op_b.parity else -1
        self.probes, self.is_safe = _window(trunc, (op_a, op_b))

    def row(self, i: int) -> tuple:
        if not self.is_safe(i):
            state = self.basis[i]
            raise UnsafeLevelError(
                f"state {state} (level {state.level}) is outside the safe window for "
                f"shifts ({self.a.op.shift}, {self.b.op.shift}) at level_cap {self.trunc.level_cap}")
        ta, tb = self.a, self.b
        return tuple(accumulate(ta.apply(tb.row(i)), tb.apply(ta.row(i)).items(), self.sign).items())


def bracket_pair(x: OperatorSpec, y: OperatorSpec) -> tuple:
    """(n, den) with [x, y} = n/den for two linear expressions over one algebra, in integers:
    each mode of y meets only the modes of x at the opposite doubled index."""
    (dx, xs), (dy, ys), algebra = x.integer_linear, y.integer_linear, x.algebra
    total = 0
    for two, group in ys.items():
        for mx, nx in xs.get(-two, ()):
            for my, ny in group:
                total += nx * ny * paired_numerator(mx, my, algebra)
    return total, 2 * algebra.bracket_denominator * dx * dy


def linear_bracket(x: OperatorSpec, y: OperatorSpec) -> Fraction:
    """Graded bracket of two linear expressions; a scalar, computed exactly.

    Each expression's modes are checked once, in its integer view, and the
    bracket is one Fraction of bracket_pair's integer sum.
    """
    if x.bilinears or y.bilinears:
        raise ValueError("linear_bracket needs linear expressions on both sides")
    if y.algebra != x.algebra:
        raise AlgebraMismatchError("bracket of expressions over different algebras")
    total, den = bracket_pair(x, y)
    return Fraction(total, den) if total else ZERO


def commutator_with_linear(op: OperatorSpec, lin: OperatorSpec) -> OperatorSpec:
    """Graded commutator [op, lin} of an operator with a linear expression.

    Uses [:XY:, z} = [Y,z} X + (-1)^{p(z)p(Y)} [X,z} Y termwise (the normal
    ordering constant commutes away), so the result is linear and the sum
    over the kernel index has support of at most two points per mode of
    `lin`: the r where Y[r] pairs with z and the r where X[m-r] does.
    Exact, in integers: kernel coefficients (_affine) and brackets
    (paired_numerator) meet in linear_sum; no windowing involved.
    """
    if op.algebra != lin.algebra:
        raise AlgebraMismatchError("commutator of expressions over different algebras")
    if lin.bilinears:
        raise ValueError("second argument must be a linear expression")
    algebra = op.algebra
    (dz, zs), (dw, ws) = lin.integer_linear, op.integer_linear
    kernels = [(t, *_affine(t)) for t in op.bilinears]
    scale = 2 * algebra.bracket_denominator * dz  # a bracket's denominator and lin's
    terms, out_const = [], 0
    for z, nz in [zn for group in zs.values() for zn in group]:
        for t, d, a, b in kernels:
            for two_r in {-z.two, 2 * t.m + z.two}:
                n = nz * (a + b * two_r)
                modes = n and _kernel_modes(t.left, t.right, t.m, two_r)
                if not modes:
                    continue
                x, y = modes
                require_members(modes, algebra)
                if y.two + z.two == 0 and (by := paired_numerator(y, z, algebra)):
                    terms.append((x, n * by, d * scale))
                if x.two + z.two == 0 and (bx := paired_numerator(x, z, algebra)):
                    sign = -1 if (z.parity and y.parity) else 1
                    terms.append((y, n * sign * bx, d * scale))
        for w, nw in ws.get(-z.two, ()):
            out_const += nz * nw * paired_numerator(w, z, algebra)
    return OperatorSpec(algebra, op.shift + lin.shift, (), linear_sum(terms),
                        Fraction(out_const, dw * scale), (op.parity + lin.parity) % 2)
