"""Constraint families, classification, and the graded Dirac bracket.

A constraint family is an indexed set of linear constraints chi_P with a
graded-antisymmetric bracket matrix C_PR = [chi_P, chi_R}.  When C is
invertible (all constraints second class) its inverse Delta obeys the sign
convention

    (-1)^{p(R)} Delta^{PR} C_RS = delta^P_S

and the Dirac bracket is

    [A, B]* = [A, B] - (-1)^{p(R)} [A, chi_P] Delta^{PR} [chi_R, B].

The two families of interest are infinite but banded (C couples P with -P,
plus one zero-mode pair), so Delta has a registered closed form; windowed
exact elimination must reproduce it entry by entry.  The closed form and the
elimination stay independent routes: the elimination is generic Gauss-Jordan
and never reads the closed form.  C and Delta are held as sparse rows, so
the elimination and the Delta·C contract cost time in proportion to their
nonzeros, not to the cube of the window; one elimination per label set
serves both classify and invert_c.  The correction is linear in each
operand, so the Dirac bracket is one graded bracket with one operand projected,

    Ã = A - (-1)^{p(R)} [A, chi_P] Delta^{PR} chi_R,

whose P, R sum runs over its exact, finite support, computed from the modes
of A; nothing is ever sampled.  One projection serves both brackets:
dirac_bracket projects A, dirac_op_bracket (op bilinear) its linear B.
Either side is exact, [Ã, B} = [A, B̃}, since Delta inverts a graded-
antisymmetric C: antisymmetric for the even boson family, symmetric with
(-1)^{p(R)} = -1 for the odd fermion family.  A projection is built once
per operand, and brackets pair modes by doubled index before any Fraction
arithmetic.  Every cache is keyed by the family, which hashes once, and by
a label (by doubled index for half-odd expressions), a label tuple (C and
its elimination) or the projected operand.

The pair scans evaluate a bracket only at the partners of an expression, the
positions whose expressions have a mode at the opposite doubled index of one
of its modes; linear_bracket pairs no other modes, so the rest are exact 0s.

Families:

* BosonConstraints(M, with_zero_gauge): chi_m = a†[m] - M m a[m] for
  integer m, optionally extended by the gauge-fixing zero-mode constraint
  a[0] (label "a0").  Without "a0" the label 0 has an identically zero
  bracket row and is first class; with it, all are second class.
* FermionConstraints(): chi_r = b[r] - b†[r] for half-odd r, with
  C_rs = -2 delta(r+s), second class.
* EvenCopyConstraints(): the fermion shape over the bosonized pair: the engine
  discovers C = 0 identically, the spin-statistics degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    AlgebraMismatchError,
    BOSON,
    BOSONIZED_FERMION,
    FERMION,
    FieldKind,
    HALF,
    Mode,
    ONE,
    VirfockError,
    ZERO,
    adag,
    b,
    bdag,
    even_b,
    even_bdag,
    format_rational,
)
from .operators import (
    OperatorSpec,
    _norm_linear,
    build_chi_bar0,
    build_chi_boson,
    build_L,
    commutator_with_linear,
    linear_bracket,
    linear_operator,
    mode_operator,
)
from .report import report

ZERO_GAUGE_LABEL = "a0"
MINUS_ONE, MINUS_TWO = Fraction(-1), Fraction(-2)


class SingularBlockError(VirfockError):
    """The putative second-class block is not invertible over the window."""


class ClosedFormMismatchError(VirfockError):
    """Windowed exact elimination disagrees with a registered closed form of Delta."""


class NotSecondClassError(VirfockError):
    """Dirac brackets require a fully second-class family."""


@dataclass(frozen=True)
class Window:
    """Finite probe of an infinite banded family: |doubled index| <= 2N."""

    half_width: int

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("window half-width must be positive")


class ConstraintFamily:
    """An indexed set of linear constraints chi_P over one algebra.

    Each subclass gives labels(window), the expression of a label
    (_build_expr), support_labels(expr) (every label P with [expr, chi_P]
    possibly nonzero; exact, not sampled) and, when second class, the nonzero
    Delta partners of a label (_delta_row).  C is computed from the
    expressions unless a subclass states a closed form.  Subclasses are
    frozen dataclasses that restate __hash__, so the dataclass keeps this one:
    their instances key every cache of this module and hash once each.
    """

    name = ""
    fully_second_class = False

    def __hash__(self):
        return self._hash

    _hash = cached_property(lambda self: hash((type(self), *(getattr(self, f.name) for f in fields(self)))))

    def expr(self, label) -> OperatorSpec:
        return _cached_expr(self, label)

    def parity(self, label) -> int:
        return self.expr(label).parity

    def label_of_expr(self, label) -> str:
        return ZERO_GAUGE_LABEL if label == ZERO_GAUGE_LABEL else f"chi[{label}]"

    def c_entry(self, p, r) -> Fraction:
        """Bracket matrix entry C_PR; closed form where registered."""
        return self.computed_c_entry(p, r)

    def computed_c_entry(self, p, r) -> Fraction:
        """C_PR recomputed from the constraint expressions and canonical brackets."""
        return linear_bracket(self.expr(p), self.expr(r))

    def delta_row(self, p):
        """Nonzero (R, Delta^PR) partners of a fixed first label (second class required)."""
        self._require_second_class()
        return _cached_delta_row(self, p)

    def _require_second_class(self, *operands: OperatorSpec):
        """Also the Dirac brackets' operand check: each operand lies over the
        family's algebra, checked before a constraint is built at its labels."""
        for x in operands:
            if x.algebra != self.algebra:
                raise AlgebraMismatchError("expressions do not belong to the family's algebra")
        if not self.fully_second_class:
            raise NotSecondClassError(
                f"{self.name} constraint family is not fully second class; "
                "add gauge conditions (for the boson family, include the a[0] constraint)")


@lru_cache(maxsize=None)
def _cached_expr(family: ConstraintFamily, label) -> OperatorSpec:
    return family._build_expr(label)


@lru_cache(maxsize=None)
def _cached_delta_row(family: ConstraintFamily, label) -> tuple:
    return family._delta_row(label)


@dataclass(frozen=True)
class BosonConstraints(ConstraintFamily):
    """chi_m = a†[m] - M m a[m], plus the zero-mode gauge condition a[0]; M is a nonzero Fraction."""

    __hash__ = ConstraintFamily.__hash__

    M: Fraction
    with_zero_gauge: bool = True
    name = "boson"
    algebra = BOSON

    def __post_init__(self):
        object.__setattr__(self, "M", Fraction(self.M))
        if self.M == 0:
            raise ValueError("boson constraint family needs M != 0 (C scales with M)")

    @property
    def fully_second_class(self) -> bool:
        return self.with_zero_gauge

    def labels(self, window: Window):
        out = list(range(-window.half_width, window.half_width + 1))
        if self.with_zero_gauge:
            out.append(ZERO_GAUGE_LABEL)
        return out

    def parity(self, label) -> int:
        return 0

    def _build_expr(self, label) -> OperatorSpec:
        if label == ZERO_GAUGE_LABEL:
            return build_chi_bar0()
        return build_chi_boson(int(label), self.M)

    def c_entry(self, p, r) -> Fraction:
        if p == ZERO_GAUGE_LABEL:
            return MINUS_ONE if r == 0 else ZERO
        if r == ZERO_GAUGE_LABEL:
            return ONE if p == 0 else ZERO
        return 2 * self.M * p if p + r == 0 else ZERO

    def _delta_row(self, p):
        if p == ZERO_GAUGE_LABEL:
            return ((0, ONE),)
        if p == 0:
            return ((ZERO_GAUGE_LABEL, MINUS_ONE),)
        return ((-p, -1 / (2 * self.M * p)),)

    def support_labels(self, expr: OperatorSpec):
        out = {-mode.two // 2 for mode, _ in expr.linear}
        return (out | {ZERO_GAUGE_LABEL}) if 0 in out else out

    def chi_transform(self, m, label):
        """(coefficient, target label) of [L_m, chi_n] = n chi[m+n]."""
        return Fraction(label), label + int(m)


class _HalfOddConstraints(ConstraintFamily):
    """chi_r = x[r] - y[r] on half-odd r, for the mode pair chi_modes = (x, y)."""

    def labels(self, window: Window):
        return [Fraction(t, 2) for t in range(-2 * window.half_width + 1,
                                              2 * window.half_width, 2)]

    def expr(self, label) -> OperatorSpec:
        # keyed by the doubled index: hashing a Fraction label takes a modular inverse
        return _cached_expr(self, label.numerator * (2 // label.denominator))

    def _build_expr(self, two) -> OperatorSpec:
        r = Fraction(two, 2)
        lower, upper = self.chi_modes
        return linear_operator(self.algebra, {lower(r): 1, upper(r): -1}, shift=r)

    def support_labels(self, expr: OperatorSpec):
        return {Fraction(-mode.two, 2) for mode, _ in expr.linear}


@dataclass(frozen=True)
class FermionConstraints(_HalfOddConstraints):
    """chi_r = b[r] - b†[r], with C_rs = -2 delta(r+s): second class."""

    __hash__ = ConstraintFamily.__hash__

    name = "fermion"
    fully_second_class = True
    algebra = FERMION
    chi_modes = (b, bdag)

    def parity(self, label) -> int:
        return 1

    def c_entry(self, p, r) -> Fraction:
        # p + r == 0 on normalized labels, without Fraction arithmetic
        return MINUS_TWO if p.numerator == -r.numerator and p.denominator == r.denominator else ZERO

    def _delta_row(self, p):
        return ((-p, HALF),)

    def chi_transform(self, m, label):
        """(coefficient, target label) of [L_m, chi_r] = (m/2 + r) chi[m+r]."""
        return Fraction(m) / 2 + Fraction(label), label + Fraction(m)


@dataclass(frozen=True)
class EvenCopyConstraints(_HalfOddConstraints):
    """The fermion constraint shape with bosonic statistics; degenerates to C = 0."""

    __hash__ = ConstraintFamily.__hash__

    name = "even-copy"
    algebra = BOSONIZED_FERMION
    chi_modes = (even_b, even_bdag)


def pairing_index(exprs) -> dict:
    """{doubled index: positions j whose exprs[j] has a mode there}; one per scan."""
    index = {}
    for j, expr in enumerate(exprs):
        for two in expr.linear_by_two:
            index.setdefault(two, []).append(j)
    return index


def partners(index: dict, expr: OperatorSpec, family: ConstraintFamily = None) -> list:
    """The sorted positions j where [expr, exprs[j]} can be nonzero; given a family,
    where dirac_bracket(expr, exprs[j], family) can, the partners of the projected expr."""
    expr = _projected(family, expr) if family else expr
    return sorted({j for two in expr.linear_by_two for j in index.get(-two, ())})


def support_rows(family: ConstraintFamily, labels, entry) -> list:
    """entry(P, R) over labels as sparse rows, row i mapping position j to a nonzero
    value, evaluated only at the partners R of chi_P: elsewhere [chi_P, chi_R} is 0."""
    index = pairing_index(map(family.expr, labels))
    return [{j: v for j in partners(index, family.expr(p)) if (v := entry(p, labels[j]))}
            for p in labels]


@lru_cache(maxsize=None)
def _c_rows(family: ConstraintFamily, labels: tuple) -> list:
    """C over labels as support_rows, so a zero row is an exact zero row; that the
    closed form is 0 off the support too is bracket_matrix_closed_form's claim."""
    return support_rows(family, labels, family.c_entry)


@lru_cache(maxsize=None)
def _signed_inverse(family: ConstraintFamily, labels: tuple) -> list:
    """Sparse rows of Delta over labels, by exact elimination of (-1)^p(R) C_RS.

    Cached, so classify and invert_c share one elimination per label set.
    """
    signed = []
    for r, row in zip(labels, _c_rows(family, labels)):
        sign = -1 if family.parity(r) else 1
        signed.append({j: sign * v for j, v in row.items()})
    return _invert_exact(signed)


@dataclass
class Classification:
    first_class: list
    second_class: list


def classify(family: ConstraintFamily, window: Window) -> Classification:
    """Split windowed constraints into first class (zero bracket row) and second class.

    The rest must form an invertible block, otherwise SingularBlockError.
    Exact zero rows, no rank tolerances: the arithmetic is exact.
    """
    labels = tuple(family.labels(window))
    rows = _c_rows(family, labels)
    first = [p for p, row in zip(labels, rows) if not row]
    second = [p for p, row in zip(labels, rows) if row]
    if second:
        try:
            _signed_inverse(family, tuple(second))
        except SingularBlockError as exc:
            raise SingularBlockError(
                f"putative second-class block of {family.name} family is singular "
                f"on window N={window.half_width}: {exc}") from exc
    return Classification(first, second)


def _invert_exact(rows) -> list:
    """Exact Gauss-Jordan inverse of a square matrix held as sparse rows.

    rows[i] maps column j to the nonzero rational entry (i, j); the inverse
    comes back in the same form.  The pivot of column k is the first
    row at or below k with a nonzero entry there.  Only nonzero entries are
    stored or touched, so the work follows the fill-in, not the width.
    """
    n = len(rows)
    aug = [{**{j: v for j, v in row.items() if v}, n + i: ONE} for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in aug[r]), None)
        if pivot is None:
            raise SingularBlockError(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        prow = aug[col] = {j: v * inv for j, v in aug[col].items()}
        for r, row in enumerate(aug):
            f = row.get(col) if r != col else None
            if f:
                for j, w in prow.items():
                    v = row.get(j, ZERO) - f * w
                    if v:
                        row[j] = v
                    else:
                        del row[j]
    return [{j - n: v for j, v in sorted(row.items()) if j >= n} for row in aug]


def invert_c(family: ConstraintFamily, window: Window) -> dict:
    """Windowed exact inverse Delta with (-1)^p(R) Delta^PR C_RS = delta^P_S.

    Requires the family fully second class on the window.  The elimination
    must agree with the closed form of Delta entry by entry; a mismatch is an
    engine bug and raises ClosedFormMismatchError.
    """
    split = classify(family, window)
    if split.first_class:
        raise SingularBlockError(
            f"first-class constraints {split.first_class} present; "
            "the bracket matrix is not invertible")
    labels = tuple(split.second_class)
    inverse = _signed_inverse(family, labels)
    position = {p: i for i, p in enumerate(labels)}
    for p, row in zip(labels, inverse):
        closed = {position[r]: v for r, v in family.delta_row(p) if r in position}
        for j in sorted(row.keys() | closed.keys()):  # both are zero elsewhere
            if (got := row.get(j, ZERO)) != closed.get(j, ZERO):
                raise ClosedFormMismatchError(
                    f"windowed inversion disagrees with the closed form at ({p},{labels[j]}): "
                    f"{got} vs {closed.get(j, ZERO)}")
    return {(p, labels[j]): v for p, row in zip(labels, inverse) for j, v in row.items()}


def delta_contract_residuals(family: ConstraintFamily, window: Window):
    """All (P,S) with sum_R (-1)^p(R) Delta^PR C_RS != delta^P_S on the window.

    Delta is grouped by P once; each (P,S) sum runs over the nonzero R of
    row P only, against the sparse rows of C; an S no sum reaches has zero.
    """
    labels = tuple(family.labels(window))
    position = {p: i for i, p in enumerate(labels)}
    c_rows = _c_rows(family, labels)
    delta_rows = [[] for _ in labels]
    for (p, r), d in invert_c(family, window).items():
        sign = -1 if family.parity(r) else 1
        delta_rows[position[p]].append((sign * d, c_rows[position[r]]))
    bad = []
    for i, (p, delta_row) in enumerate(zip(labels, delta_rows)):
        product = {i: ZERO}
        for d, c_row in delta_row:
            for k, c in c_row.items():
                product[k] = product.get(k, ZERO) + d * c
        bad += [(p, labels[k], total) for k, total in sorted(product.items())
                if total != (ONE if i == k else ZERO)]
    return bad


def dirac_bracket(A: OperatorSpec, B: OperatorSpec, family: ConstraintFamily) -> Fraction:
    """Graded Dirac bracket of two linear expressions; a scalar.

    The correction is linear in B, so the bracket is [Ã, B} with A projected
    once per family (_projected).
    """
    if not (A.is_linear and B.is_linear):
        raise ValueError("dirac_bracket of non-linear expressions; "
                         "use the reduced algebras for bilinears")
    family._require_second_class(A, B)
    return linear_bracket(_projected(family, A), B)


@lru_cache(maxsize=None)
def _projected(family: ConstraintFamily, A: OperatorSpec) -> OperatorSpec:
    """Ã = A - sum_{P,R} [A, chi_P} (-1)^p(R) Delta^PR chi_R over the support labels
    P of A and the Delta partners R of each, built from plain terms so that A's
    stated shift and parity are kept as they are."""
    terms = list(A.linear)
    for p in family.support_labels(A):
        bra = linear_bracket(A, family.expr(p))
        if bra:
            for r, d in family.delta_row(p):
                scale = bra * d if family.parity(r) else -bra * d
                terms += ((mode, scale * c) for mode, c in family.expr(r).linear)
    return replace(A, linear=_norm_linear(terms))


def dirac_op_bracket(op: OperatorSpec, B: OperatorSpec, family: ConstraintFamily) -> OperatorSpec:
    """Dirac bracket [op, B̃} of an operator (bilinear allowed) with a linear B (_projected)."""
    if not B.is_linear:
        raise ValueError("second argument must be linear")
    family._require_second_class(op, B)
    return commutator_with_linear(op, _projected(family, B))


def solve_boson_constraints(expr: OperatorSpec, M) -> OperatorSpec:
    """Substitute the solved constraints into a linear boson expression.

    chi_m = 0 solves to a[m] = a†[m]/(M m) for m != 0; both zero modes are
    set to zero (a[0] by its own constraint, a†[0] = chi_0 = 0).
    """
    M = Fraction(M)
    if M == 0:
        raise ValueError("solving the boson constraints needs M != 0")
    solved = [(adag(mode.index), c / (M * mode.index)) if mode.kind is FieldKind.A else (mode, c)
              for mode, c in expr.linear if mode.two]
    return linear_operator(BOSON, solved, expr.constant, expr.shift, expr.parity)


def dirac_transform_adagger(m: int, n: int, M, lam) -> OperatorSpec:
    """Dirac bracket [L_m, a†[n]]* with the constraints solved in.

    Built through the full Dirac machinery from the unconstrained boson
    generator; the result must equal n a†[m+n] - M lam m (m+1) delta(m+n),
    with a†[0] dropped.
    """
    family = BosonConstraints(M)
    op = build_L("boson-unconstrained", m, family.M, lam)
    raw = dirac_op_bracket(op, mode_operator(BOSON, adag(n)), family)
    return solve_boson_constraints(raw, family.M)


def verify_compatibility(op: OperatorSpec, family: ConstraintFamily, index_range):
    """Check that a generator preserves the constraint ideal.

    [op, chi_n] must equal the multiple of chi at the shifted label that the
    family's chi_transform states (the fermion law holds only at
    lambda = 1/2; other lambdas are reported as incompatible).
    """
    m = op.shift
    reports = []
    for label in index_range:
        coeff, target_label = family.chi_transform(m, label)
        got = commutator_with_linear(op, family.expr(label))
        want = f"{format_rational(coeff)}·{family.label_of_expr(target_label)}"
        ok = got == coeff * family.expr(target_label)
        reports.append(report(f"chi_transform[m={m},n={label}]", ok, want,
                              want if ok else str(got)))
    return reports


def mode_compatibility_reports(family: ConstraintFamily, window: Window):
    """dirac_bracket(x, chi_R) = 0 for each basic mode x and windowed constraint, at the partners of x̃."""
    algebra, N = family.algebra, window.half_width
    modes = sorted((Mode(kind, two) for kind in algebra.kinds for two in range(-2 * N, 2 * N + 1)
                    if two % 2 == kind.half_integer_moded), key=lambda mm: mm.sort_key)
    labels = family.labels(window)
    index = pairing_index(map(family.expr, labels))
    bad = []
    for x in modes:
        op = mode_operator(algebra, x)
        for j in partners(index, op, family):
            val = dirac_bracket(op, family.expr(labels[j]), family)
            if val:
                bad.append((x, labels[j], val))
    return [report(
        f"dirac_mode_compatibility[{family.name},N={N}]", not bad, "0",
        "0" if not bad else "; ".join(f"[{x},{family.label_of_expr(lb)}]*={format_rational(v)}"
                                      for x, lb, v in bad[:4]))]
