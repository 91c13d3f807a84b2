"""Constraint families, classification, and the graded Dirac bracket.

A constraint family is an indexed set of linear constraints chi_P with a
graded-antisymmetric bracket matrix C_PR = [chi_P, chi_R}.  When C is
invertible (all constraints second class) its inverse Delta obeys the sign
convention

    (-1)^{p(R)} Delta^{PR} C_RS = delta^P_S

and the Dirac bracket is

    [A, B]* = [A, B] - (-1)^{p(R)} [A, chi_P] Delta^{PR} [chi_R, B].

Every chi_P of a family has the one parity p that the family states, so each
sign (-1)^{p(R)} is fixed per family.  The two families of interest are
infinite but banded (C couples P with -P, plus one zero-mode pair), so C and
Delta have closed forms, stated as rows of the nonzero partners of a label.
C's rows must equal those computed from the expressions, and windowed exact
elimination must reproduce Delta's entry by entry; the elimination is generic
Gauss-Jordan and never reads Delta's closed form.  C and Delta are held as
sparse rows, so the elimination and the Delta·C contract cost time in
proportion to their nonzeros, not to the cube of the window; one elimination
per label set serves both classify and invert_c.  The correction is linear in each
operand, so the Dirac bracket is one graded bracket with one operand projected,

    Ã = A - (-1)^{p(R)} [A, chi_P] Delta^{PR} chi_R,

whose P, R sum runs over its exact, finite support, computed from the modes
of A; nothing is ever sampled.  One projection serves both brackets:
dirac_bracket projects A, dirac_op_bracket (op bilinear) its linear B.
Either side is exact, [Ã, B} = [A, B̃}, since Delta inverts a graded-
antisymmetric C: antisymmetric for the even boson family, symmetric with
(-1)^{p(R)} = -1 for the odd fermion family.  A projection is built once
per operand, its terms added as integers over one lcm with one Fraction per
mode (linear_sum); brackets pair modes by doubled index and sum integer
numerators (bracket_pair), which the projection uses as they are.  Every
cache is keyed by the family, which hashes once, and by a label (by doubled
index for half-odd expressions), a label tuple (C and its elimination) or
the projected operand.

The pair scans evaluate a bracket only at the partners of an expression, the
positions whose expressions have a mode at the opposite doubled index of one
of its modes; linear_bracket pairs no other modes, so the rest are exact 0s.
One scan, _dirac_scan, makes every Dirac-bracket probe of run_dirac_checks,
the constraint layer's check suite; a Dirac table also probes the position
paired with x, where the reduced algebra's bracket is nonzero.

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

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    BOSON,
    BOSONIZED_FERMION,
    FERMION,
    FieldKind,
    Frozen,
    HALF,
    Mode,
    ONE,
    REDUCED_FERMION,
    VirfockError,
    ZERO,
    a,
    adag,
    b,
    bdag,
    even_b,
    even_bdag,
    format_rational,
    paired_numerator,
    reduced_boson,
)
from .operators import (
    OperatorSpec,
    bracket_pair,
    build_L,
    commutator_with_linear,
    linear_bracket,
    linear_operator,
    linear_sum,
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


class ConstraintFamily(Frozen):
    """An indexed set of linear constraints chi_P over one algebra.

    Each subclass gives _labels(N), the labels of doubled index within [-2N, 2N]
    (plus a gauge label), its parity (0 unless odd), the expression of a label
    (_build_expr), support_labels(expr) (every label P with [expr, chi_P]
    possibly nonzero; exact, not sampled) and, when second class, the nonzero
    Delta partners of a label (_delta_row).  A subclass may state C's closed
    form the same way, as the nonzero (R, C_PR) partners of a label (_c_row);
    without one, C is computed from the expressions.  Instances are frozen
    values of their _fields; they key every cache of this module and hash
    once each.
    """

    name = ""
    fully_second_class = False
    parity = 0
    _c_row = None

    def labels(self, N: int) -> list:
        """The labels within half-width N; N < 1 raises ValueError: the half-odd families have none."""
        if N < 1:
            raise ValueError(f"the constraint window needs half-width N >= 1, got {N}")
        return self._labels(N)

    def expr(self, label) -> OperatorSpec:
        return _cached_expr(self, label)

    def label_of_expr(self, label) -> str:
        return ZERO_GAUGE_LABEL if label == ZERO_GAUGE_LABEL else f"chi[{label}]"

    def delta_row(self, p):
        """Nonzero (R, Delta^PR) partners of a fixed first label (second class required)."""
        self._require_second_class()
        return self._delta_row(p)

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


@lru_cache(maxsize=512)  # bounded like each cache here, as a family carries M; 242 at --window 40
def _cached_expr(family: ConstraintFamily, label) -> OperatorSpec:
    return family._build_expr(label)


class BosonConstraints(ConstraintFamily):
    """chi_m = a†[m] - M m a[m], plus the zero-mode gauge condition a[0]; M is a nonzero Fraction."""

    _fields = ("M", "with_zero_gauge")
    name = "boson"
    algebra = BOSON

    def __init__(self, M, with_zero_gauge: bool = True):
        M = Fraction(M)
        if M == 0:
            raise ValueError("boson constraint family needs M != 0 (C scales with M)")
        vars(self).update(M=M, with_zero_gauge=with_zero_gauge)

    @property
    def fully_second_class(self) -> bool:
        return self.with_zero_gauge

    def _labels(self, N: int):
        out = list(range(-N, N + 1))
        if self.with_zero_gauge:
            out.append(ZERO_GAUGE_LABEL)
        return out

    def _build_expr(self, label) -> OperatorSpec:
        if label == ZERO_GAUGE_LABEL:
            return linear_operator(BOSON, {a(0): 1})
        m = int(label)
        return linear_operator(BOSON, {adag(m): 1, a(m): -self.M * m}, shift=m)

    def _c_row(self, p):
        if p == ZERO_GAUGE_LABEL:
            return ((0, MINUS_ONE),)
        if p == 0:
            return ((ZERO_GAUGE_LABEL, ONE),)
        return ((-p, 2 * self.M * p),)

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

    def _labels(self, N: int):
        return [Fraction(t, 2) for t in range(-2 * N + 1, 2 * N, 2)]

    def expr(self, label) -> OperatorSpec:
        # keyed by the doubled index: hashing a Fraction label takes a modular inverse
        return _cached_expr(self, label.numerator * (2 // label.denominator))

    def _build_expr(self, two) -> OperatorSpec:
        r = Fraction(two, 2)
        lower, upper = self.chi_modes
        return linear_operator(self.algebra, {lower(r): 1, upper(r): -1}, shift=r)

    def support_labels(self, expr: OperatorSpec):
        return {Fraction(-mode.two, 2) for mode, _ in expr.linear}


class FermionConstraints(_HalfOddConstraints):
    """chi_r = b[r] - b†[r], with C_rs = -2 delta(r+s): second class."""

    name = "fermion"
    fully_second_class = True
    algebra = FERMION
    chi_modes = (b, bdag)
    parity = 1

    def _c_row(self, p):
        return ((-p, MINUS_TWO),)

    def _delta_row(self, p):
        return ((-p, HALF),)

    def chi_transform(self, m, label):
        """(coefficient, target label) of [L_m, chi_r] = (m/2 + r) chi[m+r]."""
        return Fraction(m) / 2 + Fraction(label), label + Fraction(m)


class EvenCopyConstraints(_HalfOddConstraints):
    """The fermion constraint shape with bosonic statistics; degenerates to C = 0."""

    name = "even-copy"
    algebra = BOSONIZED_FERMION
    chi_modes = (even_b, even_bdag)


def pairing_index(exprs) -> dict:
    """{doubled index: positions j whose exprs[j] has a mode there}; one per scan."""
    index = {}
    for j, expr in enumerate(exprs):
        for two in expr.integer_linear[1]:
            index.setdefault(two, []).append(j)
    return index


def partners(index: dict, expr: OperatorSpec, family: ConstraintFamily = None) -> list:
    """The sorted positions j where [expr, exprs[j]} can be nonzero; given a family,
    where dirac_bracket(expr, exprs[j], family) can, the partners of the projected expr."""
    expr = _projected(family, expr) if family else expr
    return sorted({j for two in expr.integer_linear[1] for j in index.get(-two, ())})


def support_rows(family: ConstraintFamily, labels) -> list:
    """C computed from the expressions over labels as sparse rows, row i mapping position
    j to a nonzero [chi_P, chi_R}, evaluated only at the partners R of chi_P: elsewhere 0."""
    exprs = [family.expr(p) for p in labels]
    index = pairing_index(exprs)
    return [{j: v for j in partners(index, x) if (v := linear_bracket(x, exprs[j]))} for x in exprs]


def _partner_rows(row_of, labels) -> list:
    """Sparse rows over labels from the nonzero (R, value) partners row_of(P) of each
    label: row i maps the position of each partner R of labels[i] inside labels to its value."""
    position = {p: i for i, p in enumerate(labels)}
    return [{position[r]: v for r, v in row_of(p) if r in position} for p in labels]


@lru_cache(maxsize=16)  # 5 label sets in any run
def _c_rows(family: ConstraintFamily, labels: tuple) -> list:
    """C over labels: the family's closed rows where it states them (that they equal
    support_rows is bracket_matrix_closed_form's claim), else support_rows."""
    if family._c_row is None:
        return support_rows(family, labels)
    return _partner_rows(family._c_row, labels)


@lru_cache(maxsize=16)  # 3 label sets in any run
def _signed_inverse(family: ConstraintFamily, labels: tuple) -> list:
    """Sparse rows of Delta over labels, by exact elimination of (-1)^p(R) C_RS.

    Cached, so classify and invert_c share one elimination per label set.
    """
    sign = -1 if family.parity else 1
    return _invert_exact([{j: sign * v for j, v in row.items()} for row in _c_rows(family, labels)])


class Classification(NamedTuple):
    first_class: list
    second_class: list


def classify(family: ConstraintFamily, N: int) -> Classification:
    """Split windowed constraints into first class (zero bracket row) and second class.

    The rest must form an invertible block, otherwise SingularBlockError.
    Exact zero rows, no rank tolerances: the arithmetic is exact.
    """
    labels = tuple(family.labels(N))
    rows = _c_rows(family, labels)
    first = [p for p, row in zip(labels, rows) if not row]
    second = [p for p, row in zip(labels, rows) if row]
    if second:
        try:
            _signed_inverse(family, tuple(second))
        except SingularBlockError as exc:
            raise SingularBlockError(
                f"putative second-class block of {family.name} family is singular "
                f"on window N={N}: {exc}") from exc
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


def invert_c(family: ConstraintFamily, N: int) -> dict:
    """Windowed exact inverse Delta with (-1)^p(R) Delta^PR C_RS = delta^P_S.

    Requires the family fully second class on the window.  The elimination
    must agree with the closed form of Delta entry by entry; a mismatch is an
    engine bug and raises ClosedFormMismatchError.
    """
    split = classify(family, N)
    if split.first_class:
        raise SingularBlockError(
            f"first-class constraints {split.first_class} present; "
            "the bracket matrix is not invertible")
    labels = tuple(split.second_class)
    inverse = _signed_inverse(family, labels)
    for p, row, closed in zip(labels, inverse, _partner_rows(family.delta_row, labels)):
        for j in sorted(row.keys() | closed.keys()):  # both are zero elsewhere
            if (got := row.get(j, ZERO)) != closed.get(j, ZERO):
                raise ClosedFormMismatchError(
                    f"windowed inversion disagrees with the closed form at ({p},{labels[j]}): "
                    f"{got} vs {closed.get(j, ZERO)}")
    return {(p, labels[j]): v for p, row in zip(labels, inverse) for j, v in row.items()}


def delta_contract_residuals(family: ConstraintFamily, N: int):
    """All (P,S) with sum_R (-1)^p(R) Delta^PR C_RS != delta^P_S on the window.

    Each nonzero Delta^PR of invert_c meets the sparse row R of C only; the
    sums are kept by label positions, so an (P,S) no term reaches has zero.
    """
    labels = tuple(family.labels(N))
    position = {p: i for i, p in enumerate(labels)}
    c_rows = _c_rows(family, labels)
    product = {(i, i): ZERO for i in range(len(labels))}
    for (p, r), d in invert_c(family, N).items():
        d, i = (-d if family.parity else d), position[p]
        for k, c in c_rows[position[r]].items():
            product[i, k] = product.get((i, k), ZERO) + d * c
    return [(labels[i], labels[k], total) for (i, k), total in sorted(product.items())
            if total != (ONE if i == k else ZERO)]


def dirac_bracket(A: OperatorSpec, B: OperatorSpec, family: ConstraintFamily) -> Fraction:
    """Graded Dirac bracket of two linear expressions; a scalar.

    The correction is linear in B, so the bracket is [Ã, B} with A projected
    once per family (_projected).
    """
    if A.bilinears or B.bilinears:
        raise ValueError("dirac_bracket of non-linear expressions; "
                         "use the reduced algebras for bilinears")
    family._require_second_class(A, B)
    return linear_bracket(_projected(family, A), B)


@lru_cache(maxsize=512)  # 322 at --window 40
def _projected(family: ConstraintFamily, A: OperatorSpec) -> OperatorSpec:
    """Ã = A - sum_{P,R} [A, chi_P} (-1)^p(R) Delta^PR chi_R over the support labels
    P of A and the Delta partners R of each, built from plain integer terms summed in
    linear_sum, so that A's stated shift and parity are kept as they are."""
    sign = 1 if family.parity else -1
    terms = [(mode, *c.as_integer_ratio()) for mode, c in A.linear]
    for p in family.support_labels(A):
        n, q = bracket_pair(A, family.expr(p))
        if n:
            for r, d in family.delta_row(p):
                terms += ((mode, sign * n * d.numerator * c.numerator, q * d.denominator * c.denominator)
                          for mode, c in family.expr(r).linear)
    return OperatorSpec(A.algebra, A.shift, A.bilinears, linear_sum(terms), A.constant, A.parity)


def dirac_op_bracket(op: OperatorSpec, B: OperatorSpec, family: ConstraintFamily) -> OperatorSpec:
    """Dirac bracket [op, B̃} of an operator (bilinear allowed) with a linear B (_projected)."""
    if B.bilinears:
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
        got, target = commutator_with_linear(op, family.expr(label)), family.expr(target_label)
        want = f"{format_rational(coeff)}·{family.label_of_expr(target_label)}"
        # got == coeff * target in integers, each field spec equality compares; coeff 0 wants got 0
        (p, q), (den, by_two) = coeff.as_integer_ratio(), target.integer_linear
        terms = {mode: p * n for pairs in by_two.values() for mode, n in pairs} if p else {}
        ok = ((got.algebra, got.shift, got.parity) == (target.algebra, target.shift, target.parity)
              and not got.bilinears and got.constant * q == p * target.constant and len(got.linear) == len(terms)
              and all(c.numerator * q * den == c.denominator * terms.get(mode, 0) for mode, c in got.linear))
        reports.append(report(f"chi_transform[m={m},n={label}]", ok, want,
                              want if ok else str(got)))
    return reports


def _dirac_scan(family: ConstraintFamily, xs, ys: dict, want=None) -> list:
    """(x, y, [x, ys[y]]*) of each mode x of xs and key y of ys whose Dirac bracket is not
    want(x, y), or not 0 without want.  Brackets are evaluated only at the partners of x̃
    and, with want, at the y whose expressions have a mode at -x.two: elsewhere both are 0."""
    pairs = list(ys.items())
    index = pairing_index(expr for _, expr in pairs)
    bad = []
    for x in xs:
        op = mode_operator(family.algebra, x)
        js = partners(index, op, family)
        if want:
            js = sorted({*js, *index.get(-x.two, ())})
        for j in js:
            y, expr = pairs[j]
            if (got := dirac_bracket(op, expr, family)) != (want(x, y) if want else 0):
                bad.append((x, y, got))
    return bad


def mode_compatibility_reports(family: ConstraintFamily, N: int):
    """dirac_bracket(x, chi_R) = 0 for each basic mode x and windowed constraint, at the partners of x̃."""
    algebra = family.algebra
    modes = sorted((Mode(kind, two) for kind in algebra.kinds for two in range(-2 * N, 2 * N + 1)
                    if two % 2 == kind.half_integer_moded), key=lambda mm: mm.sort_key)
    bad = _dirac_scan(family, modes, {label: family.expr(label) for label in family.labels(N)})
    return [report(
        f"dirac_mode_compatibility[{family.name},N={N}]", not bad, "0",
        "0" if not bad else "; ".join(f"[{x},{family.label_of_expr(lb)}]*={format_rational(v)}"
                                      for x, lb, v in bad[:4]))]


def _witnesses(template: str, bad) -> str:
    """The first three failing (x, y, value) probes, as `template: p/q`."""
    return "; ".join(f"{template.format(x, y)}: {format_rational(v)}" for x, y, v in bad[:3])


def _dirac_table(family: ConstraintFamily, modes, reduced: Algebra) -> list:
    """(x, y, [x, y]*) of each pair of modes off the bracket of the reduced algebra's
    modes at the same doubled indices: paired where x.two + y.two = 0, 0 elsewhere."""
    (kind,), den = reduced.kinds, 2 * reduced.bracket_denominator
    return _dirac_scan(family, modes, {y: mode_operator(family.algebra, y) for y in modes},
                       lambda x, y: Fraction(paired_numerator(Mode(kind, x.two), Mode(kind, y.two), reduced), den)
                       if x.two + y.two == 0 else 0)


def run_dirac_checks(M, N: int) -> list:
    """Constraint-machinery suite on the labels within half-width N: inversion
    contract, bracket tables, classification, and generator compatibility for
    both families.  N < 1 raises ValueError (ConstraintFamily.labels) before any report."""
    reports = []

    bos = BosonConstraints(M)
    fer = FermionConstraints()

    for fam in (bos, fer):
        try:
            bad = delta_contract_residuals(fam, N)
            got = _witnesses("(P={},S={})", bad) if bad else "identity"
        except (SingularBlockError, ClosedFormMismatchError) as exc:
            bad, got = True, str(exc)  # the elimination names its first witness
        reports.append(report(f"delta_contract[{fam.name},N={N}]", not bad, "identity", got))

    # closed-form bracket matrix against the one computed from expressions, row by row
    agree = all(_c_rows(fam, labels) == support_rows(fam, labels)
                for fam in (bos, fer) for labels in [tuple(fam.labels(N))])
    reports.append(report(f"bracket_matrix_closed_form[N={N}]", agree,
                          "matches expressions", "matches" if agree else "mismatch"))

    # Dirac bracket tables: each entry is the reduced algebra's bracket at the same indices
    bad = _dirac_table(bos, [adag(m) for m in range(-N, N + 1)], reduced_boson(M))
    balg = bos.algebra
    for x, y in ((adag(0), adag(0)), (adag(0), a(0)), (a(0), a(0))):
        got = dirac_bracket(mode_operator(balg, x), mode_operator(balg, y), bos)
        if got != 0:
            bad.append((x, y, got))
    reports.append(report(f"dirac_bracket_boson[N={N}]", not bad,
                          "-(M/2) m delta(m+n), zero modes 0",
                          "as expected" if not bad else _witnesses("[{},{}]*", bad)))

    bad = _dirac_table(fer, [b(r) for r in fer.labels(N)], REDUCED_FERMION)
    reports.append(report(f"dirac_bracket_fermion[N={N}]", not bad, "(1/2) delta(r+s)",
                          "as expected" if not bad else _witnesses("[{},{}]*", bad)))

    # classification
    split = classify(BosonConstraints(M, with_zero_gauge=False), N)
    ok = split.first_class == [0] and 0 not in split.second_class
    reports.append(report("classify[boson,no-gauge]", ok, "chi[0] first class",
                          str(split.first_class)))
    split = classify(bos, N)
    reports.append(report("classify[boson,gauged]", not split.first_class,
                          "all second class", "all second class" if not split.first_class
                          else str(split.first_class)))
    split = classify(EvenCopyConstraints(), N)
    ok = not split.second_class and len(split.first_class) == 2 * N
    reports.append(report("classify[even-copy]", ok, "C=0, all first class",
                          "all first class" if ok else str(split.second_class)))

    # generator compatibility with the constraint ideal
    half5 = fer.labels(5)
    for family, fam, labels in (("boson-unconstrained", bos, range(-5, 6)),
                                ("fermion-unconstrained", fer, half5)):
        for m in range(-5, 6):
            reports += verify_compatibility(build_L(family, m, M, Fraction(1, 2)), fam, labels)
    incompatible = [r for m in (1, 2)
                    for r in verify_compatibility(build_L("fermion-unconstrained", m, 0, 0),
                                                  fer, half5)
                    if r.status == "fail"]
    reports.append(report("incompatibility_detected[fermion,lambda=0]", bool(incompatible),
                          "transforms leave the constraint ideal",
                          "detected" if incompatible else "not detected"))

    reports += mode_compatibility_reports(bos, N)
    reports += mode_compatibility_reports(fer, N)
    return reports
