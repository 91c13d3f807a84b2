"""End-to-end verification: Virasoro relation, central-charge oracle, laws.

The central-charge oracle is representation independent: it reads c off the
vacuum component of [L_m, L_-m]|0> via

    c = -12 (f(m) + 2m g) / (m^3 - m),   f(m) = <0|[L_m, L_-m]|0>,
                                          g    = <0|L_0|0>,

computed at m = 2 and cross-checked at m = 3 (a disagreement means a
truncation-soundness bug, not a formula failure).  The closed-form claims
are then tested against this oracle, never assumed.

The family checks and the oracle run on integer rows by state id.  Each
check states its identity as data, a left-hand table equal to a sum of
coefficients times tables plus a constant times the identity, and _law
compares both sides on every probe state id as integer rows over one
denominator.  The oracle builds its own L_0, L_±2 and L_±3 and forms each c
as one Fraction of the integer vacuum entries of the rows of L_0 and of
[L_m, L_-m] and their dens; elsewhere only a failure's residual is one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (BOSON, REDUCED_FERMION, Algebra, Mode, VirfockError, ZERO, a, adag, b,
                      format_rational, paired_bracket, red_adag, reduced_boson)
from .dirac import (
    BosonConstraints,
    ClosedFormMismatchError,
    EvenCopyConstraints,
    FermionConstraints,
    SingularBlockError,
    Window,
    dirac_transform_adagger,
    classify,
    delta_contract_residuals,
    dirac_bracket,
    mode_compatibility_reports,
    pairing_index,
    partners,
    support_rows,
    verify_compatibility,
)
from .fock import Truncation, VACUUM, accumulate, enumerate_basis
from .fock import _apply_to_basis as mode_table
from .operators import (
    Commutator,
    FAMILIES,
    GeneratorFamily,
    OperatorSpec,
    build_L,
    generator_family,
    linear_operator,
    mode_operator,
    pair_shifts,
    row_table,
    safe_ids,
)
from .report import CheckReport, report


class OracleInconsistencyError(VirfockError):
    """The m=2 and m=3 central-charge evaluations disagree; c2 is the m = 2 value."""

    def __init__(self, family: str, c2: Fraction, c3: Fraction):
        super().__init__(f"{family}: m=2 gives c={c2} but m=3 gives c={c3}; truncation soundness is broken")
        self.c2 = c2


@lru_cache(maxsize=None)
def default_truncation(family: str, level: int = 6, zmax: int = 4) -> Truncation:
    """Default caps: integer level for bosons, (2*level-1)/2 for fermions; one instance each."""
    return generator_family(family).truncation(level, zmax)


@dataclass(frozen=True)
class ScenarioParams:
    family: str
    M: Fraction = Fraction(1)
    lam: Fraction = Fraction(1, 2)
    trunc: Truncation = None
    m_range: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.m_range < 2:
            raise ValueError("m_range must be at least 2 (the anomaly needs m^3 - m != 0)")
        object.__setattr__(self, "M", self.M if type(self.M) is Fraction else Fraction(self.M))
        object.__setattr__(self, "lam", self.lam if type(self.lam) is Fraction else Fraction(self.lam))
        if self.trunc is None:
            object.__setattr__(self, "trunc", default_truncation(self.family))

    @property
    def generators(self) -> GeneratorFamily:
        return FAMILIES[self.family]

    @property
    def algebra(self):
        return self.generators.algebra(self.M)


def claimed_central_charge(family: str, M=0, lam=0) -> Fraction:
    """The closed-form central charge asserted for each generator family."""
    return generator_family(family).central_charge(Fraction(M), Fraction(lam))


@lru_cache(maxsize=None)
def _gen(family: str, m: int, M: Fraction, lam: Fraction) -> OperatorSpec:
    return build_L(family, m, M, lam)


def extract_central_charge(params: ScenarioParams) -> Fraction:
    """Central charge measured on the vacuum; the independent oracle."""
    trunc = params.trunc
    if trunc.level_cap < 3:
        raise ValueError("central-charge extraction needs level_cap >= 3")
    if params.algebra.has_zero_modes and trunc.zero_mode_cap < 2:
        raise ValueError("central-charge extraction needs zero_mode_cap >= 2 here")
    family, M, lam = params.family, params.M, params.lam
    l0 = row_table(build_L(family, 0, M, lam), trunc)
    vac = l0.state_id(VACUUM)

    def at_vacuum(table) -> int:
        return dict(table.row(vac)).get(vac, 0)

    g = at_vacuum(l0)

    def c_at(m: int) -> Fraction:
        # c = -12 (f + 2 m g) / (m^3 - m), with f and g integers over their dens
        comm = Commutator(build_L(family, m, M, lam), build_L(family, -m, M, lam), trunc)
        return Fraction(-12 * (at_vacuum(comm) * l0.den + 2 * m * g * comm.den),
                        comm.den * l0.den * (m ** 3 - m))

    c2, c3 = c_at(2), c_at(3)
    if c2 != c3:
        raise OracleInconsistencyError(params.family, c2, c3)
    return c2


def _probe(name, expected, params, probes, sides, got="as expected", show=None):
    """One report for an identity lhs == rhs asserted on every probe.

    A probe is a state id of the truncation's basis (or a draw that show
    names).  sides(p) returns
    (lhs, rhs, den): both sides on p as dicts {state id: nonzero integer}
    over the one denominator den, so comparing them compares integers only.
    An empty probe set proves nothing, so it is reported skipped, with the
    reason in `got`, never as a pass.  A failure names its first witness,
    show(p) (by default the basis state), and shows the residual lhs - rhs
    as p/q·state terms in state-id order, which is the canonical basis order.
    """
    if not probes:
        return CheckReport(name, "skipped", str(expected), "no safe probe state")
    for p in probes:
        lhs, rhs, den = sides(p)
        if lhs != rhs:
            basis = enumerate_basis(params.algebra, params.trunc)
            diff = accumulate(dict(lhs), rhs.items(), -1)
            residual = " + ".join(f"{format_rational(Fraction(n, den))}·{basis[j]}"
                                  for j, n in sorted(diff.items())).replace("+ -", "- ")
            return report(name, False, expected, residual, show(p) if show else basis[p])
    return report(name, True, expected, got)


def _law(lhs, terms, constant=ZERO):
    """sides(i) for _probe of the identity lhs = sum of c·table + constant·1.

    lhs and each table of terms, a sequence of (c, table) with c rational,
    give integer rows by state id over their own den.  Both sides are scaled
    once to the lcm of every denominator, so each probe adds and multiplies
    integers only.
    """
    constant = Fraction(constant)
    terms = [(Fraction(c), table) for c, table in terms]
    top = math.lcm(lhs.den, constant.denominator,
                   *(c.denominator * table.den for c, table in terms))
    s_lhs = top // lhs.den
    scaled = [(c.numerator * (top // (c.denominator * table.den)), table)
              for c, table in terms if c]
    s_constant = constant.numerator * (top // constant.denominator)

    def sides(i):
        rhs = {}
        for s, table in scaled:
            accumulate(rhs, table.row(i), s)
        if s_constant:
            accumulate(rhs, ((i, s_constant),))
        return {j: s_lhs * n for j, n in lhs.row(i)}, rhs, top

    return sides


def check_virasoro_relation(params: ScenarioParams, c_expected) -> list:
    """[L_m, L_n] = (n-m) L_{m+n} - (c/12)(m^3-m) delta(m+n), state by state.

    Asserted exactly on every safe basis state, one report per (m, n).
    """
    c_expected = Fraction(c_expected)
    trunc, R = params.trunc, params.m_range
    algebra = params.algebra
    reports = []
    for m in range(-R, R + 1):
        lm = _gen(params.family, m, params.M, params.lam)
        for n in range(-R, R + 1):
            ln = _gen(params.family, n, params.M, params.lam)
            lmn = row_table(_gen(params.family, m + n, params.M, params.lam), trunc)
            central = c_expected * Fraction(m ** 3 - m, 12) if m + n == 0 else ZERO
            sides = _law(Commutator(lm, ln, trunc), [(n - m, lmn)], -central)
            reports.append(_probe(f"virasoro[m={m},n={n}]", "0", params,
                                  safe_ids(algebra, trunc, pair_shifts(lm, ln)), sides, got="0"))
    return reports


def check_primary_laws(params: ScenarioParams) -> list:
    """Mode transformation laws [G_m, phi_n] = ((1-h)m + n) phi_{m+n}.

    G_m and the modes phi are the family's stated primary laws; families
    without them get no reports.
    """
    laws = params.generators.primary_laws
    if laws is None:
        return []
    trunc, R = params.trunc, params.m_range
    algebra = params.algebra
    reports = []
    for m in range(-R, R + 1):
        gen = laws.generator(m, params.M, params.lam)
        for kind, coeff_fn in laws.modes:
            start = -2 * R + 1 if kind.half_integer_moded else -2 * R
            for two in range(start, 2 * R + 1, 2):
                x = Mode(kind, two)
                target = Mode(kind, two + 2 * m)
                idx = x.index
                coeff = Fraction(coeff_fn(m, idx, params.lam))
                xop = mode_operator(algebra, x)
                sides = _law(Commutator(gen, xop, trunc),
                             [(coeff, mode_table(algebra, target, trunc))])
                reports.append(_probe(f"primary[{kind.symbol},m={m},n={idx}]",
                                      f"{format_rational(coeff)}·{target}", params,
                                      safe_ids(algebra, trunc, pair_shifts(gen, xop)), sides))
    return reports


def check_christoffel(params: ScenarioParams) -> list:
    """Reduced-boson transformation [L_m, a†[n]] = n a†[m+n] + anomaly delta(m+n).

    Checked on the reduced Fock module (a†[0] terms skipped) and
    cross-checked against the Dirac-bracket machinery route, for the
    families that state a Christoffel anomaly.
    """
    anomaly_fn = params.generators.christoffel_anomaly
    if anomaly_fn is None:
        return []
    trunc, R = params.trunc, params.m_range
    algebra = params.algebra
    M, lam = params.M, params.lam
    reports = []
    for m in range(-R, R + 1):
        lm = _gen(params.family, m, M, lam)
        for n in [k for k in range(-R, R + 1) if k != 0]:
            anomaly = Fraction(anomaly_fn(m, M, lam)) if m + n == 0 else ZERO
            xop = mode_operator(algebra, red_adag(n))
            # the reduced module has no a†[0]: at m + n = 0 only the anomaly is left
            phi = [(n, mode_table(algebra, red_adag(m + n), trunc))] if m + n else []
            sides = _law(Commutator(lm, xop, trunc), phi, anomaly)
            reports.append(_probe(f"christoffel[m={m},n={n}]",
                                  f"{n}·a†[{m + n}]" if m + n else format_rational(anomaly), params,
                                  safe_ids(algebra, trunc, pair_shifts(lm, xop)), sides))
            # independent route through the Dirac bracket of the unconstrained form
            via_dirac = dirac_transform_adagger(m, n, M, lam)
            expected = linear_operator(
                BOSON, {adag(m + n): n} if m + n != 0 else {},
                constant=anomaly, shift=Fraction(m + n), parity=0)
            reports.append(report(f"christoffel_dirac[m={m},n={n}]", via_dirac == expected,
                                  str(expected), str(via_dirac)))
    return reports


def check_jacobi(params: ScenarioParams, triple=(1, 2, -3)) -> list:
    """Jacobi identity spot check on nested commutators of three generators."""
    trunc = params.trunc
    algebra = params.algebra
    ops = [_gen(params.family, m, params.M, params.lam) for m in triple]
    ta, tb, tc = (row_table(op, trunc) for op in ops)
    aa, bb, cc = (Fraction(m) for m in triple)
    sums = (aa, bb, cc, aa + bb, aa + cc, bb + cc, aa + bb + cc)

    def nested(x, y, z, i):
        # [[X, Y], Z] on basis[i] for even operators, over x.den·y.den·z.den
        zpsi, xpsi, ypsi = z.row(i), x.row(i), y.row(i)
        acc = x.apply(y.apply(zpsi).items())
        accumulate(acc, y.apply(x.apply(zpsi).items()).items(), -1)
        accumulate(acc, z.apply(x.apply(ypsi).items()).items(), -1)
        return accumulate(acc, z.apply(y.apply(xpsi).items()).items())

    def sides(i):
        total = nested(ta, tb, tc, i)
        accumulate(total, nested(tb, tc, ta, i).items())
        accumulate(total, nested(tc, ta, tb, i).items())
        return total, {}, ta.den * tb.den * tc.den

    return [_probe(f"jacobi[{triple[0]},{triple[1]},{triple[2]}]", "0", params,
                   safe_ids(algebra, trunc, sums, zero_uses=3), sides, got="0")]


def check_window_doubling(params: ScenarioParams, probes: int = 100, seed: int = 7) -> list:
    """Widening the kernel window beyond level_cap + |m| must change nothing.

    Draws `probes` (label, state) pairs, each state from the safe pool of its
    label; labels whose pool is empty are never drawn.
    """
    trunc = params.trunc
    algebra = params.algebra
    rng = random.Random(seed)
    ops = {m: _gen(params.family, m, params.M, params.lam)
           for m in range(-params.m_range, params.m_range + 1)}
    pools = {m: safe_ids(algebra, trunc, (op.shift,), zero_uses=1) for m, op in ops.items()}
    labels = [m for m, pool in pools.items() if pool]
    draws = []
    if labels:
        for _ in range(probes):
            m = rng.choice(labels)
            draws.append((m, rng.choice(pools[m])))

    laws = {}
    for m in labels:
        op = ops[m]
        wide = row_table(op, trunc, window=2 * (trunc.level_cap + abs(op.shift)))
        laws[m] = _law(row_table(op, trunc), [(1, wide)])

    basis = enumerate_basis(algebra, trunc)
    return [_probe(f"window_doubling[{probes} probes]", "identical action", params, draws,
                   lambda draw: laws[draw[0]](draw[1]),
                   got="identical action", show=lambda draw: f"m={draw[0]} {basis[draw[1]]}")]


def run_family_scenario(params: ScenarioParams):
    """Full verification suite for one generator family at one parameter point.

    Returns (reports, c_formula, c_oracle), c_oracle at m = 2 if m = 3 disagrees.
    """
    c_formula = claimed_central_charge(params.family, params.M, params.lam)
    try:
        c_oracle = extract_central_charge(params)
        ok, got = c_formula == c_oracle, format_rational(c_oracle)
    except OracleInconsistencyError as exc:
        c_oracle, ok, got = exc.c2, False, str(exc)
    reports = [report("central_charge", ok, format_rational(c_formula), got)]
    reports += check_virasoro_relation(params, c_formula)
    reports += check_primary_laws(params)
    reports += check_christoffel(params)
    reports += check_jacobi(params)
    reports += check_window_doubling(params)
    return reports, c_formula, c_oracle


def _witnesses(template: str, bad) -> str:
    """The first three failing (x, y, value) probes, as `template: p/q`."""
    return "; ".join(f"{template.format(x, y)}: {format_rational(v)}" for x, y, v in bad[:3])


def _dirac_table(family, modes, reduced: Algebra) -> list:
    """(x, y, [x, y]*) of each pair of modes whose Dirac bracket, as an integer
    (numerator, denominator), is not the bracket in the reduced algebra of its
    modes at the same doubled indices: paired where x.two + y.two = 0, (0, 1) elsewhere.
    Both sides are exactly 0 unless y is a partner of x̃ or x.two + y.two = 0."""
    (kind,) = reduced.kinds
    ops = [mode_operator(family.algebra, x) for x in modes]
    index, pairs = pairing_index(ops), list(zip(modes, ops))
    return [(x, y, got) for x, op_x in pairs
            for y, op_y in (pairs[j] for j in sorted({*partners(index, op_x, family),
                                                      *index.get(-x.two, ())}))
            if (got := dirac_bracket(op_x, op_y, family)).as_integer_ratio()
            != (paired_bracket(Mode(kind, x.two), Mode(kind, y.two), reduced).as_integer_ratio()
                if x.two + y.two == 0 else (0, 1))]


def run_dirac_checks(M=Fraction(1), window: Window = None) -> list:
    """Constraint-machinery suite: inversion contract, bracket tables,
    classification, and generator compatibility for both families."""
    window = window or Window(8)
    N = window.half_width
    reports = []

    bos = BosonConstraints(M)
    fer = FermionConstraints()

    for name, fam in (("boson", bos), ("fermion", fer)):
        try:
            bad = delta_contract_residuals(fam, window)
            got = _witnesses("(P={},S={})", bad) if bad else "identity"
        except (SingularBlockError, ClosedFormMismatchError) as exc:
            bad, got = True, str(exc)  # the elimination names its first witness
        reports.append(report(f"delta_contract[{name},N={N}]", not bad, "identity", got))

    # closed-form bracket matrix at every pair against the one recomputed from expressions
    agree = all(fam.c_entry(p, r).as_integer_ratio() == row.get(j, ZERO).as_integer_ratio()
                for fam in (bos, fer) for labels in [fam.labels(window)]
                for p, row in zip(labels, support_rows(fam, labels, fam.computed_c_entry))
                for j, r in enumerate(labels))
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

    bad = _dirac_table(fer, [b(Fraction(t, 2)) for t in range(-2 * N + 1, 2 * N, 2)], REDUCED_FERMION)
    reports.append(report(f"dirac_bracket_fermion[N={N}]", not bad, "(1/2) delta(r+s)",
                          "as expected" if not bad else _witnesses("[{},{}]*", bad)))

    # classification
    split = classify(BosonConstraints(M, with_zero_gauge=False), window)
    ok = split.first_class == [0] and 0 not in split.second_class
    reports.append(report("classify[boson,no-gauge]", ok, "chi[0] first class",
                          str(split.first_class)))
    split = classify(bos, window)
    reports.append(report("classify[boson,gauged]", not split.first_class,
                          "all second class", "all second class" if not split.first_class
                          else str(split.first_class)))
    split = classify(EvenCopyConstraints(), window)
    ok = not split.second_class and len(split.first_class) == 2 * N
    reports.append(report("classify[even-copy]", ok, "C=0, all first class",
                          "all first class" if ok else str(split.second_class)))

    # generator compatibility with the constraint ideal
    half5 = [Fraction(t, 2) for t in range(-9, 10, 2)]
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

    reports += mode_compatibility_reports(bos, window)
    reports += mode_compatibility_reports(fer, window)
    return reports
