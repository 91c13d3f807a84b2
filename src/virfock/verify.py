"""The family check suites and the central-charge oracle; the Dirac suite is
dirac.run_dirac_checks, and only dirac_transform_adagger is read from dirac.

The central-charge oracle is representation independent: it reads c off the
vacuum component of [L_m, L_-m]|0> via

    c = -12 (f(m) + 2m g) / (m^3 - m),   f(m) = <0|[L_m, L_-m]|0>,
                                          g    = <0|L_0|0>,

computed at m = 2 and cross-checked at m = 3 (a disagreement means a
truncation-soundness bug, not a formula failure).  The closed-form claims
are then tested against this oracle, never assumed.  A spec is linear in its
scalar slots, so <0|[A, B]|0> = sum a_i b_j <0|[P_i, Q_j]|0> over the slots
a, b and unit-coefficient parts P, Q of A and B, and <0|L_0|0> is linear
too.  The oracle is bound once per family and truncation (central_charge_oracle;
a sweep binds once, extract_central_charge is the one-point call): the caps, the
family's one statement (GeneratorFamily.slots) and its three forms, one cache
entry keyed by truncation and the family's M = 1 algebra, kernel and linear
kinds, sparse lists of the nonzero part entries with the slot positions they
multiply, a part for every slot, zero or not.  Each point forms the integer
slots of its own L_0, L_±2, L_±3 and builds no spec.
With each bracket of the point's algebra s times the M = 1 one (s read off
its bracket table, once per point), an entry of k modes, a sum of products of
k/2 brackets (none for odd k), is s^(k/2) times the M = 1 entry.  A point
stays in integers up to a single Fraction.

The other family checks and the oracle run on integer rows by state id.  Each
check states its identity as data, a left-hand table equal to a coefficient
times a table plus a constant times the identity, and _law compares both
sides on every probe state id as integer rows over one denominator; only a
failure's residual is a Fraction.  check_laws is one loop over the family's
law table (operators.Law): each law has a linear right side, so it is proved
as one identity of OperatorSpecs through commutator_with_linear, on the whole
module with no truncation and no probe state, and each reduced a† law is also
checked through the Dirac bracket.
The Virasoro check composes each pair of generators once and reads the
mirror report's rows from it negated, yet compares every report's own
right-hand side on every probe.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import count, product

from .algebra import (Algebra, AlgebraMismatchError, BOSON, FieldKind, Frozen, Mode, ONE, VirfockError, ZERO, adag,
                      format_rational)
from .dirac import dirac_transform_adagger
from .fock import Truncation, VACUUM, accumulate, enumerate_basis
from .operators import (
    BilinearTerm,
    Commutator,
    GeneratorFamily,
    OperatorSpec,
    build_L,
    commutator_with_linear,
    generator_family,
    linear_operator,
    mode_operator,
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
    """Default caps off the family's algebra, whose kinds are the same at every M: level cap
    (2*level-1)/2 on half-odd-moded kinds, else level; zmax only with zero modes; one instance each."""
    algebra = generator_family(family).algebra(ONE)
    half_odd = any(kind.half_integer_moded for kind in algebra.kinds)
    return Truncation(Fraction(2 * level - half_odd, 2), zmax if algebra.has_zero_modes else 0)


class ScenarioParams(Frozen):
    _fields = ("family", "M", "lam", "trunc", "m_range")

    def __init__(self, family: str, M=Fraction(1), lam=Fraction(1, 2), trunc: Truncation = None,
                 m_range: int = 3):
        generator_family(family)  # raises ValueError for an unknown name
        if m_range < 2:
            raise ValueError("m_range must be at least 2 (the anomaly needs m^3 - m != 0)")
        vars(self).update(family=family, M=M if type(M) is Fraction else Fraction(M),
                          lam=lam if type(lam) is Fraction else Fraction(lam),
                          trunc=default_truncation(family) if trunc is None else trunc, m_range=m_range)

    @property
    def generators(self) -> GeneratorFamily:
        return generator_family(self.family)

    @property
    def algebra(self):
        return self.generators.algebra(self.M)


def claimed_central_charge(family: str, M=0, lam=0) -> Fraction:
    """The closed-form central charge asserted for each generator family; a
    Fraction M or lam is used as it is."""
    M, lam = (q if isinstance(q, Fraction) else Fraction(q) for q in (M, lam))
    return generator_family(family).central_charge(M, lam)


def require_oracle_caps(params: ScenarioParams) -> None:
    """Raise ValueError unless the truncation can hold the oracle's m = 2 and
    m = 3 vacuum rows; the CLI asks for every family before any suite runs."""
    family, trunc = params.family, params.trunc
    if trunc.level_cap < 3:
        raise ValueError(f"{family}: central-charge extraction needs level_cap >= 3, "
                         f"got {format_rational(trunc.level_cap)}")
    if params.generators.algebra(ONE).has_zero_modes and trunc.zero_mode_cap < 2:  # the same at every M
        raise ValueError(f"{family}: central-charge extraction needs zero_mode_cap >= 2 here, "
                         f"got {trunc.zero_mode_cap}")


def _parts(algebra: Algebra, kernel: tuple, linear: tuple, m: int) -> list:
    """(k, part) for each slot of a family's L_m (GeneratorFamily: its kernel and linear kinds), in
    slot order, zero slots included: L_m is the sum of its slots over den times these
    unit-coefficient parts, and k is the number of modes a part holds."""
    parts = [(0, (), (), ONE)] + [(1, (), ((Mode(kind, 2 * m), ONE),), ZERO) for kind in linear]
    parts += [(2, (BilinearTerm(*kernel, m, *unit),), (), ZERO) for unit in ((ONE, ZERO), (ZERO, ONE))]
    return [(k, OperatorSpec(algebra, m, *part)) for k, *part in parts]


_LABELS = (0, 2, -2, 3, -3)  # the oracle's L_0, then L_m and L_-m for m = 2 and m = 3


@lru_cache(maxsize=512)  # one entry per family and truncation
def _vacuum_form(trunc: Truncation, unit: Algebra, kernel: tuple, linear: tuple) -> tuple:
    """The forms of <0|L_0|0>, <0|[L_2, L_-2]|0> and <0|[L_3, L_-3]|0> over unit: each (terms, den),
    a term (entry, k // 2, i) or (entry, k // 2, i, j) for each nonzero <0|P_i|0> or <0|[P_i, Q_j]|0>
    of k modes (none of odd k), with i and j numbering the slots of all five generators in order."""
    # the reduced boson's m = 0 linear slot is always 0; its part a†[0] is no creator
    # (algebra.is_creator), so its row is empty and it adds no entry
    numbering = count()
    parts = [[(next(numbering), k, part) for k, part in _parts(unit, kernel, linear, m)] for m in _LABELS]
    forms = []
    for group in (parts[:1], parts[1:3], parts[3:]):
        tables = [(Commutator(*ps, trunc) if len(ps) == 2 else row_table(*ps, trunc), sum(ks) // 2, positions)
                  for positions, ks, ps in (zip(*pairs) for pairs in product(*group))]
        den = math.lcm(*[t.den for t, _, _ in tables])
        forms.append((tuple([(e * (den // t.den), power, *positions) for t, power, positions in tables
                             for v in [t.state_id(VACUUM)] for e in [dict(t.row(v)).get(v, 0)] if e]), den))
    return tuple(forms)


def _bracket_scale(algebra: Algebra, unit: Algebra) -> tuple:
    """(p, q): each bracket of algebra is p/q times unit's; kinds, flags and keys must match."""
    if algebra is unit:
        return 1, 1
    (p, q), *rest = [(b.numerator * u.denominator, b.denominator * u.numerator)
                     for key, u in unit.brackets.items() for b in [algebra.brackets.get(key, ZERO)]]
    if any(p * d != n * q for n, d in rest) or algebra.brackets.keys() != unit.brackets.keys() or any(
            getattr(algebra, f) != getattr(unit, f) for f in ("kinds", "has_zero_modes", "index_weighted")):
        raise AlgebraMismatchError(f"{algebra} is not a rescaling of {unit}")
    return p, q


def central_charge_oracle(params: ScenarioParams):
    """The oracle bound once to params' family and truncation (caps, slots, forms): (M, lam) -> c."""
    require_oracle_caps(params)
    family, gen, unit = params.family, params.generators, params.generators.algebra(ONE)
    (g_terms, g_den), *pairs = _vacuum_form(params.trunc, unit, gen.kernel, gen.linear)

    def oracle(M: Fraction, lam: Fraction) -> Fraction:
        # an entry of k = 2h modes is s^h times unit's, s = p/q: w[h] is s^h over q^2
        p, q = _bracket_scale(gen.algebra(M), unit)
        point = [gen.slots(m, M, lam) for m in _LABELS]
        d = [den for den, *_ in point]
        x = [v for _, *values in point for v in values]  # each over the d of its own L_m
        w = (q * q, p * q, p * p)
        g, gd = sum(e * w[h] * x[i] for e, h, i in g_terms), g_den * d[0] * q * q
        c = []
        for m, (terms, f_den), slot_den in ((2, pairs[0], d[1] * d[2]), (3, pairs[1], d[3] * d[4])):
            # c = -12 (f + 2 m g) / (m^3 - m) as an integer pair, with f and g integers over their dens
            f, f_den = sum(e * w[h] * x[i] * x[j] for e, h, i, j in terms), f_den * slot_den * q * q
            c.append((-12 * (f * gd + 2 * m * g * f_den), f_den * gd * (m ** 3 - m)))
        (n2, d2), (n3, d3) = c
        if n2 * d3 != n3 * d2:
            raise OracleInconsistencyError(family, Fraction(n2, d2), Fraction(n3, d3))
        return Fraction(n2, d2)

    return oracle


def extract_central_charge(params: ScenarioParams) -> Fraction:
    """Central charge measured on the vacuum; the independent oracle, at params' own point."""
    return central_charge_oracle(params)(params.M, params.lam)


def _probe(name, expected, params, probes, sides, got, show=None):
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


def _law(den, row, c, table, constant=ZERO):
    """sides(i) for _probe of the identity lhs = c·table + constant·1.

    row(i) gives the lhs's integer row of state id i over den, table its rows
    over its own den, and c is rational.  Both sides are scaled once to the lcm
    of every denominator, so each probe adds and multiplies integers only.
    """
    c, constant = Fraction(c), Fraction(constant)
    top = math.lcm(den, c.denominator * table.den, constant.denominator)
    s_lhs, s_table = top // den, c.numerator * (top // (c.denominator * table.den))
    s_constant = constant.numerator * (top // constant.denominator)

    def sides(i):
        rhs = accumulate({}, table.row(i), s_table) if s_table else {}
        if s_constant:
            accumulate(rhs, ((i, s_constant),))
        return {j: s_lhs * n for j, n in row(i)}, rhs, top

    return sides


def check_virasoro_relation(params: ScenarioParams, c_expected) -> list:
    """[L_m, L_n] = (n-m) L_{m+n} - (c/12)(m^3-m) delta(m+n), state by state.

    Asserted exactly on every safe basis state, one report per (m, n), m
    outer.  Each pair m < n is composed once; the report (n, m) reads its
    rows negated, over the same den and safe states, and [L_m, L_m] of
    these even generators is zero without composing.  Every report still
    compares its own rhs, (n-m) L_{m+n} minus its own central term, on
    every probe.
    """
    c_expected = Fraction(c_expected)
    trunc, R = params.trunc, params.m_range
    gens = {k: build_L(params.family, k, params.M, params.lam) for k in range(-2 * R, 2 * R + 1)}

    def law(m, n, den, row, probes):
        lmn = row_table(gens[m + n], trunc)
        central = c_expected * Fraction(m ** 3 - m, 12) if m + n == 0 else ZERO
        sides = _law(den, row, n - m, lmn, -central)
        return _probe(f"virasoro[m={m},n={n}]", "0", params, probes, sides, got="0")

    reports = {}
    for m in range(-R, R + 1):
        for n in range(m, R + 1):
            comm = Commutator(gens[m], gens[n], trunc)
            probes = comm.probes
            rows = {i: comm.row(i) if m < n else () for i in probes}
            reports[m, n] = law(m, n, comm.den, rows.__getitem__, probes)
            if m < n:
                reports[n, m] = law(n, m, comm.den, lambda i: [(j, -k) for j, k in rows[i]], probes)
    return [reports[m, n] for m in range(-R, R + 1) for n in range(-R, R + 1)]


def check_laws(params: ScenarioParams) -> list:
    """The family's laws [L_m, x[n]] = coeff x[m+n] + anomaly delta(m+n), one report per
    (m, law, n) in that order, over every doubled index of the law's kind in [-2R, 2R] but a
    zero mode the algebra lacks.  Each is one identity of linear specs on the whole module: the
    bracket computed by commutator_with_linear against the right side, which is its got on a
    failure.  Each reduced a† law is cross-checked right after its report through the Dirac
    bracket of the unconstrained boson, where a†[m+n] stays only if the reduced module has it.
    """
    R, algebra, M, lam = params.m_range, params.algebra, params.M, params.lam
    reports = []
    for m in range(-R, R + 1):
        gen = build_L(params.family, m, M, lam)
        for law in params.generators.laws:
            for two in range(-2 * R + law.kind.half_integer_moded, 2 * R + 1, 2):
                if not (two or algebra.has_zero_modes):
                    continue
                x, target = Mode(law.kind, two), Mode(law.kind, two + 2 * m)
                n, kept = x.index, bool(target.two) or algebra.has_zero_modes
                coeff = Fraction(law.coefficient(m, n, lam))
                anomaly = Fraction(law.anomaly(m, M, lam)) if law.anomaly and not target.two else ZERO
                want = linear_operator(algebra, {target: coeff} if kept else {}, constant=anomaly,
                                       shift=target.index, parity=x.parity)
                got = commutator_with_linear(gen, mode_operator(algebra, x))
                text = [f"{format_rational(coeff)}·{target}"] * kept + [format_rational(anomaly)] * bool(anomaly)
                ok = got == want
                reports.append(report(f"{law.prefix}m={m},n={n}]", ok, " + ".join(text).replace("+ -", "- ") or "0",
                                      "as expected" if ok else got))
                if law.kind is FieldKind.RED_ADAG:
                    via_dirac = dirac_transform_adagger(m, n, M, lam)
                    want = linear_operator(BOSON, {adag(target.index): coeff} if kept else {},
                                           constant=anomaly, shift=target.index, parity=0)
                    reports.append(report(f"christoffel_dirac[m={m},n={n}]", via_dirac == want,
                                          str(want), str(via_dirac)))
    return reports


def check_jacobi(params: ScenarioParams) -> list:
    """Jacobi identity spot check on nested commutators of L_1, L_2 and L_-3."""
    trunc = params.trunc
    ops = [build_L(params.family, m, params.M, params.lam) for m in (1, 2, -3)]
    ta, tb, tc = (row_table(op, trunc) for op in ops)

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

    return [_probe("jacobi[1,2,-3]", "0", params,
                   safe_ids(trunc, *ops), sides, got="0")]


def check_window_doubling(params: ScenarioParams, probes: int = 100) -> list:
    """Widening the kernel window beyond level_cap + |m| must change nothing.

    Draws `probes` (label, state) pairs, each state from the safe pool of its
    label; labels whose pool is empty are never drawn.
    """
    trunc = params.trunc
    rng = random.Random(7)  # a fixed seed: every run draws the same pairs
    ops = {m: build_L(params.family, m, params.M, params.lam)
           for m in range(-params.m_range, params.m_range + 1)}
    pools = {m: safe_ids(trunc, op) for m, op in ops.items()}
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
        narrow = row_table(op, trunc)
        laws[m] = _law(narrow.den, narrow.row, 1, wide)

    basis = enumerate_basis(params.algebra, trunc)
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
    reports += check_laws(params)
    reports += check_jacobi(params)
    reports += check_window_doubling(params)
    return reports, c_formula, c_oracle
