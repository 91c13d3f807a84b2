"""Reference constructors and the direct oracle the test modules share; the
package itself needs none of them: it reaches brackets only through
algebra.paired_bracket, and the central charge through cached vacuum forms."""

from fractions import Fraction
from itertools import product

from virfock.algebra import BOSON, ONE, ZERO, Algebra, FieldKind, Mode, _doubled, paired_bracket, require_members
from virfock.fock import VACUUM
from virfock.operators import BilinearTerm, Commutator, OperatorSpec, build_L, row_table
from virfock.verify import OracleInconsistencyError, require_oracle_caps


def build_K(m: int) -> OperatorSpec:
    """sum_r r :a†[m-r] a[r]: over the unconstrained boson algebra, the part of
    boson-unconstrained's L_m that holds neither M nor lambda."""
    term = BilinearTerm(FieldKind.ADAG, FieldKind.A, int(m), ZERO, Fraction(1))
    return OperatorSpec(BOSON, Fraction(m), (term,))


def red_b(r) -> Mode:
    """Surviving mode b[r] of the reduced fermion algebra, r half-odd-integer."""
    return Mode(FieldKind.RED_B, _doubled(r, True, "reduced b"))


def canonical_bracket(x: Mode, y: Mode, algebra: Algebra) -> Fraction:
    """Value of the graded commutator [x, y} in the given algebra.

    Antisymmetric on even pairs, symmetric on odd pairs; nonzero only when
    the two indices sum to zero.
    """
    require_members((x, y), algebra)
    return paired_bracket(x, y, algebra) if x.two + y.two == 0 else ZERO


def direct_central_charge(params) -> Fraction:
    """The central-charge oracle read straight off the row tables of the
    point's own L_0 and commutators [L_m, L_-m], with no cached form."""
    require_oracle_caps(params)
    family, M, lam, trunc = params.family, params.M, params.lam, params.trunc
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


def unit_parts(op: OperatorSpec) -> list:
    """(part, k) for each scalar slot of op, zero slots included: the operator
    with that slot 1 and every other slot 0, and the number k of modes it holds
    (0 for the constant, 1 for a linear coefficient, 2 for a kernel alpha or beta)."""
    def part(bilinears=(), linear=(), constant=ZERO):
        return OperatorSpec(op.algebra, op.shift, bilinears, linear, constant, op.parity)

    parts = [(part(constant=ONE), 0)] + [(part(linear=((x, ONE),)), 1) for x, _ in op.linear]
    return parts + [(part(bilinears=(BilinearTerm(t.left, t.right, t.m, *unit),)), 2)
                    for t in op.bilinears for unit in ((ONE, ZERO), (ZERO, ONE))]


def vacuum_part_entries(trunc, *ops) -> list:
    """(entry, k) for each part P of one spec, entry <0|P|0>, or each pair of
    parts P, Q of two, entry <0|[P, Q]|0>, in the order of itertools.product:
    read off the row tables of the parts over the specs' own algebra, with k
    the number of modes the part or the pair holds."""
    out = []
    for pairs in product(*map(unit_parts, ops)):
        parts, ks = zip(*pairs)
        table = Commutator(*parts, trunc) if len(parts) == 2 else row_table(*parts, trunc)
        vac = table.state_id(VACUUM)
        out.append((Fraction(dict(table.row(vac)).get(vac, 0), table.den), sum(ks)))
    return out
