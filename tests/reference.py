"""Reference constructors and the direct oracle the test modules share; the
package itself needs none of them: it reaches brackets only through
algebra.paired_numerator, the central charge through cached vacuum forms, and
each generator through its family's slots."""

from fractions import Fraction
from itertools import product

from virfock.algebra import (BOSON, FERMION, ONE, REDUCED_FERMION, ZERO, Algebra, FieldKind, Mode, _doubled,
                             reduced_boson, require_members)
from virfock.fock import VACUUM
from virfock.operators import BilinearTerm, Commutator, OperatorSpec, build_L, row_table
from virfock.verify import OracleInconsistencyError, require_oracle_caps


def build_K(m: int) -> OperatorSpec:
    """sum_r r :a†[m-r] a[r]: over the unconstrained boson algebra, the part of
    boson-unconstrained's L_m that holds neither M nor lambda."""
    term = BilinearTerm(FieldKind.ADAG, FieldKind.A, int(m), ZERO, Fraction(1))
    return OperatorSpec(BOSON, Fraction(m), (term,))


def red_adag(n) -> Mode:
    """Surviving mode a†[n] of the reduced boson algebra, n a nonzero integer."""
    two = _doubled(n, False, "reduced a†")
    if two == 0:
        raise ValueError("the reduced boson algebra has no zero mode; a†[0] is constrained away")
    return Mode(FieldKind.RED_ADAG, two)


def red_b(r) -> Mode:
    """Surviving mode b[r] of the reduced fermion algebra, r half-odd-integer."""
    return Mode(FieldKind.RED_B, _doubled(r, True, "reduced b"))


def paired_bracket(x: Mode, y: Mode, algebra: Algebra) -> Fraction:
    """[x, y} of two member modes whose indices sum to zero, in Fractions: the
    algebra's bracket table entry, weighted by the index of x where the algebra
    says so.  Read off the table here, independent of algebra.paired_numerator."""
    value = algebra.brackets.get((x.kind, y.kind), ZERO)
    return value * x.index if algebra.index_weighted else value


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


def scale(c, op: OperatorSpec) -> OperatorSpec:
    """c·op with every scalar slot scaled, the composition reference's scaling;
    c = 0 gives the empty operator of op's algebra, shift and parity."""
    c = Fraction(c)
    if not c:
        return OperatorSpec(op.algebra, op.shift, (), (), ZERO, op.parity)
    return OperatorSpec(op.algebra, op.shift,
                        tuple(BilinearTerm(t.left, t.right, t.m, c * t.alpha, c * t.beta) for t in op.bilinears),
                        tuple((x, c * q) for x, q in op.linear), c * op.constant, op.parity)


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


# The generator builders as they were before each family stated its L_m as slots, each spec
# formed from the integers of M and lam: build_L is held equal to them field for field.
def _reduced_boson_kernel(M: Fraction) -> tuple:
    return reduced_boson(M), Fraction(M.denominator, M.numerator)  # the algebra and 1/M; raises for M = 0


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


REFERENCE_L = {"boson-unconstrained": _boson_L, "boson-reduced": _reduced_boson_L,
               "fermion-unconstrained": _fermion_L, "fermion-reduced": _reduced_fermion_L}
