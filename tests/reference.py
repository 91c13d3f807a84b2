"""Reference constructors the test modules share; the package itself needs
neither, since it reaches brackets only through algebra.paired_bracket."""

from fractions import Fraction

from virfock.algebra import ZERO, Algebra, FieldKind, Mode, _doubled, paired_bracket, require_members


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
