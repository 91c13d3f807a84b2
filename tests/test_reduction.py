"""The paper's reduction, stated as a test: the reduced generators are the
unconstrained ones with their second-class constraints solved in.

The boson constraints chi_r = a†[r] - M r a[r] and a[0] solve to
a[r] = a†[r]/(M r) for r != 0 and a[0] = a†[0] = 0; the fermion constraints
chi_r = b[r] - b†[r] to b† = b.  `reduce` substitutes these into a generator
and reads every kept mode as the reduced algebra's; `boson-reduced` and
`fermion-reduced` must come out, as OperatorSpecs, and their central charges
must drop by exactly 1 and 1/2.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from virfock.algebra import BOSON, FieldKind, Mode, REDUCED_FERMION, reduced_boson
from virfock.operators import BilinearTerm, OperatorSpec, _norm_linear, build_L
from virfock.verify import ScenarioParams, default_truncation, extract_central_charge

H = Fraction(1, 2)
_KEPT = {FieldKind.A: FieldKind.RED_ADAG, FieldKind.ADAG: FieldKind.RED_ADAG,
         FieldKind.B: FieldKind.RED_B, FieldKind.BDAG: FieldKind.RED_B}


def reduce(op: OperatorSpec, M: Fraction, solve_a=lambda r, M: 1 / (M * r)) -> OperatorSpec:
    """op with the solved constraints substituted in: a[r] = solve_a(r, M)·a†[r]
    and a[0] = a†[0] = 0 over the boson, b† = b over the fermion.

    A kernel sum_r (alpha + beta r) :X[m-r] a[r]: becomes sum_r c(r) :a†[m-r] a†[r]:
    with c(r) = (alpha + beta r)·solve_a(r, M), which must be affine in r: it is
    read at r = 1, 2 and checked at 3.  Its r = 0 and m - r = 0 terms drop with
    the reduced algebra's missing zero mode; a left factor a is not substituted.
    """
    boson = op.algebra == BOSON
    algebra = reduced_boson(M) if boson else REDUCED_FERMION

    def scale(kind, r):
        return solve_a(r, M) if kind is FieldKind.A else 1

    kernels = []
    for t in op.bilinears:
        assert t.left is not FieldKind.A
        c1, c2, c3 = ((t.alpha + t.beta * r) * scale(t.right, r) for r in (1, 2, 3))
        assert c3 - c2 == c2 - c1, f"{t} does not reduce to a kernel affine in r"
        kernels.append(BilinearTerm(_KEPT[t.left], _KEPT[t.right], t.m, 2 * c1 - c2, c2 - c1))
    linear = [(Mode(_KEPT[x.kind], x.two), c * scale(x.kind, x.index))
              for x, c in op.linear if x.two or not boson]
    return OperatorSpec(algebra, op.shift, tuple(kernels), _norm_linear(linear), op.constant, op.parity)


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_POINTS = (st.integers(-6, 6), _RATIONALS.filter(bool), _RATIONALS)


@settings(max_examples=200, deadline=None)
@given(*_POINTS)
@example(-1, Fraction(2, 3), Fraction(5, 4))  # L_-1 has no linear term
@example(2, Fraction(-2, 3), Fraction(0))  # nor has any L_m at lambda = 0
@example(0, Fraction(1), H)  # L_0 loses both zero modes
def test_the_reduction_gives_the_reduced_generators(m, M, lam):
    assert reduce(build_L("boson-unconstrained", m, M, lam), M) == build_L("boson-reduced", m, M, lam)
    # fermion-reduced ignores lambda: it is the lambda = 1/2 generator reduced
    assert reduce(build_L("fermion-unconstrained", m, M, H), M) == build_L("fermion-reduced", m, M, lam)


@pytest.mark.parametrize("m,M,lam", [(2, Fraction(1), H), (-1, Fraction(-2, 3), Fraction(0)),
                                     (0, Fraction(5, 4), Fraction(-1, 3))])
def test_a_reduction_without_the_inverse_factor_fails(m, M, lam):
    # a[r] = a†[r] in place of a†[r]/(M r): the kernel keeps its r weight
    wrong = reduce(build_L("boson-unconstrained", m, M, lam), M, solve_a=lambda r, M: 1)
    assert wrong != build_L("boson-reduced", m, M, lam)


def _oracle(family, M, lam) -> Fraction:
    return extract_central_charge(ScenarioParams(family, M, lam, default_truncation(family, 4, 2)))


@settings(max_examples=40, deadline=None)
@given(*_POINTS[1:])
@example(Fraction(-2, 3), Fraction(0))
@example(Fraction(1), H)
def test_the_reduction_lowers_c_by_the_removed_degrees_of_freedom(M, lam):
    # one boson pair for one reduced a†: 2 - 24 M lam^2 -> 1 - 24 M lam^2
    assert _oracle("boson-unconstrained", M, lam) - _oracle("boson-reduced", M, lam) == 1
    # one fermion pair for one reduced b, at lambda = 1/2: 1 -> 1/2
    assert _oracle("fermion-unconstrained", M, H) - _oracle("fermion-reduced", M, lam) == H
