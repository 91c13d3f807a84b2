"""Exact mode algebras for free-field realizations of the Virasoro algebra.

All scalars are `fractions.Fraction`: every bracket, amplitude and central
charge in this package is exact, never floating point.

Mode indices are half-integers stored doubled (``two = 2*index``), so integer
and half-odd-integer ladders share one exact, cheaply ordered encoding.

Conventions fixed across the whole package:

* a mode with positive index creates, a mode with negative index annihilates;
  the boson zero modes split as: a†[0] creates (its power is the zero-mode
  occupancy of a basis state) while a[0] annihilates the vacuum;
* the level of a mode equals its index, so creators carry positive level and
  an operator labelled ``m`` shifts level by exactly ``m``;
* an algebra's bracket [x, y} is the value of the graded commutator,
  i.e. a commutator for even pairs and an anticommutator for odd pairs;
  quantization is "bracket value = graded commutator value", with no i or
  hbar factor.

Five concrete algebras are provided.  Four carry the module families of
interest; the fifth is an even-parity copy of the fermion pair used only to
probe the spin-statistics degeneracy of constraint systems:

====================  =================================  =================
algebra               nonzero canonical bracket          mode parity
====================  =================================  =================
boson-unconstrained   [a†[m], a[n]]  = delta(m+n)        even
fermion-unconstrained {b[r], b†[s]}  = delta(r+s)        odd (r,s half-odd)
reduced-boson(M)      [a†[m], a†[n]] = -(M/2) m d(m+n)   even (m,n nonzero)
reduced-fermion       {b[r], b[s]}   = (1/2) delta(r+s)  odd
bosonized-fermion     [b†[r], b[s]]  = delta(r+s)        even (half-odd r,s)
====================  =================================  =================
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple


class VirfockError(Exception):
    """Base class for domain errors raised by this package."""


class AlgebraMismatchError(VirfockError):
    """Modes or expressions from different algebras were combined."""


ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def parse_rational(text) -> Fraction:
    """Parse ``p/q`` (or a plain integer literal) into an exact Fraction."""
    return Fraction(str(text).strip())


def format_rational(value) -> str:
    """Render an exact scalar as ``p/q``, with ``/q`` omitted when q = 1."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


class FieldKind(Enum):
    """Which oscillator family a mode belongs to.

    A/ADAG are the integer-moded boson pair, B/BDAG the half-odd-integer
    fermion pair.  RED_ADAG and RED_B are the surviving modes of the two
    constrained (Dirac-reduced) algebras.  EVEN_B/EVEN_BDAG are a bosonic
    copy of the fermion pair, present only so the constraint classifier can
    discover that the fermionic constraint family degenerates (C = 0) when
    given the wrong statistics.
    """

    # value, symbol, parity (1 for odd kinds), half-odd-integer moded
    A = 0, "a", 0, False
    ADAG = 1, "a†", 0, False
    B = 2, "b", 1, True
    BDAG = 3, "b†", 1, True
    RED_ADAG = 4, "a†", 0, False
    RED_B = 5, "b", 1, True
    EVEN_B = 6, "b", 0, True
    EVEN_BDAG = 7, "b†", 0, True

    # members are singletons compared by identity, so the identity hash in C
    # serves; Enum's own hashes the name in Python, on every Mode and state key
    __hash__ = object.__hash__

    def __new__(cls, value, symbol, parity, half_integer_moded):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.symbol, kind.parity, kind.half_integer_moded = symbol, parity, half_integer_moded
        return kind


class Mode(NamedTuple):
    """A single oscillator generator: field kind plus half-integer index."""

    kind: FieldKind
    two: int  # doubled index, exact for both integer and half-odd ladders

    @property
    def index(self) -> Fraction:
        return Fraction(self.two, 2)

    @property
    def parity(self) -> int:
        return self.kind.parity

    @property
    def sort_key(self):
        return (self.kind.value, self.two)

    def __str__(self):
        if self.two % 2 == 0:
            idx = str(self.two // 2)
        else:
            idx = f"{self.two}/2"
        return f"{self.kind.symbol}[{idx}]"


def _doubled(index, half_odd: bool, what: str) -> int:
    q = Fraction(index)
    if q.denominator not in (1, 2):
        raise ValueError(f"{what} index must be integer or half-integer, got {q}")
    two = q.numerator * (2 // q.denominator)
    if half_odd and two % 2 == 0:
        raise ValueError(f"{what} modes live on half-odd-integer indices, got {q}")
    if not half_odd and two % 2 != 0:
        raise ValueError(f"{what} modes live on integer indices, got {q}")
    return two


def a(n) -> Mode:
    """Weight-0 boson mode a[n], n integer."""
    return Mode(FieldKind.A, _doubled(n, False, "a"))


def adag(n) -> Mode:
    """Weight-1 boson mode a†[n], n integer."""
    return Mode(FieldKind.ADAG, _doubled(n, False, "a†"))


def b(r) -> Mode:
    """Fermion mode b[r], r half-odd-integer."""
    return Mode(FieldKind.B, _doubled(r, True, "b"))


def bdag(r) -> Mode:
    """Fermion mode b†[r], r half-odd-integer."""
    return Mode(FieldKind.BDAG, _doubled(r, True, "b†"))


def even_b(r) -> Mode:
    """Even-parity copy of b[r] (spin-statistics probe only)."""
    return Mode(FieldKind.EVEN_B, _doubled(r, True, "even b"))


def even_bdag(r) -> Mode:
    """Even-parity copy of b†[r] (spin-statistics probe only)."""
    return Mode(FieldKind.EVEN_BDAG, _doubled(r, True, "even b†"))


class Frozen:
    """Base of the immutable value types that key the caches.

    A subclass names its fields in _fields and sets them once, in __init__,
    through vars(self).  An instance then equals only an instance of its own
    type with an equal key, _make_key() (by default the fields' values), and
    refuses assignment.  The key and its hash are made once, when first
    needed, and kept in the instance dict.
    """

    _fields = ()
    _key = _hash = None  # set in the instance dict when first needed; a cached_property would lock

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _make_key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _keyed(self) -> tuple:
        if (key := self._key) is None:
            key = self.__dict__["_key"] = self._make_key()
        return key

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._keyed() == other._keyed())

    def __hash__(self):
        if (value := self._hash) is None:
            value = self.__dict__["_hash"] = hash(self._keyed())
        return value

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Algebra(Frozen):
    """One of the concrete mode algebras (carrying M if needed) and its brackets.

    brackets maps a (kind of x, kind of y) pair to its nonzero [x, y} when the
    two indices sum to zero; with index_weighted the entry is further scaled
    by the index of x.  Both are fixed by name and M, so they stay out of
    _fields, which key the caches and every mismatch check.  The bracket
    denominator is computed once per instance.
    """

    _fields = ("name", "M", "kinds", "has_zero_modes")

    def __init__(self, name: str, M: Fraction | None = None, kinds: tuple = (), has_zero_modes: bool = False,
                 brackets: dict | None = None, index_weighted: bool = False):
        vars(self).update(name=name, M=M, kinds=kinds, has_zero_modes=has_zero_modes,
                          brackets={} if brackets is None else brackets, index_weighted=index_weighted)

    @cached_property
    def bracket_denominator(self) -> int:
        """The lcm of the bracket values' denominators; every bracket value,
        index-weighted ones included, is an integer over it."""
        return math.lcm(*(q.denominator for q in self.brackets.values()))

    def __str__(self):
        if self.M is not None:
            return f"{self.name}(M={self.M})"
        return self.name


_A, _ADAG, _B, _BDAG = FieldKind.A, FieldKind.ADAG, FieldKind.B, FieldKind.BDAG
_EVEN_B, _EVEN_BDAG = FieldKind.EVEN_B, FieldKind.EVEN_BDAG

BOSON = Algebra("boson-unconstrained", None, (_A, _ADAG), True,
                {(_ADAG, _A): ONE, (_A, _ADAG): -ONE})
FERMION = Algebra("fermion-unconstrained", None, (_B, _BDAG), False,
                  {(_B, _BDAG): ONE, (_BDAG, _B): ONE})
REDUCED_FERMION = Algebra("fermion-reduced", None, (FieldKind.RED_B,), False,
                          {(FieldKind.RED_B, FieldKind.RED_B): HALF})
BOSONIZED_FERMION = Algebra("bosonized-fermion", None, (_EVEN_B, _EVEN_BDAG), False,
                            {(_EVEN_BDAG, _EVEN_B): ONE, (_EVEN_B, _EVEN_BDAG): -ONE})


@lru_cache(maxsize=512)
def reduced_boson(M) -> Algebra:
    """Reduced boson algebra; M scales the brackets and must be nonzero.  The
    512 most recently used are kept, so a sweep over new M stops growing."""
    M = Fraction(M)
    if M == 0:
        raise ValueError("reduced boson algebra needs M != 0 "
                         "(the brackets scale with M and the generator kernel carries 1/M)")
    # [a†[m], a†[n]] = -(M/2) m delta(m+n)
    return Algebra("boson-reduced", M, (FieldKind.RED_ADAG,), False,
                   {(FieldKind.RED_ADAG, FieldKind.RED_ADAG): -M / 2}, True)


def require_members(modes, algebra: Algebra):
    """Raise AlgebraMismatchError unless every mode belongs to the algebra."""
    for x in modes:
        if x.kind not in algebra.kinds:
            raise AlgebraMismatchError(f"mode {x} does not belong to {algebra}")


def paired_bracket(x: Mode, y: Mode, algebra: Algebra) -> Fraction:
    """[x, y} of two member modes whose indices sum to zero: the algebra's
    bracket table entry, weighted by the index of x where the algebra says so.

    The one lookup behind the mode tables and every linear bracket; the
    caller has checked membership and pairing.
    """
    value = algebra.brackets.get((x.kind, y.kind), ZERO)
    return value * x.index if algebra.index_weighted else value


def is_creator(x: Mode) -> bool:
    """Positive-index modes create; among the zero modes only a†[0] does."""
    return x.two > 0 or (x.two == 0 and x.kind is FieldKind.ADAG)
