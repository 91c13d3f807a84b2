"""Level-truncated Fock modules: basis enumeration and exact mode action.

A basis state is a canonically ordered product of creation modes applied to
the vacuum, together with a power of the boson zero mode a†[0] tracked
separately (its level is zero, so the level cap alone would not bound it).
Fermionic reordering signs are counted against the canonical order, one
factor of -1 per transposition of two odd modes.

Truncation is an explicit contract: producing a state beyond the caps raises
TruncationOverflowError instead of silently dropping amplitude, because a
silently truncated commutator check would be unsound.  Callers restrict
their probes to the safe window of the operators they apply
(operators.safe_ids: the state's level plus the operators' positive shifts
within the level cap, and room for one a†[0] per operator), inside which
the level grading guarantees nothing ever leaves the truncation.

The basis of one truncation is enumerated once per mode kinds and zero
modes, and shared by every algebra that has them; a state's id is its
position in that tuple.  A single mode acts through its ModeTable, one per
(algebra, truncation, mode), the 2048 most recently used kept, whose row i
is ((j, w), ...) with x|basis[i]> = sum of (w/bd)|basis[j]>, w an integer
and bd the algebra's bracket denominator.  Rows are built on demand and
kept, so the operator and verification layers run on integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import (
    Algebra,
    FieldKind,
    Frozen,
    Mode,
    VirfockError,
    is_creator,
    paired_numerator,
    require_members,
)


class TruncationOverflowError(VirfockError):
    """A produced basis state exceeds the truncation caps.

    The caller decides whether its context makes the evaluation sound; this
    error is a signal, never silently swallowed by the engine itself.
    """


class Truncation(Frozen):
    """Caps for a truncated Fock module.

    level_cap bounds the total level (sum of creator indices), a Fraction,
    and two_cap, outside the key, is twice it as an int; zero_mode_cap
    bounds the a†[0] occupancy and only matters for algebras with zero modes.
    """

    _fields = ("level_cap", "zero_mode_cap")

    def __init__(self, level_cap, zero_mode_cap: int = 0):
        cap = Fraction(level_cap)
        if cap < 0 or cap.denominator not in (1, 2):
            raise ValueError("level_cap must be a non-negative half-integer multiple")
        if zero_mode_cap < 0:
            raise ValueError("zero_mode_cap must be non-negative")
        vars(self).update(level_cap=cap, zero_mode_cap=zero_mode_cap, two_cap=int(2 * cap))


class BasisState(NamedTuple):
    """Normal-ordered creator product applied to the vacuum.

    creators is sorted by (kind, index) with strictly positive indices;
    zero_occ is the power of a†[0].  The stored tuple order is the operator
    order (leftmost acts last), which fixes the sign of fermionic states.
    """

    creators: tuple = ()
    zero_occ: int = 0

    @property
    def two_level(self) -> int:
        """Twice the level, an exact integer on both mode ladders."""
        return sum(m.two for m in self.creators)

    @property
    def level(self) -> Fraction:
        return Fraction(self.two_level, 2)

    def __str__(self):
        parts = [str(m) for m in self.creators]
        if self.zero_occ == 1:
            parts.append("a†[0]")
        elif self.zero_occ > 1:
            parts.append(f"a†[0]^{self.zero_occ}")
        return "".join(parts) + "|0⟩"


VACUUM = BasisState()


def accumulate(acc: dict, pairs, scale=1) -> dict:
    """Add scale·q into acc for each (key, q) of pairs, dropping keys whose
    sum cancels to zero; returns acc.  Integer amplitudes stay integers."""
    for key, q in pairs:
        val = acc.get(key, 0) + scale * q
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def _state_key(state: BasisState):
    # the canonical order (level, zero occupancy, creators), the level doubled
    return (state.two_level, state.zero_occ, tuple(m.sort_key for m in state.creators))


@lru_cache(maxsize=None)
def _basis(kinds: tuple, has_zero_modes: bool, trunc: Truncation) -> tuple:
    """(states, index, two_levels) of the module of the given mode kinds;
    every algebra with these kinds and zero modes shares it."""
    modes = []
    for kind in kinds:
        two = 1 if kind.half_integer_moded else 2
        while two <= trunc.two_cap:  # levels doubled, as ints
            modes.append(Mode(kind, two))
            two += 2
    modes.sort(key=lambda m: m.sort_key)

    combos = []

    def grow(i, prefix, remaining):
        combos.append(tuple(prefix))
        for j in range(i, len(modes)):
            m = modes[j]
            if m.two > remaining:
                continue
            prefix.append(m)
            # odd kinds are nilpotent: advance past this mode
            grow(j + 1 if m.parity else j, prefix, remaining - m.two)
            prefix.pop()

    grow(0, [], trunc.two_cap)

    occs = range(trunc.zero_mode_cap + 1) if has_zero_modes else (0,)
    states = tuple(sorted((BasisState(c, z) for c in combos for z in occs), key=_state_key))
    return (states, {state: i for i, state in enumerate(states)},
            tuple(state.two_level for state in states))


def enumerate_basis(algebra: Algebra, trunc: Truncation) -> tuple:
    """All basis states within the truncation, each once, in canonical order.

    Canonical order is by (level, zero occupancy, creator tuple); the level-0
    sector is exactly the vacuum when zero_mode_cap = 0.  Computed once per
    (mode kinds, zero modes, truncation), so the reduced boson algebras of
    every M share one tuple; it is shared by every caller.
    """
    return _basis(algebra.kinds, algebra.has_zero_modes, trunc)[0]


class IdRows:
    """A linear map on the basis of one truncation, as integer rows by state id.

    map|basis[i]> = sum of (n / den)|basis[j]> over (j, n) in row(i); each
    row lists every image state once, with a nonzero integer.  Subclasses
    build the rows (_build); row keeps each in a dict by state id, since most
    tables are asked for few rows, and a row whose build raises is never
    stored, so it raises again each time it is asked for.
    """

    __slots__ = ("algebra", "trunc", "den", "basis", "index", "rows")

    def __init__(self, algebra: Algebra, trunc: Truncation, den: int):
        self.algebra, self.trunc, self.den = algebra, trunc, den
        self.basis, self.index, _ = _basis(algebra.kinds, algebra.has_zero_modes, trunc)
        self.rows = {}

    def state_id(self, state: BasisState) -> int:
        i = self.index.get(state)
        if i is None:
            raise TruncationOverflowError(f"state {state} is not a basis state within {self.trunc}")
        return i

    def row(self, i: int) -> tuple:
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = self._build(i)
        return row

    def apply(self, pairs) -> dict:
        """The map applied to sum of n|basis[j]> over the (j, n) of pairs, as
        the dict {image id: integer} over den times the input's denominator."""
        acc = {}
        for j, n in pairs:
            accumulate(acc, self.row(j), n)
        return acc


class ModeTable(IdRows):
    """One mode on one truncation; den is the algebra's bracket denominator.

    A row that would leave the caps raises TruncationOverflowError every
    time it is asked for.  paired[kind], read once per table, is [x, c} over
    den for c of that kind at -x: paired_numerator halved, as index-weighted
    brackets are integer-moded.
    """

    __slots__ = ("mode", "paired")

    def __init__(self, algebra: Algebra, x: Mode, trunc: Truncation):
        require_members((x,), algebra)
        super().__init__(algebra, trunc, algebra.bracket_denominator)
        self.mode, self.paired = x, {k: paired_numerator(x, Mode(k, -x.two), algebra) // 2 for k in algebra.kinds}

    def _build(self, i: int) -> tuple:
        x, trunc, den, index = self.mode, self.trunc, self.den, self.index
        state = self.basis[i]
        creators, z = state.creators, state.zero_occ
        if is_creator(x):
            if x.two == 0:  # a†[0]
                if z + 1 > trunc.zero_mode_cap:
                    raise TruncationOverflowError(
                        f"a†[0] occupancy {z + 1} exceeds zero_mode_cap {trunc.zero_mode_cap} on {state}")
                return ((index[BasisState(creators, z + 1)], den),)
            if x.parity and x in creators:
                return ()
            if state.two_level + x.two > trunc.two_cap:
                raise TruncationOverflowError(
                    f"level {state.level + x.index} exceeds level_cap {trunc.level_cap} "
                    f"applying {x} to {state}")
            pos = 0
            crossed_odd = 0
            for c in creators:
                if c.sort_key < x.sort_key:
                    pos += 1
                    crossed_odd += c.parity
                else:
                    break
            sign = -1 if (x.parity and crossed_odd % 2) else 1
            return ((index[BasisState(creators[:pos] + (x,) + creators[pos:], z)], sign * den),)

        # annihilator: contract against each creator in turn, tracking
        # crossings; x and every creator of a basis state are members
        acc = {}
        sign = 1
        for j, c in enumerate(creators):
            if x.two + c.two == 0 and (val := self.paired[c.kind]):
                image = index[BasisState(creators[:j] + creators[j + 1:], z)]
                accumulate(acc, ((image, sign * val),))
            if x.parity and c.parity:
                sign = -sign
        if x.two == 0 and x.kind is FieldKind.A and z > 0:
            # a[0] against (a†[0])^z: [a[0], a†[0]] = -1 per power
            accumulate(acc, ((index[BasisState(creators, z - 1)], -z * den),))
        return tuple(acc.items())


@lru_cache(maxsize=2048)
def _apply_to_basis(algebra: Algebra, x: Mode, trunc: Truncation) -> ModeTable:
    """The mode table of a single mode on one truncation.  The 2048 most recently
    used are kept: `--scenario all --level 4 --mmax 6` uses 304, a reduced-boson sweep 24 at any M."""
    return ModeTable(algebra, x, trunc)
