"""Exact models of the rank-one and rank-two affine Coxeter complexes.

The model apartment is R^n with exact rational coordinates (n = 1 or 2) and
a fixed list of positive root functionals with integer coefficients:

* type ``A1~``: the line, with the single functional f(x) = x;
* type ``A2~``: the plane, with f1(x, y) = x, f2(x, y) = y and f3 = f1 + f2.

This is one of several isomorphic coordinate presentations; it is chosen so
that every wall is a level set {f = k} at an integer k and every point of
the coweight lattice Z^n is a special vertex.  No other presentation is
assumed anywhere.  All arithmetic is exact: there are no floats and no
tolerance parameters in this module.

No command runs this model; it lives beside the tests as the oracle of
acceptance criterion 10, and ``test_coxeter.py`` checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class DegenerateSegment(ValueError):
    """Raised for empty segments / zero translation vectors."""


Coeffs = tuple[Fraction, ...]


def _fractions(values: Sequence) -> Coeffs:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class ApartmentVector:
    """A point (or translation vector) of the model apartment, exact."""

    coords: Coeffs

    def __post_init__(self):
        object.__setattr__(self, "coords", _fractions(self.coords))

    def __sub__(self, other: "ApartmentVector") -> "ApartmentVector":
        return ApartmentVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __add__(self, other: "ApartmentVector") -> "ApartmentVector":
        return ApartmentVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, n) -> "ApartmentVector":
        c = Fraction(n)
        return ApartmentVector(tuple(a * c for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class Wall:
    """The wall {x : f_{root_index}(x) = level} at an integer level."""

    root_index: int
    level: int


@dataclass(frozen=True)
class RootSystem:
    type_tag: str
    positive_root_functionals: tuple[Coeffs, ...]
    coroot_translations: tuple[Coeffs, ...]
    # interior sample points, one per nonempty open sign cone; used to decide
    # sector feasibility exactly
    _sample_points: tuple[Coeffs, ...]

    @property
    def rank(self) -> int:
        return len(self.positive_root_functionals[0])

    def evaluate(self, root_index: int, v: ApartmentVector) -> Fraction:
        f = self.positive_root_functionals[root_index]
        return sum((c * x for c, x in zip(f, v.coords)), Fraction(0))


def root_system(type_tag: str) -> RootSystem:
    """The supported affine types: "A1~" and "A2~"."""
    if type_tag == "A1~":
        return RootSystem(
            type_tag="A1~",
            positive_root_functionals=(_fractions([1]),),
            coroot_translations=(_fractions([1]),),
            _sample_points=(_fractions([1]), _fractions([-1])),
        )
    if type_tag == "A2~":
        half = Fraction(1, 2)
        samples = tuple(
            _fractions(p)
            for p in [(1, half), (1, -half), (1, -2), (-1, 2), (-1, half), (-1, -half)]
        )
        return RootSystem(
            type_tag="A2~",
            positive_root_functionals=(
                _fractions([1, 0]),
                _fractions([0, 1]),
                _fractions([1, 1]),
            ),
            coroot_translations=(_fractions([1, 0]), _fractions([0, 1]), _fractions([1, 1])),
            _sample_points=samples,
        )
    raise ValueError(f"unsupported type tag {type_tag!r} (expected 'A1~' or 'A2~')")


@dataclass(frozen=True)
class Sector:
    """An open sign cone {x : sign_i * f_i(x - base) > 0 for all i}.

    Construction rejects sign patterns whose cone is empty (for A2~ the
    patterns (+,+,-) and (-,-,+) are infeasible because f3 = f1 + f2).
    """

    base: ApartmentVector
    sign_pattern: tuple[int, ...]
    rs: RootSystem

    def __post_init__(self):
        signs = tuple(self.sign_pattern)
        if len(signs) != len(self.rs.positive_root_functionals) or any(
            s not in (1, -1) for s in signs
        ):
            raise ValueError("sign pattern must be a +/-1 per positive root functional")
        object.__setattr__(self, "sign_pattern", signs)
        if not self._feasible():
            raise ValueError(f"empty sector cone for sign pattern {signs}")

    def _feasible(self) -> bool:
        for point in self.rs._sample_points:
            v = ApartmentVector(point)
            if all(
                s * self.rs.evaluate(i, v) > 0 for i, s in enumerate(self.sign_pattern)
            ):
                return True
        return False

    def contains(self, x: ApartmentVector) -> bool:
        d = x - self.base
        return all(
            s * self.rs.evaluate(i, d) > 0 for i, s in enumerate(self.sign_pattern)
        )


def walls_crossed(
    seg_start: ApartmentVector, seg_end: ApartmentVector, rs: RootSystem
) -> set[Wall]:
    """All walls met by the closed segment, by exact sign evaluation.

    A wall {f = k} is in the result iff f(seg_start) and f(seg_end) lie
    strictly on opposite sides of k or one endpoint lies on the wall.  A
    functional constant on the segment contributes nothing, even when the
    whole segment lies inside one of its walls.
    """
    if (seg_end - seg_start).is_zero():
        raise DegenerateSegment("segment endpoints coincide")
    out: set[Wall] = set()
    for i in range(len(rs.positive_root_functionals)):
        a = rs.evaluate(i, seg_start)
        b = rs.evaluate(i, seg_end)
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        for k in range(math.ceil(lo), math.floor(hi) + 1):
            out.add(Wall(i, k))
    return out


def is_strongly_regular_translation(v: ApartmentVector, rs: RootSystem) -> bool:
    """True iff every positive root functional is nonzero on v.

    Equivalently the translation direction lies in an open Weyl chamber, so
    the translation axis crosses walls of every family.
    """
    if v.is_zero():
        raise DegenerateSegment("zero translation vector")
    return all(rs.evaluate(i, v) != 0 for i in range(len(rs.positive_root_functionals)))


def construct_strongly_regular_translation(
    rs: RootSystem,
) -> tuple[ApartmentVector, tuple[ApartmentVector, ApartmentVector]]:
    """A lattice translation in an open chamber, with its two special vertices.

    Returns (v, (0, v)); the two vertices lie in the interiors of opposite
    sectors based at any interior point of the segment [0, v].
    """
    if rs.type_tag == "A1~":
        v = ApartmentVector((1,))
    else:
        v = ApartmentVector((2, 1))
    assert is_strongly_regular_translation(v, rs)
    zero = ApartmentVector((0,) * rs.rank)
    return v, (zero, v)


def opposite_sector_criterion(
    v1: ApartmentVector, v2: ApartmentVector, rs: RootSystem
) -> bool:
    """True iff the segment [v1, v2] points into an open chamber direction.

    For special vertices this says exactly that v1 and v2 lie in the
    interiors of two opposite sectors of the model apartment, so the line
    through them is strongly regular.
    """
    d = v2 - v1
    if d.is_zero():
        raise DegenerateSegment("equal special vertices")
    return is_strongly_regular_translation(d, rs)
