"""The orbit algebra of bi-invariant kernels, via intersection numbers.

With K the stabilizer of the base vertex x0 and G the universal group, the
double cosets of K in G correspond to G-orbits on ordered vertex pairs; for
a vertex-transitive G those are classified by the K-orbit of the second
coordinate after translating the first to x0.  The color-preserving
transports lie in U(F) for every F (their local permutations are all
trivial), so the identification applies throughout.

Counting with the normalization mu(K) = 1 makes the convolution of orbit
indicators integer valued:

    N[i][j][k] = #{ y : (x0, y) in O_i and (y, z) in O_j }

for any z with (x0, z) in O_k.  The tensor is built in one pass per orbit k:
with z its representative, every y with |y| + d(y, z) <= R is visited once,
moved to the base by a transport, and counted under (class of y, class of
the image of z).  Such a y leaves the geodesic [x0, z] at some z[:m] and
goes at most (R - |z|) // 2 steps off it, so the build costs about one
transport per (orbit, y) pair, twice for orbits with a second member:
independence of the representative is re-verified there by recounting the
whole row.  Budgets are hard: a convolution either is computed exactly or
refuses (OutOfBudget), never silently truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

from .group import LocalGroup, OrbitTable, orbit_table
from .tree import Word, reduce_word

FORMAT_VERSION = 1


class OutOfBudget(ValueError):
    """A requested entry or convolution exceeds the computed radius budget."""


@dataclass(frozen=True)
class PairOrbit:
    """A G-orbit on ordered vertex pairs, anchored at the base vertex."""

    id: int
    representative: Word
    valency: int
    distance: int


def _transport(y: Word, z: Word) -> Word:
    """The word of z after the color-preserving move taking y to the base."""
    return reduce_word(tuple(reversed(y)), z)


def _near_geodesic(degree: int, z: Word, steps: int) -> Iterator[Word]:
    """Every y with |y| + d(y, z) <= |z| + 2 * steps, each exactly once.

    y leaves the geodesic [x0, z] at z[:m] and goes s <= steps further;
    its first step off is neither back along z nor on along it.
    """
    for m in range(len(z) + 1):
        yield z[:m]
        blocked = z[max(m - 1, 0) : m + 1]
        layer = [z[:m] + (c,) for c in range(degree) if c not in blocked]
        for s in range(steps):
            if s:
                layer = [w + (c,) for w in layer for c in range(degree) if c != w[-1]]
            yield from layer


class StructureConstants:
    """The intersection-number tensor of the orbit algebra, exact and sparse.

    Entries are computed for every (i, j) with distance(i) + distance(j)
    within the radius budget and stored sparsely; lookups outside the budget
    raise OutOfBudget rather than guessing.  The assembled object is
    immutable and freely shareable.
    """

    def __init__(self, F: LocalGroup, radius: int):
        self.F = F
        self.radius_budget = radius
        self.table: OrbitTable = orbit_table(F, radius)
        self._class_of: dict[Word, int] = {
            w: c.id for c in self.table.classes for w in c.members
        }
        self.orbits: list[PairOrbit] = [
            PairOrbit(c.id, c.representative, c.size, c.distance)
            for c in self.table.classes
        ]
        self._tensor: dict[tuple[int, int, int], int] = {}
        self._by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._build()

    # -- construction -------------------------------------------------------
    def _row(self, z: Word) -> Counter[tuple[int, int]]:
        """N[i][j][k] for the orbit k of z, keyed by (i, j), nonzero only."""
        class_of = self._class_of
        steps = (self.radius_budget - len(z)) // 2
        return Counter(
            (class_of[y], class_of[_transport(y, z)])
            for y in _near_geodesic(self.F.degree, z, steps)
        )

    def _build(self):
        for k in self.table.classes:
            row = self._row(k.representative)
            if k.size > 1 and self._row(min(k.members - {k.representative})) != row:
                raise RuntimeError(
                    "intersection number depends on the representative; "
                    "orbit table is inconsistent"
                )
            for (i, j), n in row.items():
                self._tensor[(i, j, k.id)] = n
                self._by_pair.setdefault((i, j), []).append((k.id, n))

    # -- queries -------------------------------------------------------------
    def in_budget(self, i: int, j: int) -> bool:
        return self.orbits[i].distance + self.orbits[j].distance <= self.radius_budget

    def n(self, i: int, j: int, k: int) -> int:
        if not self.in_budget(i, j):
            raise OutOfBudget(
                f"entry ({i},{j},{k}) needs radius "
                f"{self.orbits[i].distance + self.orbits[j].distance} > {self.radius_budget}"
            )
        return self._tensor.get((i, j, k), 0)

    def nonzero(self) -> Mapping[tuple[int, int, int], int]:
        """The stored entries, (i, j, k) -> N[i][j][k] != 0, read-only.

        Every key is in budget; an in-budget triple that is absent is 0.
        """
        return MappingProxyType(self._tensor)

    def products_of(self, i: int, j: int) -> list[tuple[int, int]]:
        if not self.in_budget(i, j):
            raise OutOfBudget(f"pair ({i},{j}) exceeds the radius budget")
        return list(self._by_pair.get((i, j), ()))

    def valency(self, i: int) -> int:
        return self.orbits[i].valency

    def distance(self, i: int) -> int:
        return self.orbits[i].distance

    def class_of_word(self, w: Word) -> int:
        try:
            return self._class_of[w]
        except KeyError:
            raise OutOfBudget(f"word at distance {len(w)} exceeds radius budget")

    def transpose(self, i: int) -> int:
        return self.class_of_word(tuple(reversed(self.orbits[i].representative)))

    def entries(self) -> list[tuple[int, int, int, int]]:
        return sorted((i, j, k, n) for (i, j, k), n in self._tensor.items())


def intersection_numbers(F: LocalGroup, radius: int) -> StructureConstants:
    return StructureConstants(F, radius)


@dataclass(frozen=True)
class KernelFunction:
    """A finitely supported kernel: exact rational coefficients per orbit."""

    coefficients: tuple[tuple[int, Fraction], ...]
    support_radius: int

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction], sc: StructureConstants):
        clean = {i: Fraction(c) for i, c in coeffs.items() if c}
        radius = max((sc.distance(i) for i in clean), default=0)
        return cls(tuple(sorted(clean.items())), radius)

    @classmethod
    def unit(cls, sc: StructureConstants):
        return cls.from_dict({0: Fraction(1)}, sc)

    @classmethod
    def indicator(cls, sc: StructureConstants, orbit_id: int):
        return cls.from_dict({orbit_id: Fraction(1)}, sc)

    def coefficient(self, orbit_id: int) -> Fraction:
        for i, c in self.coefficients:
            if i == orbit_id:
                return c
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, KernelFunction) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)


def convolve(phi: KernelFunction, psi: KernelFunction, sc: StructureConstants) -> KernelFunction:
    """(phi * psi)(k) = sum_ij phi(i) psi(j) N[i][j][k]; exact or refused."""
    if phi.support_radius + psi.support_radius > sc.radius_budget:
        raise OutOfBudget(
            f"support radii {phi.support_radius}+{psi.support_radius} exceed "
            f"budget {sc.radius_budget}"
        )
    out: dict[int, Fraction] = {}
    for i, ci in phi.coefficients:
        for j, cj in psi.coefficients:
            for k, n in sc.products_of(i, j):
                out[k] = out.get(k, Fraction(0)) + ci * cj * n
    return KernelFunction.from_dict(out, sc)


@dataclass(frozen=True)
class HeckeVerdict:
    """Commutativity verdict, certified up to the computed radius."""

    radius: int
    commutative: bool
    witness: tuple[int, int, int, int, int] | None = None  # (i, j, k, n_ij, n_ji)

    def describe(self) -> str:
        if self.commutative:
            return f"commutative_up_to_{self.radius}"
        i, j, k, nij, nji = self.witness
        return f"noncommutative(i={i},j={j},k={k},N_ij^k={nij},N_ji^k={nji})"


def commutativity_of(sc: StructureConstants) -> HeckeVerdict:
    """The lexicographically first (i < j, k) with N_ij^k != N_ji^k, if any.

    An asymmetric triple has a nonzero entry on at least one side, so only
    the stored entries are scanned.
    """
    tensor = sc.nonzero()
    asymmetric = [
        (min(i, j), max(i, j), k)
        for (i, j, k), n in tensor.items()
        if i != j and n != tensor.get((j, i, k), 0)
    ]
    if not asymmetric:
        return HeckeVerdict(sc.radius_budget, True)
    i, j, k = min(asymmetric)
    witness = (i, j, k, tensor.get((i, j, k), 0), tensor.get((j, i, k), 0))
    return HeckeVerdict(sc.radius_budget, False, witness)


def commutativity_report(F: LocalGroup, radius: int) -> HeckeVerdict:
    """Scan all in-budget triples; first asymmetry wins, else commutative."""
    if radius < 2:
        raise ValueError("commutativity scans need radius >= 2")
    return commutativity_of(intersection_numbers(F, radius))
