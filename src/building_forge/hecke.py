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
with z its representative, every y with |y| + d(y, z) <= R is visited once
and counted under (class of y, class of z seen from y).  Such a y leaves
the geodesic [x0, z] at some z[:m] along a path p of at most
(R - |z|) // 2 steps, so y = z[:m] + p, and the transport moving y to
the base sends z to reversed(p) + z[m:], a word already reduced: each row
costs two class lookups per y and no word reduction.  Orbits with a second
member are recounted there by the plain word transport, which re-verifies
both the independence of the representative and the split.  Budgets are
hard: a convolution either is computed exactly or refuses (OutOfBudget),
never silently truncated.

The commutativity verdict needs the whole tensor only on the commutative
side: an asymmetric triple at radius r stays asymmetric at every larger
radius, and when its first pair starts at the first sphere-1 orbit no pair
added by a larger radius comes before it (``commutativity_report``).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .group import LocalGroup, OrbitClass, OrbitTable, orbit_table
from .tree import OutOfBudget, Word, reduce_word

if TYPE_CHECKING:
    from fractions import Fraction

FORMAT_VERSION = 1


def _transport(y: Word, z: Word) -> Word:
    """The word of z after the color-preserving move taking y to the base."""
    return reduce_word(tuple(reversed(y)), z)


def _near_geodesic(degree: int, z: Word, steps: int) -> tuple[list[Word], list[Word]]:
    """Every y with |y| + d(y, z) <= |z| + 2 * steps, each exactly once, and
    beside each the word of z seen from y.

    y = z[:m] + p leaves the geodesic [x0, z] at z[:m] along a path p of at
    most ``steps`` letters, whose first is neither back along z nor on along
    it; seen from y, z is reversed(p) + z[m:].
    """
    ys: list[Word] = []
    moved: list[Word] = []
    for m in range(len(z) + 1):
        head, tail = z[:m], z[m:]
        ys.append(head)
        moved.append(tail)
        blocked = z[max(m - 1, 0) : m + 1]
        paths = [(c,) for c in range(degree) if c not in blocked]
        for s in range(steps):
            if s:
                paths = [p + (c,) for p in paths for c in range(degree) if c != p[-1]]
            ys.extend([head + p for p in paths])
            moved.extend([p[::-1] + tail for p in paths])
    return ys, moved


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
        # pair orbit i is the K-orbit of its second vertex
        self.orbits: tuple[OrbitClass, ...] = self.table.classes
        self._class_of: dict[Word, int] = {
            w: c.id for c in self.orbits for w in c.members
        }
        # (i, j) -> {k: N[i][j][k]}, nonzero entries only, k ascending
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._build()

    # -- construction -------------------------------------------------------
    def _build(self):
        get = self._class_of.__getitem__
        for k in self.table.classes:
            z = k.representative
            steps = (self.radius_budget - len(z)) // 2
            ys, moved = _near_geodesic(self.F.degree, z, steps)
            # N[i][j][k] keyed by (i, j), nonzero only
            row = Counter(zip(map(get, ys), map(get, moved)))
            if k.size > 1:
                z2 = min(k.members - {z})
                ys = _near_geodesic(self.F.degree, z2, steps)[0]
                if Counter((get(y), get(_transport(y, z2))) for y in ys) != row:
                    raise RuntimeError(
                        "intersection number depends on the representative; "
                        "orbit table is inconsistent"
                    )
            for pair, n in row.items():
                self._products.setdefault(pair, {})[k.id] = n

    # -- queries -------------------------------------------------------------
    def in_budget(self, i: int, j: int) -> bool:
        return self.orbits[i].distance + self.orbits[j].distance <= self.radius_budget

    def n(self, i: int, j: int, k: int) -> int:
        if not self.in_budget(i, j):
            raise OutOfBudget(
                f"entry ({i},{j},{k}) needs radius "
                f"{self.orbits[i].distance + self.orbits[j].distance} > {self.radius_budget}"
            )
        return self._products.get((i, j), {}).get(k, 0)

    def products_of(self, i: int, j: int) -> list[tuple[int, int]]:
        if not self.in_budget(i, j):
            raise OutOfBudget(f"pair ({i},{j}) exceeds the radius budget")
        return list(self._products.get((i, j), {}).items())

    def valency(self, i: int) -> int:
        return self.orbits[i].size

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
        return sorted(
            (i, j, k, n) for (i, j), row in self._products.items() for k, n in row.items()
        )


def intersection_numbers(F: LocalGroup, radius: int) -> StructureConstants:
    return StructureConstants(F, radius)


class KernelFunction(NamedTuple):
    """A finitely supported kernel: exact rational coefficients per orbit.

    Kernels are equal when their coefficients are; ``fractions`` is imported
    on first use, since no subcommand builds a kernel.
    """

    coefficients: tuple[tuple[int, Fraction], ...]
    support_radius: int

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction], sc: StructureConstants):
        from fractions import Fraction

        clean = {i: Fraction(c) for i, c in coeffs.items() if c}
        radius = max((sc.distance(i) for i in clean), default=0)
        return cls(tuple(sorted(clean.items())), radius)

    @classmethod
    def unit(cls, sc: StructureConstants):
        return cls.from_dict({0: 1}, sc)

    @classmethod
    def indicator(cls, sc: StructureConstants, orbit_id: int):
        return cls.from_dict({orbit_id: 1}, sc)

    def coefficient(self, orbit_id: int) -> Fraction:
        for i, c in self.coefficients:
            if i == orbit_id:
                return c
        from fractions import Fraction

        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, KernelFunction) and self.coefficients == other.coefficients

    def __ne__(self, other) -> bool:
        return not self == other

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
                out[k] = out.get(k, 0) + ci * cj * n
    return KernelFunction.from_dict(out, sc)


class HeckeVerdict(NamedTuple):
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
    the pairs with a stored row are scanned: the rows of (i, j) and (j, i)
    are compared whole, and k is looked for in the first unequal pair only.
    """
    products, empty = sc._products, {}
    first = min(
        (
            (i, j) if i < j else (j, i)
            for (i, j), row in products.items()
            if i != j and row != products.get((j, i), empty)
        ),
        default=None,
    )
    if first is None:
        return HeckeVerdict(sc.radius_budget, True)
    i, j = first
    ij, ji = products.get((i, j), empty), products.get((j, i), empty)
    k = min(k for k in ij.keys() | ji.keys() if ij.get(k) != ji.get(k))
    return HeckeVerdict(sc.radius_budget, False, (i, j, k, ij.get(k, 0), ji.get(k, 0)))


def commutativity_report(F: LocalGroup, radius: int) -> HeckeVerdict:
    """The verdict of ``commutativity_of`` at ``radius``, built no further
    than it needs.

    The tensor is built at min(3, radius) first.  Its first asymmetric pair
    (1, j) is the first one at ``radius`` too: intersection numbers do not
    depend on the budget that admits them, the smaller table is an id-for-id
    prefix of the larger, every pair (0, j) is symmetric, and every pair
    (1, j') with j' < j already lies in the smaller budget.  Otherwise the
    tensor is built at ``radius``.
    """
    if radius < 2:
        raise ValueError("commutativity scans need radius >= 2")
    probe = commutativity_of(intersection_numbers(F, min(3, radius)))
    if radius <= 3 or not probe.commutative and probe.witness[0] == 1:
        return probe._replace(radius=radius)
    return commutativity_of(intersection_numbers(F, radius))
