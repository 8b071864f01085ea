"""Universal automorphism groups of the colored tree with prescribed local action.

For a finite permutation group F on the colors, U(F) is the group of all
portraits whose local permutations lie in F.  The stabilizer K of the base
vertex is never enumerated element by element (it is a projective limit);
its orbits on color words grow one letter at a time.

If g in K moves w to u, its local permutation at w is any s in F with
s(w[-1]) = u[-1], so the orbit of w + (c,) is {u + (e,) : u in orbit(w),
e in F.posts(w[-1], c)[u[-1]]}.  Two children r + (c,), r + (c',) of a
representative r thus share an orbit iff c' lies in F.post(r[-1], r[-1], c).
This split rule, ``_child_colors``, grows the orbit tables and counts the
orbits on spheres and on pairs of arms without a table.

Orbit tables carry canonical (lexicographically smallest) representatives so
that they are independent of traversal order.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from . import perms, tree
from .perms import Perm
from .tree import (
    ROOT,
    BudgetExhausted,
    NotHyperbolic,
    Portrait,
    TreeEnd,
    Word,
    constant_portrait,
    parallel_transport,
    sphere_words,
)


class ParseError(ValueError):
    """A group document failed to parse; carries line/column when known."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class LocalGroup:
    """A permutation group on the colors {0, ..., q}, with its closure.

    ``degree`` is q+1 >= 3 (thickness).  The element table is the full
    closure of the generators; transitivity flags are computed, never
    asserted.  ``posts(c, c2)`` is the transition table of the color pair
    (c, c2), filled by one pass over the elements on first use; after that a
    K-orbit extension step costs one lookup per letter.
    """

    def __init__(self, degree: int, generators: Iterable[Perm]):
        if degree < 3:
            raise ValueError("thickness requires degree q+1 >= 3")
        gens = []
        for g in generators:
            g = tuple(g)
            if not perms.is_perm(g, degree):
                raise ValueError(f"{g} is not a permutation of degree {degree}")
            gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.elements: tuple[Perm, ...] = tuple(sorted(perms.closure(gens, degree)))
        self._element_set = frozenset(self.elements)
        # the orbits of the color 0 and of the color pair (0, 1)
        self.transitive = len({p[0] for p in self.elements}) == degree
        pairs = {(p[0], p[1]) for p in self.elements}
        self.two_transitive = len(pairs) == degree * (degree - 1)
        self._posts: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._images: dict[int, tuple[int, ...]] = {}

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self._element_set

    def order(self) -> int:
        return len(self.elements)

    def images_of(self, c: int) -> tuple[int, ...]:
        got = self._images.get(c)
        if got is None:
            got = tuple(sorted({p[c] for p in self.elements}))
            self._images[c] = got
        return got

    def posts(self, c: int, c2: int) -> tuple[tuple[int, ...], ...]:
        """The transition table of the color pair (c, c2): entry e holds the
        possible images of c2 under the elements mapping c to e, sorted."""
        key = (c, c2)
        got = self._posts.get(key)
        if got is None:
            buckets: list[set[int]] = [set() for _ in range(self.degree)]
            for p in self.elements:
                buckets[p[c]].add(p[c2])
            got = tuple(tuple(sorted(b)) for b in buckets)
            self._posts[key] = got
        return got

    def post(self, c: int, e: int, c2: int) -> tuple[int, ...]:
        """Possible images of c2 under elements pinned by c -> e."""
        return self.posts(c, c2)[e]

    def hash_key(self) -> str:
        payload = f"{self.degree}|" + ";".join(
            perms.format_perm(p) for p in self.elements
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def __repr__(self) -> str:
        return f"LocalGroup(degree={self.degree}, order={len(self.elements)})"


def parse_local_group(text: str) -> LocalGroup:
    """Parse the on-disk group document.

    Format: a JSON object with fields ``degree`` (integer) and
    ``generators`` (list of permutations in one-line image notation, e.g.
    "1 2 0" for the 3-cycle).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid group document: {exc.msg}", exc.lineno, exc.colno)
    if not isinstance(doc, dict):
        raise ParseError("group document must be a JSON object")
    try:
        degree = doc["degree"]
        raw_gens = doc["generators"]
    except KeyError as exc:
        raise ParseError(f"group document is missing field {exc.args[0]!r}")
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ParseError("'degree' must be an integer")
    if not isinstance(raw_gens, list) or not all(isinstance(g, str) for g in raw_gens):
        raise ParseError("'generators' must be a list of one-line permutations")
    try:
        gens = [perms.parse_perm(g, degree) for g in raw_gens]
        return LocalGroup(degree, gens)
    except ValueError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# K-orbits on sphere words


def k_orbit(
    F: LocalGroup, word: Word, parent: frozenset[Word] | None = None
) -> frozenset[Word]:
    """The orbit of a sphere word under the base-vertex stabilizer of U(F).

    With ``parent``, the orbit of word[:-1], this is one extension step:
    {u + (e,) : u in parent, e in step[u[-1]]}, where step is the transition
    table F.posts(word[-2], word[-1]), with F.images_of(word[0]) for the
    first letter.  Without it the step is repeated over the prefixes of
    ``word``, building each prefix orbit once.  Cost: one table lookup per
    letter, then one tuple per orbit member.
    """
    orbit, start = ({()}, 1) if parent is None else (parent, len(word))
    for n in range(start, len(word) + 1):
        c = word[n - 1]
        if n == 1:
            orbit = {(e,) for e in F.images_of(c)}
        else:
            step = F.posts(word[n - 2], c)
            orbit = {u + (e,) for u in orbit for e in step[u[-1]]}
    # hold ``word`` itself, not an equal copy, so that a caller keeping it
    # as the representative stores the tuple once
    orbit.discard(word)
    orbit.add(word)
    # a set first, then frozen: a frozenset grown from a generator keeps
    # its over-allocated table, half as large again
    return frozenset(orbit)


# ---------------------------------------------------------------------------
# orbit tables


class OrbitClass(NamedTuple):
    id: int
    distance: int
    representative: Word
    members: frozenset[Word]

    @property
    def size(self) -> int:
        return len(self.members)


class OrbitTable(NamedTuple):
    """Stabilizer orbits on the closed ball of a given radius.

    ``classes`` partition the ball, ordered by (distance, representative).
    """

    radius: int
    classes: tuple[OrbitClass, ...]

    def sphere_counts(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for cls in self.classes:
            counts[cls.distance] += 1
        return counts


def _child_colors(F: LocalGroup, last: int | None) -> tuple[int, ...]:
    """The least color of each part F.post(last, last, c) into which the
    children of a vertex entered by ``last`` split; at the base vertex
    (``last`` None) the parts are F.images_of(c)."""
    minima: list[int] = []
    placed: set[int] = set()
    for c in range(F.degree):
        if c in placed or c == last:
            continue
        placed.update(F.images_of(c) if last is None else F.post(last, last, c))
        minima.append(c)
    return tuple(minima)


_BALL_WORD_CAP = 2_000_000


def orbit_table(F: LocalGroup, radius: int) -> OrbitTable:
    """The K-orbits on the ball of ``radius``, grown sphere by sphere.

    Each class r on sphere n has one child class r + (c,) on sphere n+1 for
    each c in ``_child_colors(F, r[-1])``, computed once per last color;
    r + (c,) is its lexicographic minimum, and its members are one
    ``k_orbit`` extension step from r's members.  Cost: one extension step
    per class, that is one transition-table lookup and one tuple per member,
    each ball word built once and held, so a ball of more than
    ``_BALL_WORD_CAP`` words is refused before any work.
    """
    q = F.degree - 1
    words = 1 + F.degree * (q**radius - 1) // (q - 1)
    if words > _BALL_WORD_CAP:
        raise BudgetExhausted(
            f"the ball of radius {radius} has {words} words, above the cap of "
            f"{_BALL_WORD_CAP}"
        )
    kids = cache(lambda last: _child_colors(F, last))
    classes = [OrbitClass(0, 0, (), k_orbit(F, ()))]
    sphere = classes
    for n in range(1, radius + 1):
        children: list[tuple[Word, frozenset[Word]]] = []
        for cls in sphere:
            r = cls.representative
            for c in kids(r[-1] if r else None):
                children.append((r + (c,), cls.members))
        children.sort(key=lambda child: child[0])
        sphere = [
            OrbitClass(len(classes) + i, n, rep, k_orbit(F, rep, parent))
            for i, (rep, parent) in enumerate(children)
        ]
        classes.extend(sphere)
    return OrbitTable(radius, tuple(classes))


# ---------------------------------------------------------------------------
# strong-transitivity proxies


class GrowthReport(NamedTuple):
    """Per-sphere orbit counts with the finite-depth verdict.

    From radius 3 the window of the last three spheres is constant iff F is
    2-transitive ("stabilized"), and strictly increasing otherwise
    ("growing"): then some F_a has two or more orbits on the other colors,
    and the colors whose class count grows from depth n to n+1 form an
    F-invariant set, nonempty at n = 1 and met by every other color's
    children, so it stays nonempty.
    """

    radius: int
    counts: tuple[int, ...]
    verdict: str  # "stabilized" | "growing"

    @property
    def stabilized(self) -> bool:
        return self.verdict == "stabilized"


def _arm_classes(F: LocalGroup, n: int) -> list[int]:
    """c[a] for each color a: the classes of depth-n words starting with a
    under the stabilizer of the vertex (a,) in K.  By the split rule c[a] is
    1 at n = 1 and the sum of c[b] one depth less over b in
    ``_child_colors(F, a)``."""
    children = [_child_colors(F, a) for a in range(F.degree)]
    c = [1] * F.degree
    for _ in range(n - 1):
        c = [sum(c[b] for b in kids) for kids in children]
    return c


def orbit_count_growth(F: LocalGroup, radius: int) -> GrowthReport:
    """K-orbits per sphere: sphere n >= 1 has the sum of c_a over a in
    ``_child_colors(F, None)``; no table is built."""
    if radius < 3:
        raise ValueError("the growth window needs radius >= 3")
    roots = _child_colors(F, None)
    arms = [_arm_classes(F, n) for n in range(1, radius + 1)]
    counts = (1,) + tuple(sum(c[a] for a in roots) for c in arms)
    window = counts[radius - 2 : radius + 1]
    if window[0] == window[1] == window[2]:
        verdict = "stabilized"
    elif window[0] < window[1] < window[2]:
        verdict = "growing"
    else:
        raise RuntimeError(f"orbit counts {window} neither constant nor strictly increasing")
    return GrowthReport(radius, counts, verdict)


def _pair_orbit_count(F: LocalGroup, n: int) -> int:
    """Number of K-orbits on ordered pairs of depth-n words with distinct
    first letters.  Once the first letters (a, b) are fixed, each arm is
    constrained by its own first image alone, so the orbits are the c_a * c_b
    pairs of arm classes, summed over the least pair (a, b) of each F-orbit
    on ordered pairs of distinct colors: a in ``_child_colors(F, None)`` and
    b in ``_child_colors(F, a)``."""
    c = _arm_classes(F, n)
    return sum(c[a] * c[b] for a in _child_colors(F, None) for b in _child_colors(F, a))


def two_transitivity_on_ends_proxy(F: LocalGroup, n: int) -> bool:
    """Depth-n shadow of 2-transitivity on ends.

    True iff U(F) is transitive on ordered pairs of depth-n vertices at
    mutual distance 2n.  The midpoint is normalized to the base vertex by
    vertex transitivity, so this asks whether K, the base-vertex stabilizer,
    has one orbit on pairs (u, v) of depth-n words with u[0] != v[0].  The
    orbits are counted by ``_pair_orbit_count``, never enumerated.  Cost:
    O(n * d^2) after the ``posts`` tables fill, with no sphere held.
    """
    if n < 2:
        raise ValueError("the proxy needs depth n >= 2")
    return _pair_orbit_count(F, n) == 1


def default_generating_family(F: LocalGroup) -> list[Portrait]:
    """Translations along two independent apartments plus rotations from F.

    Generates the U(F)-action to any modest depth; used as the default
    family for fixed-end checks (certification-depth statements only).
    """
    family: list[Portrait] = [
        parallel_transport((0, 1), F.degree),
        parallel_transport((1, 2), F.degree),
    ]
    ident = perms.identity(F.degree)
    for sig in F.generators:
        if sig != ident:
            family.append(constant_portrait(ROOT, sig, F.degree))
    return family


def fixed_end_check(
    F: LocalGroup, generators: Sequence[Portrait] | None = None
) -> set[TreeEnd]:
    """The ends fixed by every member of the family, whose first member must
    be hyperbolic: it fixes exactly the two ends of its axis (Tits 1970)."""
    family = list(generators) if generators is not None else default_generating_family(F)
    first = tree.classify_isometry(family[0], tree.default_search_radius(family[0]))
    if not first.is_hyperbolic:
        raise NotHyperbolic("the first member of the family must be hyperbolic")
    ends = (first.axis.end_minus, first.axis.end_plus)
    return {xi for xi in ends if all(g.fixes_end(xi) for g in family)}


def enumerate_ends(degree: int, max_prefix: int, max_period: int) -> list[TreeEnd]:
    """All normalized ends with bounded prefix and period lengths."""
    out: set[TreeEnd] = set()
    for per_len in range(2, max_period + 1):
        for per in sphere_words(degree, per_len):
            if per[0] == per[-1]:
                continue
            for pre_len in range(max_prefix + 1):
                for pre in sphere_words(degree, pre_len):
                    if pre and pre[-1] == per[0]:
                        continue
                    try:
                        out.add(TreeEnd(pre, per))
                    except ValueError:
                        continue
    return sorted(out, key=lambda e: (e.prefix, e.period))
