"""Universal automorphism groups of the colored tree with prescribed local action.

For a finite permutation group F on the colors, U(F) is the group of all
portraits whose local permutations lie in F.  The stabilizer K of the base
vertex is never enumerated element by element (it is a projective limit);
every K-level question is answered by constraint propagation on color words:
a vertex-stabilizing automorphism moves a sphere word c1 c2 ... cn to
e1 e2 ... en where e1 = s0(c1) for an arbitrary s0 in F and, at each later
position, the local permutation s in F is pinned by s(ci) = ei and emits
e_{i+1} = s(c_{i+1}).

K-orbits grow one letter at a time.  If g in K moves w to u, its local
permutation at w is any s in F with s(w[-1]) = u[-1], so the orbit of
w + (c,) is {u + (e,) : u in orbit(w), e in F.post(w[-1], u[-1], c)}.
Every orbit on sphere n+1 is therefore one extension step of an orbit on
sphere n, and two children r + (c,), r + (c',) of a representative r share
an orbit iff c' lies in F.post(r[-1], r[-1], c).  Orbit tables are grown
sphere by sphere this way: one extension step per class, each ball word
built once.

Orbit tables carry canonical (lexicographically smallest) representatives so
that they are independent of traversal order, and serialize to a versioned
canonical JSON form that round-trips byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import perms
from .perms import Perm
from .tree import (
    ROOT,
    EXTEND_CONSTANT,
    Portrait,
    TablePortrait,
    TreeEnd,
    TreeVertex,
    Word,
    ball_words,
    constant_portrait,
    identity_portrait,
    parallel_transport,
    sphere_words,
)

ORBIT_TABLE_FORMAT_VERSION = 2


class RadiusMismatch(ValueError):
    """Transporter inputs must be balls of equal radius."""


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
    asserted.
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
        self.transitive = self._orbit_of(0) == set(range(degree))
        self.two_transitive = self.transitive and self._pair_transitive()
        self._post: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._images: dict[int, tuple[int, ...]] = {}

    def _orbit_of(self, x: int) -> set[int]:
        return {p[x] for p in self.elements}

    def _pair_transitive(self) -> bool:
        d = self.degree
        target = d * (d - 1)
        pairs = {(p[0], p[1]) for p in self.elements}
        return len(pairs) == target

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

    def post(self, c: int, e: int, c2: int) -> tuple[int, ...]:
        """Possible images of c2 under elements pinned by c -> e."""
        key = (c, e, c2)
        got = self._post.get(key)
        if got is None:
            got = tuple(sorted({p[c2] for p in self.elements if p[c] == e}))
            self._post[key] = got
        return got

    def sigma_with(self, pins: Iterable[tuple[int, int]]) -> Perm | None:
        """Lexicographically smallest element satisfying all pins, if any."""
        pins = tuple(pins)
        for p in self.elements:
            if all(p[c] == e for c, e in pins):
                return p
        return None

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
        degree = int(doc["degree"])
        raw_gens = doc["generators"]
    except KeyError as exc:
        raise ParseError(f"group document is missing field {exc.args[0]!r}")
    if not isinstance(raw_gens, list):
        raise ParseError("'generators' must be a list of one-line permutations")
    try:
        gens = [perms.parse_perm(g, degree) for g in raw_gens]
        return LocalGroup(degree, gens)
    except ValueError as exc:
        raise ParseError(str(exc))


@dataclass(frozen=True)
class StabilizerElement:
    """A base-vertex stabilizer with its certification radius."""

    portrait: Portrait
    certified_radius: int

    @classmethod
    def certify(cls, portrait: Portrait, F: LocalGroup, radius: int) -> "StabilizerElement":
        if portrait.base_image != ROOT:
            raise ValueError("stabilizer elements must fix the base vertex")
        if not check_legal(portrait, F, radius):
            raise ValueError("local permutations leave F within the certified radius")
        return cls(portrait, radius)


def check_legal(g: Portrait, F: LocalGroup, radius: int) -> bool:
    """All local permutations in F and the legality cocycle, within radius."""
    for w in ball_words(F.degree, radius):
        v = TreeVertex(w)
        sig = g.sigma(v)
        if sig not in F:
            return False
        if w:
            if sig[w[-1]] != g.sigma(TreeVertex(w[:-1]))[w[-1]]:
                return False
    return True


# ---------------------------------------------------------------------------
# K-orbits on sphere words


def _constrained_images(F: LocalGroup, word: Word, e_first: int) -> set[Word]:
    """Image words of ``word`` under vertex stabilizers mapping the first
    letter to ``e_first``."""
    n = len(word)
    memo: dict[tuple[int, int], set[Word]] = {}

    def suffixes(i: int, e_prev: int) -> set[Word]:
        if i == n:
            return {()}
        key = (i, e_prev)
        got = memo.get(key)
        if got is None:
            got = set()
            for e in F.post(word[i - 1], e_prev, word[i]):
                for tail in suffixes(i + 1, e):
                    got.add((e,) + tail)
            memo[key] = got
        return got

    return {(e_first,) + tail for tail in suffixes(1, e_first)}


def k_orbit(
    F: LocalGroup, word: Word, parent: frozenset[Word] | None = None
) -> frozenset[Word]:
    """The orbit of a sphere word under the base-vertex stabilizer of U(F).

    With ``parent``, the orbit of word[:-1], this is one extension step:
    {u + (e,) : u in parent, e in F.post(word[-2], u[-1], word[-1])}, with
    F.images_of(word[0]) for the first letter.  Without it the step is
    repeated over the prefixes of ``word``, building each prefix orbit once.
    """
    orbit, start = ({()}, 1) if parent is None else (parent, len(word))
    post = F.post
    for n in range(start, len(word) + 1):
        c = word[n - 1]
        if n == 1:
            orbit = {(e,) for e in F.images_of(c)}
        else:
            c_prev = word[n - 2]
            orbit = {u + (e,) for u in orbit for e in post(c_prev, u[-1], c)}
    # hold ``word`` itself, not an equal copy, so that a caller keeping it
    # as the representative stores the tuple once
    orbit.discard(word)
    orbit.add(word)
    # a set first, then frozen: a frozenset grown from a generator keeps
    # its over-allocated table, half as large again
    return frozenset(orbit)


def k_transporter(F: LocalGroup, src: Word, dst: Word) -> TablePortrait | None:
    """A vertex stabilizer in U(F) with src -> dst, or None.

    Chooses, at each vertex of the source path, the smallest element of F
    satisfying the two path pins; off the path and beyond it the portrait
    copies the parent permutation, which stays inside F.
    """
    if len(src) != len(dst):
        return None
    table: dict[Word, Perm] = {}
    for i in range(len(src)):
        pins = [(src[i], dst[i])]
        if i >= 1:
            pins.append((src[i - 1], dst[i - 1]))
        sig = F.sigma_with(pins)
        if sig is None:
            return None
        table[src[:i]] = sig
    return TablePortrait(ROOT, table, F.degree, EXTEND_CONSTANT)


@dataclass(frozen=True)
class LabeledBall:
    center: TreeVertex
    radius: int


def transporter(F: LocalGroup, src: LabeledBall, dst: LabeledBall) -> Portrait | None:
    """A vertex stabilizer in U(F) carrying one labeled ball onto the other.

    The centers anchor the correspondence; the element maps the source ball
    onto the destination ball.  Returns None (absent) when the induced local
    permutations cannot be completed inside F, i.e. when the centers lie in
    different stabilizer orbits.
    """
    if src.radius != dst.radius:
        raise RadiusMismatch(f"ball radii differ: {src.radius} != {dst.radius}")
    if src.center == dst.center:
        return identity_portrait(F.degree)
    return k_transporter(F, src.center.word, dst.center.word)


# ---------------------------------------------------------------------------
# orbit tables


@dataclass(frozen=True)
class OrbitClass:
    id: int
    distance: int
    representative: Word
    members: frozenset[Word]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OrbitTable:
    """Stabilizer orbits on the closed ball of a given radius.

    ``classes`` partition the ball, ordered by (distance, representative).
    """

    degree: int
    generator_hash: str
    radius: int
    classes: tuple[OrbitClass, ...]
    _lookup: dict[Word, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self._lookup:
            for cls in self.classes:
                for w in cls.members:
                    self._lookup[w] = cls.id

    def class_of(self, word: Word) -> int:
        return self._lookup[word]

    def sphere_counts(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for cls in self.classes:
            counts[cls.distance] += 1
        return counts

    def to_json(self) -> str:
        """Canonical serialization; byte-identical across recomputations."""
        doc = {
            "format_version": ORBIT_TABLE_FORMAT_VERSION,
            "degree": self.degree,
            "generator_hash": self.generator_hash,
            "radius": self.radius,
            "classes": [
                {
                    "representative": " ".join(map(str, cls.representative)),
                    "size": cls.size,
                }
                for cls in self.classes
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def orbit_table(F: LocalGroup, radius: int) -> OrbitTable:
    """The K-orbits on the ball of ``radius``, grown sphere by sphere.

    Each class r on sphere n splits its children r + (c,) by the orbits of
    the stabilizer of r[-1] in F (of F itself at the base vertex); each part
    is one class on sphere n+1, whose representative r + (min part,) is its
    lexicographic minimum and whose members are one ``k_orbit`` extension
    step from r's members.  Cost: one extension step per class, each ball
    word built once.
    """
    classes = [OrbitClass(0, 0, (), k_orbit(F, ()))]
    sphere = classes
    for n in range(1, radius + 1):
        children: list[tuple[Word, frozenset[Word]]] = []
        for cls in sphere:
            r = cls.representative
            placed: set[int] = set()
            for c in range(F.degree):
                if c in placed or (r and c == r[-1]):
                    continue
                part = F.post(r[-1], r[-1], c) if r else F.images_of(c)
                placed.update(part)
                children.append((r + (part[0],), cls.members))
        children.sort(key=lambda child: child[0])
        sphere = [
            OrbitClass(len(classes) + i, n, rep, k_orbit(F, rep, parent))
            for i, (rep, parent) in enumerate(children)
        ]
        classes.extend(sphere)
    return OrbitTable(F.degree, F.hash_key(), radius, tuple(classes))


# ---------------------------------------------------------------------------
# strong-transitivity proxies


@dataclass(frozen=True)
class GrowthReport:
    """Per-sphere orbit counts with the finite-depth verdict.

    The verdict is a proxy certified only to the computed radius: counts
    constant on the last three spheres read as "stabilized", strictly
    increasing there as "growing"; anything else is "undetermined" (treated
    as growing by consumers, with the raw counts attached).
    """

    radius: int
    counts: tuple[int, ...]
    verdict: str  # "stabilized" | "growing" | "undetermined"

    @property
    def stabilized(self) -> bool:
        return self.verdict == "stabilized"


def orbit_count_growth(F: LocalGroup, radius: int) -> GrowthReport:
    if radius < 2:
        raise ValueError("the growth window needs radius >= 2")
    counts = tuple(orbit_table(F, radius).sphere_counts())
    window = counts[radius - 2 : radius + 1]
    if window[0] == window[1] == window[2]:
        verdict = "stabilized"
    elif window[0] < window[1] < window[2]:
        verdict = "growing"
    else:
        verdict = "undetermined"
    return GrowthReport(radius, counts, verdict)


def _pair_orbit_count(F: LocalGroup, n: int) -> int:
    """Number of K-orbits on ordered pairs of depth-n words with distinct
    first letters: the sum of c_a * c_b over the F-orbits on ordered pairs
    of distinct colors (a, b), where c_a counts the arm classes in cone(a)."""
    arm_classes = [0] * F.degree
    seen: set[Word] = set()
    for w in sphere_words(F.degree, n):
        if w not in seen:
            arm_classes[w[0]] += 1
            seen |= _constrained_images(F, w, w[0])
    colors = range(F.degree)
    reps = {
        min((p[a], p[b]) for p in F.elements)
        for a in colors
        for b in colors
        if a != b
    }
    return sum(arm_classes[a] * arm_classes[b] for a, b in reps)


def two_transitivity_on_ends_proxy(F: LocalGroup, n: int) -> bool:
    """Depth-n shadow of 2-transitivity on ends.

    True iff U(F) is transitive on ordered pairs of depth-n vertices at
    mutual distance 2n.  The midpoint is normalized to the base vertex by
    vertex transitivity, so this asks whether K, the base-vertex stabilizer,
    has one orbit on pairs (u, v) of depth-n words with u[0] != v[0].

    The pair orbits are counted, never enumerated.  The root permutation s0
    pins only the first letters; below them each arm is constrained by its
    own first image alone, so the stabilizer of the colors (a, b) acts on
    cone(a) x cone(b) as a product.  Its orbits there are pairs of arm
    classes: the parts of cone(a) under the stabilizer of the vertex a.
    Hence the K-orbits number sum c_a * c_b over the F-orbits on ordered
    pairs of distinct colors, with c_a the arm classes in cone(a), and the
    proxy holds iff that sum is 1.  Cost: one ``_constrained_images`` per
    arm class, each sphere word touched once; memory is one sphere.
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
    F: LocalGroup,
    candidate_ends: Iterable[TreeEnd],
    generators: Sequence[Portrait] | None = None,
) -> set[TreeEnd]:
    """Candidate ends fixed by every generator of the family."""
    family = list(generators) if generators is not None else default_generating_family(F)
    return {xi for xi in candidate_ends if all(g.fixes_end(xi) for g in family)}


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
