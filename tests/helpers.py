"""Shared constructions for the test suite.

Oracles here are deliberately independent of the library code paths they
check: brute-force counts over balls, direct deep-vertex evaluation for end
images, exhaustive enumeration of constrained local data.

The first section holds the small constructions that no command runs (ball
enumeration, geodesics, cone neighborhoods, kernels and their convolution,
retraction), kept here so that the library holds only what the pipeline
needs.
"""

import csv
import io
import json
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from random import Random
from typing import Iterator, NamedTuple

from building_forge.group import LocalGroup, OrbitTable, k_orbit
from building_forge.hecke import StructureConstants, commutativity_of
from building_forge.perms import Perm, compose, identity, transposition
from building_forge.tree import (
    EXTEND_CONSTANT,
    EXTEND_SPARSE,
    ROOT,
    IsometryClass,
    NotHyperbolic,
    NotInStabilizer,
    Portrait,
    TablePortrait,
    TreeApartment,
    TreeEnd,
    _Value,
    classify_isometry,
    parallel_transport,
)
from building_forge.words import (
    OutOfBudget,
    Word,
    lcp_len,
    reduce_word,
    sphere_words,
    word_distance,
)

# ---------------------------------------------------------------------------
# constructions no command runs


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def ball_words(degree: int, radius: int) -> Iterator[Word]:
    for n in range(radius + 1):
        yield from sphere_words(degree, n)


def geodesic(a: Word, b: Word) -> list[Word]:
    """The vertex path from a to b."""
    k = lcp_len(a, b)
    down = [a[:i] for i in range(len(a), k, -1)]
    up = [b[:i] for i in range(k, len(b) + 1)]
    return down + up


class ConeNeighborhood(_Value):
    """Basic neighborhood of an end: agreement with its ray to depth r."""

    __slots__ = ("ray_target", "r")

    def __init__(self, ray_target: TreeEnd, r: int):
        if r < 1:
            raise ValueError("cone neighborhoods need depth r >= 1")
        object.__setattr__(self, "ray_target", ray_target)
        object.__setattr__(self, "r", r)

    def _key(self) -> tuple:
        return (self.ray_target, self.r)

    def __repr__(self) -> str:
        return f"ConeNeighborhood(ray_target={self.ray_target!r}, r={self.r!r})"

    def contains_end(self, xi: TreeEnd) -> bool:
        return xi.word_prefix(self.r) == self.ray_target.word_prefix(self.r)

    def contains_vertex(self, w: Word) -> bool:
        return len(w) > self.r and w[: self.r] == self.ray_target.word_prefix(self.r)


def identity_portrait(degree: int) -> TablePortrait:
    return parallel_transport((), degree)


def is_strongly_regular(g: Portrait) -> bool:
    """On a tree: strongly regular = hyperbolic.

    The two ends of the axis are chambers of the boundary, automatically
    opposite and interior (chambers of a rank-one boundary are points).
    """
    return classify_isometry(g).is_hyperbolic


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


class KernelFunction(NamedTuple):
    """A finitely supported kernel: exact rational coefficients per orbit.

    Kernels are equal when their coefficients are.
    """

    coefficients: tuple[tuple[int, Fraction], ...]
    support_radius: int

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction], sc: StructureConstants):
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


def retraction(a: TreeApartment, c: TreeEnd, x: Word) -> int:
    """Retraction onto the apartment based at one of its ends.

    The ray [x, c) merges into the line at the projection p of x; the image
    is the point of the line at distance d(x, p) from p on the far side from
    c.  Restricted to the line this is the identity; the result is reported
    in the line's integer coordinates.
    """
    if c == a.end_plus:
        toward_plus = True
    elif c == a.end_minus:
        toward_plus = False
    else:
        raise ValueError("the retraction end must be an end of the apartment")
    coord, dist = a.project(x)
    return coord - dist if toward_plus else coord + dist


def busemann_beta_by_retraction(a: TreeApartment, c: TreeEnd, g: Portrait) -> int:
    """The oracle for ``tree.busemann_beta``: retraction(a, c, g(v)) -
    retraction(a, c, v) for v on the line, deep enough toward c that the
    value is the same at two consecutive depths, doubling the depth once if
    not.  Sign convention: positive toward c."""
    if not g.fixes_end(c):
        raise NotInStabilizer("the portrait does not fix the end")
    toward_plus = c == a.end_plus
    depth = len(g.base_image) + a.branch_depth + 8
    for _ in range(2):
        t = depth if toward_plus else -depth
        step = 1 if toward_plus else -1
        vals = []
        for tt in (t, t + step):
            v = a.vertex_at(tt)
            vals.append(retraction(a, c, g.image(v)) - retraction(a, c, v))
        if vals[0] == vals[1]:
            return vals[0] if toward_plus else -vals[0]
        depth *= 2
    raise RuntimeError("Busemann value did not stabilize at two depths")


# ---------------------------------------------------------------------------
# groups and reference reports

# The oracle end walk's step budget, past the prefix, period and base image
# terms: the library walk needs none, as it refuses a backtracking image.
END_WALK_CAP = 20000


def make_c3() -> LocalGroup:
    return LocalGroup(3, [(1, 2, 0)])


def make_s3() -> LocalGroup:
    return LocalGroup(3, [(1, 0, 2), (0, 2, 1)])


def make_trivial(degree: int = 3) -> LocalGroup:
    return LocalGroup(degree, [])


def make_s4() -> LocalGroup:
    return LocalGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


@cache
def subgroups_of_symmetric(degree: int) -> tuple[LocalGroup, ...]:
    """Every 2-generated subgroup of S_degree; for degree <= 4 that is all
    of them (6 for S3, 30 for S4), in first-found order.  Built once per
    degree and shared by every caller."""
    found: dict[tuple, LocalGroup] = {}
    # (a, b) and (b, a) generate the same group, and the earlier of the two
    # comes first in the nested-loop order, so unordered pairs suffice.
    for a, b in combinations_with_replacement(permutations(range(degree)), 2):
        F = LocalGroup(degree, [a, b])
        found.setdefault(F.elements, F)
    return tuple(found.values())


def orbits_report(F: LocalGroup, table: OrbitTable, fmt: str) -> str:
    """The ``orbits`` report rendered from one dict per class by the
    standard library: the reference the CLI's row writer must match."""
    fields = ["distance", "representative", "size"]
    rows = [
        {
            "distance": c.distance,
            "representative": " ".join(map(str, c.representative)),
            "size": c.size,
        }
        for c in table.classes
    ]
    if fmt == "json":
        doc = {
            "format_version": 3,
            "command": "orbits",
            "degree": F.degree,
            "generator_hash": F.hash_key(),
            "radius": table.radius,
            "sphere_counts": table.sphere_counts(),
            "classes": rows,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    lines = [
        f"orbit classes, radius {table.radius}, sphere counts {table.sphere_counts()}",
        "| distance | representative | size |",
        "| --- | --- | --- |",
    ]
    lines += ["| " + " | ".join(str(row[f]) for f in fields) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def hecke_report(F: LocalGroup, sc, fmt: str) -> str:
    """The ``hecke`` report rendered from one dict per orbit and per tensor
    entry by the standard library: the reference the CLI's row writer must
    match.  ``sc`` is the report's ``StructureConstants``."""
    verdict = commutativity_of(sc).describe()
    constants = [{"i": i, "j": j, "k": k, "N": n} for i, j, k, n in sc.entries()]
    if fmt == "json":
        doc = {
            "format_version": 1,
            "command": "hecke",
            "degree": F.degree,
            "generator_hash": F.hash_key(),
            "radius": sc.radius_budget,
            "verdict": verdict,
            "orbits": [
                {
                    "id": o.id,
                    "representative": " ".join(map(str, o.representative)),
                    "distance": o.distance,
                    "valency": o.size,
                }
                for o in sc.orbits
            ],
            "constants": constants,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=["i", "j", "k", "N"])
        writer.writeheader()
        writer.writerows(constants)
        return out.getvalue()
    ids = [o.id for o in sc.orbits]
    products = {}
    for c in constants:
        products.setdefault((c["i"], c["j"]), []).append(f"{c['N']}[{c['k']}]")
    lines = [
        f"orbit algebra at radius {sc.radius_budget}: {verdict}",
        "| i\\j | " + " | ".join(map(str, ids)) + " |",
        "|" + "|".join(" --- " for _ in range(len(ids) + 1)) + "|",
    ]
    for i in sc.orbits:
        cells = [
            " + ".join(products.get((i.id, j.id), ["0"]))
            if i.distance + j.distance <= sc.radius_budget
            else "."
            for j in sc.orbits
        ]
        lines.append(f"| {i.id} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def dynamics_report(a: Portrait, xi: TreeEnd, nmax: int, fmt: str) -> str:
    """The ``dynamics`` report rendered from one dict per iterate by the
    standard library: the reference the CLI's row writer must match.  The
    iterates are repeated end images, and each overlap is ``axis_overlap``
    for its one n."""
    cls = classify_isometry(a)
    plus = cls.axis.end_plus
    rows, end = [], xi
    for n in range(1, nmax + 1):
        end = a.image_of_end(end)
        depth = end.agreement_depth(plus) if end != plus else -1
        rows.append({"n": n, "agreement_depth": depth, "axis_overlap": axis_overlap(a, ROOT, ROOT, n)})
    fields = ["n", "agreement_depth", "axis_overlap"]
    if fmt == "json":
        doc = {
            "format_version": 2,
            "command": "dynamics",
            "degree": a.degree,
            "translation_length": cls.length,
            "nmax": nmax,
            "rows": rows,
            "note": "agreement_depth -1 means the iterate equals the attracting end",
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    lines = [
        f"hyperbolic of length {cls.length}; iterating toward the attracting end",
        "| n | agreement_depth | axis_overlap |",
        "| --- | --- | --- |",
    ]
    lines += ["| " + " | ".join(str(row[f]) for f in fields) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def certify_disjoint_by_portraits(
    F: LocalGroup, alpha: Portrait, beta: Portrait
) -> tuple[bool, frozenset[Word], frozenset[Word]]:
    """The oracle for ``gelfand.certify_disjoint``: the same orbit sets
    K(ab x0) and K b K(a x0), with every image read off the portraits'
    machines rather than by word reduction, and no size cap."""
    left = k_orbit(F, alpha.image(beta.image(ROOT)))
    mid = k_orbit(F, alpha.image(ROOT))
    right: set[Word] = set()
    for y in mid:
        right |= k_orbit(F, beta.image(y))
    return left.isdisjoint(right), frozenset(left), frozenset(right)


def check_legal(g: Portrait, F: LocalGroup, radius: int) -> bool:
    """U(F)-legality oracle: every local permutation of ``g`` within the
    ball of ``radius`` lies in F and satisfies the legality cocycle."""
    for w in ball_words(F.degree, radius):
        sig = g.sigma(w)
        if sig not in F:
            return False
        if w:
            if sig[w[-1]] != g.sigma(w[:-1])[w[-1]]:
                return False
    return True


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


def dfs_k_orbit(F: LocalGroup, word: Word) -> frozenset[Word]:
    """The K-orbit of a sphere word by the depth-first search over suffix
    sets: the constrained images of ``word`` for every first image."""
    if not word:
        return frozenset({()})
    out: set[Word] = set()
    for e1 in F.images_of(word[0]):
        out |= _constrained_images(F, word, e1)
    return frozenset(out)


def k_orbits_on_sphere(F: LocalGroup, n: int) -> list[tuple[Word, frozenset[Word]]]:
    """Partition of sphere n into stabilizer orbits, reps lexicographic."""
    classes: list[tuple[Word, frozenset[Word]]] = []
    seen: set[Word] = set()
    for w in sphere_words(F.degree, n):
        if w in seen:
            continue
        orbit = k_orbit(F, w)
        seen |= orbit
        classes.append((min(orbit), orbit))
    return classes


def pair_orbit_count_bruteforce(F: LocalGroup, n: int) -> int:
    """K-orbits on ordered pairs of depth-n words with distinct first
    letters, by enumerating every pair and sweeping out each orbit: for
    every root permutation s0, the product of the two arms' images."""
    words = list(sphere_words(F.degree, n))
    pairs = [(u, v) for u in words for v in words if u[0] != v[0]]
    seen: set = set()
    classes = 0
    for u, v in pairs:
        if (u, v) in seen:
            continue
        classes += 1
        for s0 in F.elements:
            arm_v = _constrained_images(F, v, s0[v[0]])
            for iu in _constrained_images(F, u, s0[u[0]]):
                for iv in arm_v:
                    seen.add((iu, iv))
    return classes


def triple_loop_count(table, i: int, j: int, z) -> int:
    """#{y in orbit i : the word of z seen from y lies in orbit j}."""
    count = 0
    for y in table.classes[i].members:
        t = reduce_word(tuple(reversed(y)), z)
        if t in table.classes[j].members:
            count += 1
    return count


def triple_loop_tensor(table):
    """Brute-force intersection numbers: every orbit triple, every member.

    Returns (tensor, by_pair) in the shapes of StructureConstants: the
    nonzero N[i][j][k] for d_i + d_j <= radius, and per (i, j) the list of
    (k, N) in ascending k.  Each entry is recounted at a second member of
    orbit k, which must agree.
    """
    classes, R = table.classes, table.radius
    tensor: dict[tuple[int, int, int], int] = {}
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in classes:
        for j in classes:
            if i.distance + j.distance > R:
                continue
            for k in classes:
                if not abs(i.distance - j.distance) <= k.distance <= i.distance + j.distance:
                    continue
                n = triple_loop_count(table, i.id, j.id, k.representative)
                others = sorted(k.members)[1:2]
                assert all(triple_loop_count(table, i.id, j.id, z) == n for z in others)
                if n:
                    tensor[(i.id, j.id, k.id)] = n
                    by_pair.setdefault((i.id, j.id), []).append((k.id, n))
    return tensor, by_pair


class Recipe:
    """A portrait construction, built on either side of an oracle check:
    ``recipe(make)`` builds each table portrait in it with ``make``, which
    is ``TablePortrait`` or ``MemoTablePortrait``, and composes, inverts and
    powers them with that side's algebra."""

    def __init__(self, build):
        self.build = build

    def __call__(self, make):
        return self.build(make)

    def __mul__(self, other: "Recipe") -> "Recipe":
        return Recipe(lambda make: self(make) * other(make))

    def inverse(self) -> "Recipe":
        return Recipe(lambda make: self(make).inverse())

    def power(self, n: int) -> "Recipe":
        return Recipe(lambda make: self(make).power(n))

    def both(self) -> tuple:
        """(the library's portrait, the oracle's)."""
        return self(TablePortrait), self(MemoTablePortrait)


def table_recipe(base_image: Word, table: dict, degree: int, extension: str) -> Recipe:
    return Recipe(lambda make: make(base_image, table, degree, extension))


def transport_recipe(word, degree: int = 3) -> Recipe:
    """``parallel_transport(word, degree)`` as a recipe."""
    return table_recipe(tuple(word), {}, degree, EXTEND_SPARSE)


def random_k_recipe(
    rng: Random, degree: int, depth: int = 3, extension: str = EXTEND_SPARSE
) -> Recipe:
    """A random base-vertex stabilizer, legal by construction: every table
    entry agrees with its parent's on the color of the edge between them,
    and either extension rule keeps that beyond the table."""
    all_perms = list(permutations(range(degree)))
    table = {(): rng.choice(all_perms)}

    def fill(w, parent_sigma):
        if len(w) >= depth:
            return
        for c in range(degree):
            if w and c == w[-1]:
                continue
            child = w + (c,)
            if rng.random() < 0.6:
                forced = parent_sigma[c]
                choices = [p for p in all_perms if p[c] == forced]
                sigma = rng.choice(choices)
                table[child] = sigma
                fill(child, sigma)

    fill((), table[()])
    return table_recipe(ROOT, table, degree, extension)


def random_k_portrait(
    rng: Random, degree: int, depth: int = 3, extension: str = EXTEND_SPARSE
) -> TablePortrait:
    return random_k_recipe(rng, degree, depth, extension)(TablePortrait)


def random_hyperbolic_recipe(rng: Random, degree: int = 3) -> tuple[Recipe, int]:
    """(recipe, translation length); mixes plain, conjugated, shifted."""
    n = rng.randint(2, 4)
    word = [rng.randrange(degree)]
    while len(word) < n:
        c = rng.randrange(degree)
        if c != word[-1]:
            word.append(c)
    if word[0] == word[-1]:
        word.append(next(c for c in range(degree) if c not in (word[-1], word[0])))
    t = transport_recipe(word, degree)
    style = rng.randrange(3)
    if style == 0:
        return t, len(word)
    if style == 1:
        k = random_k_recipe(rng, degree, depth=2)
        return k * t * k.inverse(), len(word)
    h = transport_recipe(word[:1] if word[0] != word[-1] else (word[-1],), degree)
    return h * t * h.inverse(), len(word)


def random_hyperbolic(rng: Random, degree: int = 3) -> tuple[Portrait, int]:
    recipe, length = random_hyperbolic_recipe(rng, degree)
    return recipe(TablePortrait), length


class NotTranslatedSegment(ValueError):
    """The segment/image pair is not in the translated-segment configuration."""


def hyperbolic_from_segment(h: Portrait, seg, image_seg) -> IsometryClass:
    """Certify h hyperbolic from a forward-translated segment, without
    ``classify_isometry``.

    Requires image_seg = h(seg) pointwise, with image_seg overlapping seg in
    at least one edge and extending it forward; then h translates a line
    containing seg and image_seg by d(seg[0], image_seg[0]).  The axis ends
    are iterated from seg[0] by ``_axis_limit``.
    """
    seg = list(seg)
    image_seg = list(image_seg)
    if len(seg) != len(image_seg) or len(seg) < 3:
        raise NotTranslatedSegment("need equal-length segments of >= 3 vertices")
    for v, w in zip(seg, image_seg):
        if h.image(v) != w:
            raise NotTranslatedSegment("image segment is not the pointwise image")
    k = word_distance(seg[0], image_seg[0])
    if k < 1:
        raise NotTranslatedSegment("zero shift")
    if len(seg) - k < 2:
        raise NotTranslatedSegment("overlap shorter than one edge")
    for i in range(len(seg) - k):
        if image_seg[i] != seg[i + k]:
            raise NotTranslatedSegment("image does not overlap the segment forward")
    union = seg + image_seg[len(seg) - k:]
    for a, b in zip(union, union[1:]):
        if word_distance(a, b) != 1:
            raise NotTranslatedSegment("segment is not a path")
    for a, b in zip(union, union[2:]):
        if a == b:
            raise NotTranslatedSegment("path backtracks")
    axis = TreeApartment(_axis_limit(h.inverse(), seg[0]), _axis_limit(h, seg[0]))
    return IsometryClass(kind="hyperbolic", length=k, axis=axis, axis_vertex=seg[0])


def _axis_limit(h: Portrait, start: Word) -> TreeEnd:
    """lim h^n(start) for hyperbolic h with start on its axis, one whole
    image per iterate.

    The iterates advance along the axis, so within len(start) + 1 steps one
    lies past the projection of the base vertex and its image extends it.
    From there the state of h at the iterate u (walked from the base
    vertex) and the chunk that h(u) adds to u fix every later chunk, so
    their first repeat closes the period.
    """
    u = start
    for _ in range(len(start) + 1):
        w = h.image(u)
        if len(w) > len(u) and w[: len(u)] == u:
            break
        u = w
    else:
        raise RuntimeError("axis iteration never started extending")
    seen: dict = {}
    while True:
        key = (h._walk(u)[1], w[len(u):])
        if key in seen:
            return TreeEnd(u[: seen[key]], u[seen[key]:])
        seen[key] = len(u)
        u, w = w, h.image(w)
        if w[: len(u)] != u:
            raise RuntimeError("axis iteration stopped extending")


def axis_overlap(a: Portrait, x0: Word, x: Word, n: int) -> int:
    """Length of the geodesic [x0, a^n(x)] intersected with the axis of a,
    from scratch for the one n: classify a, apply it n times, project."""
    cls = classify_isometry(a)
    if not cls.is_hyperbolic:
        raise NotHyperbolic("the automorphism must be hyperbolic")
    w = x
    for _ in range(n):
        w = a.image(w)
    c0, _ = cls.axis.project(x0)
    c1, _ = cls.axis.project(w)
    return abs(c1 - c0)


def brute_min_displacement(g: Portrait, radius: int) -> tuple[int, Word]:
    """Independent oracle: scan the whole ball for the smallest displacement."""
    best = None
    for w in ball_words(g.degree, radius):
        d = word_distance(g.image(w), w)
        if best is None or d < best[0]:
            best = (d, w)
    return best


def first_outside_by_ball(F: LocalGroup, g: Portrait, radius: int) -> Word | None:
    """The shortlex-first vertex of the ball of ``radius`` whose local
    permutation under ``g`` is not in F, by scanning the whole ball."""
    for w in ball_words(F.degree, radius):
        if g.sigma(w) not in F:
            return w
    return None


def prefix_memo_image_of_end(g, end: TreeEnd, abort_if_not: TreeEnd | None = None):
    """The end-image walk that evaluates every ray vertex from scratch: a
    fresh vertex per step, ``sigma`` and ``walk_state`` looked up by the
    whole word, letters read one call at a time.  Quadratic in the walk's
    length, and kept as the oracle for ``Portrait.image_of_end``; ``g`` is
    an oracle portrait (a ``MemoPortrait``)."""
    pre_len = len(end.prefix)
    per_len = len(end.period)
    v = ROOT
    u: Word = g.base_image
    emitted: list[int] = []
    seen: dict = {}
    predicted = None
    extended_once = False
    cap = END_WALK_CAP + 40 * (pre_len + per_len + len(u))
    for k in range(cap):
        c = end.letter(k)
        sig = g.sigma(v)
        e = sig[c]
        if u and u[-1] == e:
            u = u[:-1]
            seen.clear()
            predicted = None
        else:
            u = u + (e,)
            emitted.append(e)
            extended_once = True
            if abort_if_not is not None and abort_if_not.letter(len(u) - 1) != e:
                return None
        state = g.walk_state(v)
        if state is None or k < pre_len or not extended_once:
            seen.clear()
            predicted = None
        else:
            if predicted is not None and predicted != state:
                seen.clear()
            phase = (k - pre_len) % per_len
            key = (phase, state, u[-1] if u else -1)
            hit = seen.get(key)
            if hit is not None:
                _, emit_count, snapshot = hit
                period = tuple(emitted[emit_count:])
                if period:
                    return TreeEnd(snapshot, period)
            seen[key] = (k, len(emitted), u)
            predicted = g.step_state(state, c)
            if predicted is None:
                seen.clear()
        v = reduce_word(v, (c,))
    raise RuntimeError("end image did not stabilize")


class MemoPortrait:
    """An oracle portrait: evaluated vertex by vertex, independently of
    ``Portrait``'s state machines, with its own algebra and the Markov
    walk-state protocol that ``prefix_memo_image_of_end`` reads:

    * ``walk_state(v)`` returns a hashable token or None.  A non-None token
      promises that for any child w = v + (c,), both ``sigma(w)`` and
      ``walk_state(w)`` are functions of (token, c), realized by
      ``step_state``/``state_sigma``.
    * ``step_state(token, c)`` evolves the token down one edge (None when
      the promise cannot be kept from the token alone).
    * ``state_sigma(token)`` recovers the local permutation at the token's
      vertex.
    """

    def compose(self, other: "MemoPortrait") -> "MemoPortrait":
        return MemoComposedPortrait(self, other)

    def __mul__(self, other: "MemoPortrait") -> "MemoPortrait":
        return self.compose(other)

    def inverse(self) -> "MemoPortrait":
        return MemoInversePortrait(self)

    def power(self, n: int) -> "MemoPortrait":
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out


class MemoTablePortrait(MemoPortrait):
    """A table portrait evaluated by per-prefix memos: ``sigma`` extends
    from the deepest memoized or tabled prefix, ``image`` from the deepest
    memoized image, and every prefix met is stored.  The extension rules are
    restated here.  Quadratic in memory along a long word; kept as the
    oracle for ``TablePortrait``, whose arguments it takes and trusts."""

    def __init__(self, base_image, table=None, degree=3, extension=EXTEND_SPARSE):
        self.degree = degree
        self.base_image = tuple(base_image)
        self.extension = extension
        self._table = {tuple(w): tuple(p) for w, p in (table or {}).items()}
        self._table_depth = max((len(w) for w in self._table), default=-1)
        self._sig_memo: dict[Word, tuple] = {}
        self._img_memo: dict[Word, Word] = {(): self.base_image}

    def _rule(self, sigma_parent, c):
        if self.extension == EXTEND_CONSTANT:
            return sigma_parent
        forced = sigma_parent[c]
        if forced == c:
            return identity(self.degree)
        return transposition(self.degree, c, forced)

    def sigma(self, w):
        memo = self._sig_memo
        got = memo.get(w)
        if got is not None:
            return got
        i = len(w)
        while i > 0 and w[:i] not in memo and w[:i] not in self._table:
            i -= 1
        if w[:i] in memo:
            sig = memo[w[:i]]
        elif w[:i] in self._table:
            sig = self._table[w[:i]]
        else:
            sig = self._table.get((), identity(self.degree))
            memo[()] = sig
        for j in range(i, len(w)):
            prefix = w[: j + 1]
            sig = self._table.get(prefix) or self._rule(sig, w[j])
            memo[prefix] = sig
        memo[w] = sig
        return sig

    def image(self, w):
        memo = self._img_memo
        got = memo.get(w)
        if got is not None:
            return got
        i = len(w)
        while i > 0 and w[:i] not in memo:
            i -= 1
        z = memo[w[:i]]
        for j in range(i, len(w)):
            e = self.sigma(w[:j])[w[j]]
            z = z[:-1] if z and z[-1] == e else z + (e,)
            memo[w[: j + 1]] = z
        return z

    def walk_state(self, v):
        # from the table's depth on, no child is a table key
        if len(v) < self._table_depth:
            return None
        return self.sigma(v)

    def step_state(self, state, c: int):
        return self._rule(state, c)

    def state_sigma(self, state):
        return state


class MemoComposedPortrait(MemoPortrait):
    """outer o inner (apply inner first), evaluated part by part: the inner
    image, then the outer portrait there."""

    def __init__(self, outer: MemoPortrait, inner: MemoPortrait):
        self.degree = outer.degree
        self.outer = outer
        self.inner = inner
        self.base_image = outer.image(inner.base_image)

    def sigma(self, v):
        return compose(self.outer.sigma(self.inner.image(v)), self.inner.sigma(v))

    def image(self, v):
        return self.outer.image(self.inner.image(v))

    def walk_state(self, v):
        sh = self.inner.walk_state(v)
        if sh is None:
            return None
        hv = self.inner.image(v)
        sg = self.outer.walk_state(hv)
        if sg is None:
            return None
        return ("C", sh, sg, hv[-1] if hv else -1)

    def step_state(self, state, c: int):
        _, sh, sg, last = state
        e = self.inner.state_sigma(sh)[c]
        if e == last:
            return None
        sh2 = self.inner.step_state(sh, c)
        sg2 = self.outer.step_state(sg, e)
        if sh2 is None or sg2 is None:
            return None
        return ("C", sh2, sg2, e)

    def state_sigma(self, state):
        _, sh, sg, _ = state
        return compose(self.outer.state_sigma(sg), self.inner.state_sigma(sh))


class MemoInversePortrait(MemoPortrait):
    """The inverse by a guided walk that evaluates ``inner.sigma`` from the
    root at every cursor and memoizes each preimage: the cursor y, with
    inner(y) tracking the path to v, moves to the unique neighbor whose
    image moves one edge along that path."""

    def __init__(self, inner: MemoPortrait):
        self.degree = inner.degree
        self.inner = inner
        self._img_memo: dict[Word, Word] = {}
        self.base_image = self.image(ROOT)

    def image(self, v):
        got = self._img_memo.get(v)
        if got is not None:
            return got
        y = ROOT
        # inner(y) walks from the inner base image down to the base vertex,
        # then out along the word of v
        for e in self.inner.base_image[::-1] + v:
            c = invert(self.inner.sigma(y))[e]
            y = reduce_word(y, (c,))
        self._img_memo[v] = y
        return y

    def sigma(self, v):
        return invert(self.inner.sigma(self.image(v)))

    def walk_state(self, v):
        z = self.image(v)
        s = self.inner.walk_state(z)
        if s is None:
            return None
        return ("I", s, z[-1] if z else -1)

    def step_state(self, state, c: int):
        _, s, last = state
        e = invert(self.inner.state_sigma(s))[c]
        if e == last:
            return None
        s2 = self.inner.step_state(s, e)
        if s2 is None:
            return None
        return ("I", s2, e)

    def state_sigma(self, state):
        return invert(self.inner.state_sigma(state[1]))
