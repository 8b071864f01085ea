"""Shared constructions for the test suite.

Oracles here are deliberately independent of the library code paths they
check: brute-force counts over balls, direct deep-vertex evaluation for end
images, exhaustive enumeration of constrained local data.
"""

from itertools import combinations_with_replacement, permutations
from random import Random

from building_forge.group import LocalGroup, _constrained_images, k_orbit
from building_forge.tree import (
    ROOT,
    Portrait,
    TablePortrait,
    TreeVertex,
    Word,
    ball_words,
    parallel_transport,
    reduce_word,
    sphere_words,
)


def make_c3() -> LocalGroup:
    return LocalGroup(3, [(1, 2, 0)])


def make_s3() -> LocalGroup:
    return LocalGroup(3, [(1, 0, 2), (0, 2, 1)])


def make_trivial(degree: int = 3) -> LocalGroup:
    return LocalGroup(degree, [])


def make_s4() -> LocalGroup:
    return LocalGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def subgroups_of_symmetric(degree: int) -> list[LocalGroup]:
    """Every 2-generated subgroup of S_degree; for degree <= 4 that is all
    of them (6 for S3, 30 for S4), in first-found order."""
    found: dict[tuple, LocalGroup] = {}
    # (a, b) and (b, a) generate the same group, and the earlier of the two
    # comes first in the nested-loop order, so unordered pairs suffice.
    for a, b in combinations_with_replacement(permutations(range(degree)), 2):
        F = LocalGroup(degree, [a, b])
        found.setdefault(F.elements, F)
    return list(found.values())


def check_legal(g: Portrait, F: LocalGroup, radius: int) -> bool:
    """U(F)-legality oracle: every local permutation of ``g`` within the
    ball of ``radius`` lies in F and satisfies the legality cocycle."""
    for w in ball_words(F.degree, radius):
        v = TreeVertex(w)
        sig = g.sigma(v)
        if sig not in F:
            return False
        if w:
            if sig[w[-1]] != g.sigma(TreeVertex(w[:-1]))[w[-1]]:
                return False
    return True


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


def random_k_portrait(rng: Random, degree: int, depth: int = 3) -> TablePortrait:
    """A random base-vertex stabilizer, legal by construction."""
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
    return TablePortrait(ROOT, table, degree)


def random_hyperbolic(rng: Random, degree: int = 3) -> tuple[Portrait, int]:
    """(portrait, translation length); mixes plain, conjugated, shifted."""
    n = rng.randint(2, 4)
    word = [rng.randrange(degree)]
    while len(word) < n:
        c = rng.randrange(degree)
        if c != word[-1]:
            word.append(c)
    if word[0] == word[-1]:
        word.append(next(c for c in range(degree) if c not in (word[-1], word[0])))
    t = parallel_transport(tuple(word), degree)
    style = rng.randrange(3)
    if style == 0:
        return t, len(word)
    if style == 1:
        k = random_k_portrait(rng, degree, depth=2)
        return k * t * k.inverse(), len(word)
    h = parallel_transport(tuple(word[:1]) if word[0] != word[-1] else (word[-1],), degree)
    return h * t * h.inverse(), len(word)


def brute_min_displacement(g: Portrait, radius: int) -> tuple[int, TreeVertex]:
    """Independent oracle: scan the whole ball for the smallest displacement."""
    best = None
    for w in ball_words(g.degree, radius):
        v = TreeVertex(w)
        d = g.displacement(v)
        if best is None or d < best[0]:
            best = (d, v)
    return best
