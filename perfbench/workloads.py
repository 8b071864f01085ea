"""Workloads of the building-forge benchmark and the checks on their outputs.

A job is one CLI invocation.  The seed picks a color relabeling pi for each
degree; it is applied to every group document, automorphism and end written
here, so the program only ever sees relabeled inputs.  Every check is
invariant under pi, which lets a claim be re-checked on a seed that was not
used while the change was written.

The checks use the program's own outputs only.  Where a closed form exists
it is used: K-orbits on spheres are single orbits exactly when F is
2-transitive (Burger-Mozes), and every sphere word is its own orbit when F
is trivial.  Elsewhere the checks compare relabeling-invariant numbers
recorded from the program at its first benchmarked commit (``RECORDED``).
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("noncommutative", "strong", "tables-and-walks")
DEFAULT_SEED = 1

# Local groups before relabeling: (degree, generators as image tuples).
GROUPS = {
    "trivial3": (3, []),
    "C3": (3, [(1, 2, 0)]),
    "C5": (5, [(1, 2, 3, 4, 0)]),
    "D4": (4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
    "A4": (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
    "S4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "F20": (5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]),
    "S5": (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
}

# Relabeling-invariant outputs of the program at its first benchmarked
# commit, for the groups without a closed form: K-orbit counts per sphere,
# Hecke tensor entry count, and the multiset of intersection numbers
# {N: how many entries}.
RECORDED = {
    "sphere_counts": {
        ("C3", 7): [1, 1, 2, 4, 8, 16, 32, 64],
        ("C3", 8): [1, 1, 2, 4, 8, 16, 32, 64, 128],
        ("C3", 12): [1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
        ("C5", 5): [1, 1, 4, 16, 64, 256],
        ("C5", 8): [1, 1, 4, 16, 64, 256, 1024, 4096, 16384],
        ("D4", 6): [1, 1, 2, 4, 8, 16, 32],
    },
    "entries": {("C3", 8): 2818},
    "n_multiset": {("C3", 8): {1: 2803, 3: 15}},
}


class CheckFailed(Exception):
    """A job's output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    label: str
    argv: list[str]  # CLI arguments after the program name
    # check(stdout, earlier stdouts by label) raises CheckFailed on a wrong output
    check: Callable[[str, dict[str, str]], None]


# ---------------------------------------------------------------------------
# independent oracles


def relabelings(seed: int) -> dict[int, tuple[int, ...]]:
    """The color relabeling pi for each degree in use, drawn from the seed."""
    rng = random.Random(seed)
    out = {}
    for degree in (3, 4, 5):
        pi = list(range(degree))
        rng.shuffle(pi)
        out[degree] = tuple(pi)
    return out


def conjugate(pi: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """pi g pi^-1 in one-line image notation."""
    out = [0] * len(g)
    for x, gx in enumerate(g):
        out[pi[x]] = pi[gx]
    return tuple(out)


def two_transitive(degree: int, generators) -> bool:
    """Whether the group generated is 2-transitive on the colors."""
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        new = {tuple(g[x] for x in p) for p in frontier for g in generators} - elements
        elements |= new
        frontier = list(new)
    return len({(p[0], p[1]) for p in elements}) == degree * (degree - 1)


def sphere_size(degree: int, n: int) -> int:
    return 1 if n == 0 else degree * (degree - 1) ** (n - 1)


def reduce_word(a: tuple, b: tuple) -> tuple:
    """Concatenate two color words as paths, cancelling at the seam."""
    out = list(a)
    for c in b:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def axis_of_transport(w: tuple) -> tuple[int, int]:
    """(distance from the base vertex to the axis, translation length) of the
    color-preserving automorphism x -> w x.  Each color is an involution in
    the group these automorphisms form, so w = u v u^-1 with v cyclically
    reduced; the axis passes through u and is translated by len(v)."""
    k = 0
    while len(w) >= 2 and w[0] == w[-1]:
        w = w[1:-1]
        k += 1
    return k, len(w)


def attracting_prefix(w: tuple, n: int) -> tuple:
    """The first n letters of the attracting end lim w^m x0 (w hyperbolic):
    with w = u v u^-1 as above, w^m = u v^m u^-1, so the end is u v v v..."""
    k, _ = axis_of_transport(w)
    u, v = w[:k], w[k : len(w) - k]
    return (u + v * n)[:n]


def lcp(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# ---------------------------------------------------------------------------
# output checks


def expected_sphere_counts(group: str, radius: int) -> list[int]:
    degree, gens = GROUPS[group]
    if two_transitive(degree, gens):
        return [1] * (radius + 1)
    if not gens:
        return [sphere_size(degree, n) for n in range(radius + 1)]
    return RECORDED["sphere_counts"][(group, radius)]


def check_gelfand(group: str, depth: int):
    degree, gens = GROUPS[group]
    strong = two_transitive(degree, gens)

    def check(out: str, earlier) -> None:
        doc = json.loads(out)
        expect(doc["consistent"] is True, "report is not consistent")
        expect(doc["depth"] == depth, f"depth {doc['depth']} != {depth}")
        expect(doc["st_boundary"] is strong, f"st_boundary is not {strong}")
        expect(
            doc["hecke_verdict"].startswith("commutative") is strong,
            f"hecke verdict {doc['hecke_verdict']!r} is on the wrong side",
        )
        expect((doc["witness"] is None) is strong, "witness on the wrong side")
        expect(
            doc["orbit_finiteness"] == ("stabilized" if strong else "growing"),
            f"orbit growth {doc['orbit_finiteness']!r} is on the wrong side",
        )
        expect(
            doc["orbit_counts"] == expected_sphere_counts(group, depth),
            f"orbit counts {doc['orbit_counts']}",
        )

    return check


def check_hecke(group: str, radius: int):
    degree, gens = GROUPS[group]
    strong = two_transitive(degree, gens)
    counts = expected_sphere_counts(group, radius)
    if gens:
        entries = RECORDED["entries"][(group, radius)]
        multiset = RECORDED["n_multiset"][(group, radius)]
    else:
        # trivial K: every (i, j) in budget has exactly one product vertex
        entries = sum(
            sphere_size(degree, a) * sphere_size(degree, b)
            for a in range(radius + 1)
            for b in range(radius + 1 - a)
        )
        multiset = {1: entries}

    def check(out: str, earlier) -> None:
        doc = json.loads(out)
        expect(doc["radius"] == radius, f"radius {doc['radius']} != {radius}")
        expect(
            doc["verdict"].startswith("commutative") is strong,
            f"verdict {doc['verdict']!r} is on the wrong side",
        )
        orbits = doc["orbits"]
        dist = {o["id"]: o["distance"] for o in orbits}
        val = {o["id"]: o["valency"] for o in orbits}
        got = Counter(dist.values())
        expect([got[n] for n in range(radius + 1)] == counts, "orbit counts per sphere")
        per_sphere = Counter()
        for o in orbits:
            per_sphere[o["distance"]] += o["valency"]
        expect(
            all(per_sphere[n] == sphere_size(degree, n) for n in range(radius + 1)),
            "valencies do not partition the spheres",
        )
        tensor = {(c["i"], c["j"], c["k"]): c["N"] for c in doc["constants"]}
        expect(len(tensor) == entries, f"{len(tensor)} tensor entries, expected {entries}")
        expect(dict(Counter(tensor.values())) == multiset, "multiset of N values")
        # sum_k N[i][j][k] v_k = v_i v_j: both count pairs (y, z) with
        # (x, y) in O_i and (y, z) in O_j
        row = defaultdict(int)
        for (i, j, k), n in tensor.items():
            row[(i, j)] += n * val[k]
        for i in dist:
            for j in dist:
                if dist[i] + dist[j] <= radius:
                    expect(row[(i, j)] == val[i] * val[j], f"row sum of N[{i}][{j}]")

    return check


def check_orbits(group: str, radius: int, cold_label: str | None):
    degree, _ = GROUPS[group]
    counts = expected_sphere_counts(group, radius)

    def check(out: str, earlier) -> None:
        doc = json.loads(out)
        expect(doc["radius"] == radius, f"radius {doc['radius']} != {radius}")
        expect(doc["sphere_counts"] == counts, f"sphere counts {doc['sphere_counts']}")
        sizes = Counter()
        for c in doc["classes"]:
            sizes[c["distance"]] += c["size"]
        expect(
            all(sizes[n] == sphere_size(degree, n) for n in range(radius + 1)),
            "class sizes do not partition the spheres",
        )
        expect(len(doc["classes"]) == sum(counts), "number of classes")
        if cold_label is not None:
            cold = json.loads(earlier[cold_label])
            expect(doc["classes"] == cold["classes"], "warm table differs from cold")

    return check


def check_dynamics(word: tuple, prefix: tuple, period: tuple, nmax: int):
    k, length = axis_of_transport(word)
    # the ray of the end, long enough that the exact depths below stay
    # inside the known prefixes of both ends
    size = 4 * nmax * len(word) + 200
    ray = (prefix + period * size)[:size]
    plus = attracting_prefix(word, size)
    burn_in = k + len(prefix)  # the end specs here are in normal form

    def check(out: str, earlier) -> None:
        doc = json.loads(out)
        expect(doc["translation_length"] == length, "translation length")
        rows = doc["rows"]
        expect([r["n"] for r in rows] == list(range(1, nmax + 1)), "row numbering")
        image = ray
        depths = []
        for r in rows:
            image = reduce_word(word, image)
            depth = lcp(image, plus)
            expect(depth < min(len(image), size) - len(word), "oracle prefix too short")
            expect(r["agreement_depth"] == depth, f"agreement depth at n={r['n']}")
            expect(r["axis_overlap"] == r["n"] * length, f"axis overlap at n={r['n']}")
            depths.append(depth)
        # after the burn-in the depth grows by the translation length per step
        for n in range(2, nmax + 1):
            step = depths[n - 1] - depths[n - 2]
            expect(step >= 0, f"agreement depth shrinks at n={n}")
            expect(n < burn_in + 2 or step == length, f"depth step {step} at n={n}")

    return check


def check_find_sr(budget: int):
    def check(out: str, earlier) -> None:
        doc = json.loads(out)
        expect(doc["budget"] == budget, "budget")
        word = tuple(int(c) for c in doc["base_image"].split())
        _, length = axis_of_transport(word)
        expect(length >= 2, f"base image {word} is not hyperbolic")
        expect(doc["translation_length"] == length, "translation length")
        minus = tuple(reversed(word))
        for key, w in (("axis_prefix_plus", word), ("axis_prefix_minus", minus)):
            got = tuple(int(c) for c in doc[key].split())
            expect(got == attracting_prefix(w, 10), key)

    return check


# ---------------------------------------------------------------------------
# job lists


def build(workload: str, seed: int, inputs: Path) -> tuple[list[Path], list[Job]]:
    """Write the workload's relabeled group documents under ``inputs``.

    Returns the documents and the job list.  Job arguments name the
    documents by absolute path, so jobs may run in any working directory.
    """
    pi = relabelings(seed)
    docs: dict[str, Path] = {}

    def doc(group: str) -> str:
        if group not in docs:
            degree, gens = GROUPS[group]
            perms = [" ".join(map(str, conjugate(pi[degree], g))) for g in gens]
            docs[group] = inputs / f"{group}.json"
            docs[group].write_text(json.dumps({"degree": degree, "generators": perms}) + "\n")
        return str(docs[group])

    def word(group: str, letters: tuple) -> tuple:
        return tuple(pi[GROUPS[group][0]][c] for c in letters)

    def csv(w: tuple) -> str:
        return ",".join(map(str, w))

    jobs: list[Job] = []

    def gelfand(group, depth):
        jobs.append(Job(f"gelfand {group} d{depth}",
                        ["gelfand", "--group", doc(group), "--radius", str(depth)],
                        check_gelfand(group, depth)))

    def hecke(group, radius):
        jobs.append(Job(f"hecke {group} R{radius}",
                        ["hecke", "--group", doc(group), "--radius", str(radius)],
                        check_hecke(group, radius)))

    def orbits(group, radius):
        argv = ["orbits", "--group", doc(group), "--radius", str(radius)]
        cold = f"orbits {group} r{radius} cold"
        jobs.append(Job(cold, argv, check_orbits(group, radius, None)))
        jobs.append(Job(f"orbits {group} r{radius} warm", argv, check_orbits(group, radius, cold)))

    def dynamics(group, auto, prefix, period, nmax):
        w, pre, per = word(group, auto), word(group, prefix), word(group, period)
        jobs.append(Job(f"dynamics {group} transport:{csv(auto)} n{nmax}",
                        ["dynamics", "--group", doc(group), "--auto", f"transport:{csv(w)}",
                         "--end", f"{csv(pre)}:{csv(per)}", "--nmax", str(nmax)],
                        check_dynamics(w, pre, per, nmax)))

    def find_sr(group, budget):
        jobs.append(Job(f"find-sr {group} b{budget}",
                        ["find-sr", "--group", doc(group), "--budget", str(budget)],
                        check_find_sr(budget)))

    if workload == "noncommutative":
        gelfand("C5", 5)
        gelfand("D4", 6)
        gelfand("C3", 7)
        hecke("trivial3", 7)
        hecke("C3", 8)
    elif workload == "strong":
        gelfand("S5", 5)
        gelfand("F20", 5)
        gelfand("S4", 6)
        gelfand("A4", 6)
    elif workload == "tables-and-walks":
        orbits("C3", 12)
        orbits("C5", 8)
        dynamics("C3", (0, 1), (), (0, 2), 200)
        dynamics("S4", (0, 1, 2), (3,), (0, 2), 100)
        find_sr("C5", 100)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return list(docs.values()), jobs
