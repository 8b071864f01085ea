"""The main verdict pipeline for a chosen local group F.

Three independently computed views of the same dichotomy:

* boundary transitivity proxies (finite-depth shadows of transitivity on
  pairs of ends, per-sphere orbit growth, fixed ends of a generating
  family);
* the commutativity scan of the orbit algebra;
* an explicit pair of hyperbolic elements witnessing noncommutativity,
  certified by a finite, exact orbit-set disjointness

      K(ab x0)  disjoint from  K b K(a x0),

  which is sufficient for ab not lying in K b K a K (if ab = k3 b k4 a k2
  then ab x0 = k3 b k4 a x0) and therefore forces the two convolution
  products of the coset indicators apart.

A report is *consistent* when all three views land on the same side.  Every
verdict carries the depths it was certified at; the proxies claim nothing
beyond their depth.
"""

from __future__ import annotations

from typing import NamedTuple

from .group import (
    GrowthReport,
    LocalGroup,
    fixed_end_check,
    k_orbit,
    orbit_count_growth,
    two_transitivity_on_ends_proxy,
)
from .hecke import HeckeVerdict, StructureConstants, commutativity_report
from .tree import (
    ROOT,
    BudgetExhausted,
    IsometryClass,
    Portrait,
    TreeApartment,
    TreeEnd,
    TreeVertex,
    Word,
    parallel_transport,
    pigeonhole_find_hyperbolic,
    sphere_words,
    standard_apartment,
    transport_between,
)


class StrongTransitivityReport(NamedTuple):
    """Finite-depth shadows of boundary transitivity, with their depths."""

    depth: int
    two_transitive_on_ends: bool
    growth: GrowthReport
    fixed_ends: tuple[TreeEnd, ...]


def strong_transitivity_verdict(F: LocalGroup, depth: int) -> StrongTransitivityReport:
    """Assemble the boundary proxies at the given certification depth."""
    if depth < 3:
        raise ValueError("the verdict needs depth >= 3")
    return StrongTransitivityReport(
        depth=depth,
        two_transitive_on_ends=two_transitivity_on_ends_proxy(F, depth),
        growth=orbit_count_growth(F, depth),
        fixed_ends=tuple(sorted(fixed_end_check(F), key=repr)),
    )


# ---------------------------------------------------------------------------
# pigeonhole oracles along a line


def line_pigeonhole_oracles(F: LocalGroup, line: TreeApartment, window: int):
    """Label and transporter oracles for the pigeonhole walk.

    The group orbit of every vertex is a single class (the color-preserving
    transports act transitively), so a label is the isomorphism type of the
    marked window: the raw color letters of the line around the position.
    Equal labels make the color-preserving transport between the positions
    map the windows onto each other, which lands in U(F) for every F.
    """
    L = line.branch_depth

    def letter_at(s: int) -> int:
        # color of the edge between positions s and s+1
        return line.end_plus.letter(L + s) if s >= 0 else line.end_minus.letter(L - s - 1)

    def labels(v: TreeVertex) -> Word:
        t = line.coordinate_of(v)
        if t is None:
            raise ValueError("marked vertex is not on the line")
        return tuple(letter_at(s) for s in range(t - window, t + window))

    def transporter(src: TreeVertex, dst: TreeVertex):
        return transport_between(src, dst, F.degree)

    return labels, transporter


def find_strongly_regular(F: LocalGroup, budget: int) -> tuple[Portrait, IsometryClass]:
    """A hyperbolic element of U(F) found by pigeonhole, with its certificate."""
    line = standard_apartment()
    labels, transporter = line_pigeonhole_oracles(F, line, window=budget + 2)
    return pigeonhole_find_hyperbolic(line, labels, transporter, budget)


# ---------------------------------------------------------------------------
# witness pairs


class WitnessPair(NamedTuple):
    """Two hyperbolic elements whose coset products separate.

    ``certificate`` holds the two exact vertex-orbit sets whose disjointness
    was verified; ``separation_depth`` is the prefix depth at which the
    chosen end leaves the stabilizer shadow of the first axis boundary.
    """

    alpha: Portrait
    beta: Portrait
    m: int
    n: int
    certificate: tuple[frozenset[Word], frozenset[Word]]
    separation_depth: int

    @property
    def alpha_image(self) -> Word:
        return self.alpha.image(ROOT).word

    @property
    def beta_image(self) -> Word:
        return self.beta.image(ROOT).word


_SEPARATION_CAP = 12


def separation_end(F: LocalGroup, axis) -> tuple[TreeEnd, int]:
    """An end whose depth-r shadow avoids the stabilizer shadow of the axis
    boundary, with the smallest such r.

    Cone neighborhoods on a tree are prefix-agreement sets, so it suffices
    to find a sphere word outside the stabilizer orbits of the two depth-r
    axis prefixes and point an eventually periodic end through it.
    """
    degree = F.degree
    for r in range(1, _SEPARATION_CAP + 1):
        shadow = k_orbit(F, axis.end_plus.word_prefix(r)) | k_orbit(
            F, axis.end_minus.word_prefix(r)
        )
        sphere_size = degree * (degree - 1) ** (r - 1)
        if len(shadow) < sphere_size:
            outside = min(w for w in sphere_words(degree, r) if w not in shadow)
            a = min(x for x in range(degree) if x != outside[-1])
            b = min(x for x in range(degree) if x != a)
            return TreeEnd(outside, (a, b)), r
    raise RuntimeError(
        "no separating end within the depth cap; the stabilizer shadows cover "
        "every sphere tried"
    )


_CERTIFICATE_CAP = 500_000


def certify_disjoint(
    F: LocalGroup, a: Portrait, b: Portrait, m: int, n: int
) -> tuple[bool, frozenset[Word], frozenset[Word]]:
    """Exact vertex-level disjointness check for the powers (a^m, b^n)."""
    alpha = a.power(m)
    beta = b.power(n)
    left = k_orbit(F, alpha.image(beta.image(ROOT)).word)
    mid = k_orbit(F, alpha.image(ROOT).word)
    if len(left) + len(mid) > _CERTIFICATE_CAP:
        raise BudgetExhausted("certificate orbit sets exceed the size cap")
    right: set[Word] = set()
    for y in mid:
        right |= k_orbit(F, beta.image(TreeVertex(y)).word)
        if len(right) > _CERTIFICATE_CAP:
            raise BudgetExhausted("certificate orbit sets exceed the size cap")
    return left.isdisjoint(right), frozenset(left), frozenset(right)


def find_witness(F: LocalGroup, budget: int) -> WitnessPair | None:
    """Search for a noncommutativity witness; None when there is none.

    Short-circuits to None on the strongly transitive side (no witness can
    exist there), as certified by the depth-3 boundary proxy.  Otherwise
    builds a hyperbolic element along one apartment, points a second one at
    an end outside the stabilizer shadow of the first axis boundary, and
    scans powers (m, n) in lexicographic (m+n, m) order for an exact
    vertex-orbit disjointness certificate.

    Known gap: the None on the strong side is read off the pair proxy, not
    derived here, so on that side the report's witness view copies the
    proxy view rather than checking it.
    """
    if budget < 1:
        return None
    if two_transitivity_on_ends_proxy(F, 3):
        return None
    try:
        a, certificate = find_strongly_regular(F, budget)
    except BudgetExhausted:
        return None
    target, r = separation_end(F, certificate.axis)
    word = target.word_prefix(max(r, 2))
    if word[0] == word[-1]:
        extra = min(x for x in range(F.degree) if x not in (word[-1], word[0]))
        word = word + (extra,)
    b = parallel_transport(word, F.degree)
    for total in range(2, 2 * budget + 1):
        for m in range(1, total):
            n = total - m
            if m > budget or n > budget:
                continue
            try:
                ok, left, right = certify_disjoint(F, a, b, m, n)
            except BudgetExhausted:
                return None
            if ok:
                return WitnessPair(
                    alpha=a.power(m),
                    beta=b.power(n),
                    m=m,
                    n=n,
                    certificate=(left, right),
                    separation_depth=r,
                )
    return None


def evaluate_noncommutativity(
    w: WitnessPair, sc: StructureConstants
) -> tuple[int, int]:
    """The two convolution products of the coset indicators at (x0, ab x0).

    Returns (phi*psi, psi*phi) evaluated at the pair orbit of ab x0 with
    phi, psi the indicators of the alpha and beta orbits.  For a valid
    witness the first is >= 1 and the second is 0 (counting normalization).
    """
    i_alpha = sc.class_of_word(w.alpha_image)
    i_beta = sc.class_of_word(w.beta_image)
    k_star = sc.class_of_word(w.alpha.image(TreeVertex(w.beta_image)).word)
    return sc.n(i_alpha, i_beta, k_star), sc.n(i_beta, i_alpha, k_star)


# ---------------------------------------------------------------------------
# the assembled verdict


class Verdict(NamedTuple):
    """All three views of the dichotomy for one local group, with depths."""

    degree: int
    group_hash: str
    depth: int
    st_boundary: bool
    orbit_finiteness: str  # "stabilized" | "growing"
    orbit_counts: tuple[int, ...]
    hecke: HeckeVerdict
    witness: WitnessPair | None
    consistent: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        doc = {
            "format_version": 1,
            "group": {"degree": self.degree, "hash": self.group_hash},
            "depth": self.depth,
            "st_boundary": self.st_boundary,
            "orbit_counts": list(self.orbit_counts),
            "orbit_finiteness": self.orbit_finiteness,
            "hecke_verdict": self.hecke.describe(),
            "consistent": self.consistent,
            "notes": list(self.notes),
        }
        if self.witness is not None:
            doc["witness"] = {
                "m": self.witness.m,
                "n": self.witness.n,
                "alpha_image": " ".join(map(str, self.witness.alpha_image)),
                "beta_image": " ".join(map(str, self.witness.beta_image)),
                "separation_depth": self.witness.separation_depth,
                "certificate_sizes": [
                    len(self.witness.certificate[0]),
                    len(self.witness.certificate[1]),
                ],
            }
        else:
            doc["witness"] = None
        return doc


def main_theorem_report(F: LocalGroup, depth: int, budget: int = 6) -> Verdict:
    """Run all three views and check that they agree on a side.

    A False ``consistent`` flag is a defect of this artifact (or an
    insufficient depth), never of the underlying equivalence.
    """
    if depth < 3:
        raise ValueError("reports need depth >= 3")
    stv = strong_transitivity_verdict(F, depth)
    hv = commutativity_report(F, depth)
    witness = find_witness(F, budget)
    finiteness = "stabilized" if stv.growth.stabilized else "growing"
    strong_side = [
        stv.two_transitive_on_ends,
        stv.growth.stabilized,
        hv.commutative,
        witness is None,
    ]
    consistent = all(strong_side) or not any(strong_side)
    notes = []
    if F.order() == 1:
        notes.append(
            "K is trivial: the orbit algebra is the full pair-kernel algebra"
        )
    if stv.fixed_ends:
        notes.append("generating family fixes boundary points; proxies inapplicable")
    return Verdict(
        degree=F.degree,
        group_hash=F.hash_key(),
        depth=depth,
        st_boundary=stv.two_transitive_on_ends,
        orbit_finiteness=finiteness,
        orbit_counts=stv.growth.counts,
        hecke=hv,
        witness=witness,
        consistent=consistent,
        notes=tuple(notes),
    )
