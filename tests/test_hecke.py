"""Orbit algebra: intersection numbers, convolution, commutativity."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    KernelFunction,
    ball_words,
    convolve,
    invert,
    make_c3,
    make_s3,
    make_s4,
    make_trivial,
    subgroups_of_symmetric,
    triple_loop_count,
    triple_loop_tensor,
)
from building_forge import hecke
from building_forge.group import LocalGroup, OrbitClass, OrbitTable, orbit_table
from building_forge.hecke import (
    HeckeVerdict,
    OutOfBudget,
    _near_geodesic,
    _transport,
    commutativity_of,
    commutativity_report,
    intersection_numbers,
)
from building_forge.perms import compose, transposition
from building_forge.words import word_distance

C3 = make_c3()
S3 = make_s3()
TRIV = make_trivial()


def oracle_pair_count(d_i: int, d_j: int, z: tuple, radius: int) -> int:
    """Brute force over the ball: #{y : d(x0,y)=d_i and d(y,z)=d_j}.

    Valid as a radial oracle (it ignores orbit structure), so it matches the
    tensor exactly when every sphere is a single orbit.
    """
    count = 0
    for y in ball_words(3, radius):
        if len(y) == d_i and word_distance(y, z) == d_j:
            count += 1
    return count


class TestPairOrbits:
    def test_counts(self):
        assert len(intersection_numbers(S3, 4).orbits) == 5
        assert len(intersection_numbers(C3, 2).orbits) == 4
        assert len(intersection_numbers(C3, 0).orbits) == 1

    def test_diagonal_orbit(self):
        orb = intersection_numbers(S3, 2).orbits[0]
        assert orb.distance == 0 and orb.size == 1 and orb.representative == ()


class TestIntersectionNumbers:
    def test_unit_laws(self):
        sc = intersection_numbers(C3, 4)
        for i in range(len(sc.orbits)):
            for k in range(len(sc.orbits)):
                if sc.in_budget(i, 0):
                    assert sc.n(i, 0, k) == (1 if i == k else 0)
                if sc.in_budget(0, i):
                    assert sc.n(0, i, k) == (1 if i == k else 0)

    def test_radial_values_against_oracle(self):
        sc = intersection_numbers(S3, 6)
        # distance-orbit ids coincide with distances for S3
        assert sc.n(1, 1, 0) == oracle_pair_count(1, 1, (), 6) == 3
        assert sc.n(1, 1, 2) == oracle_pair_count(1, 1, (0, 1), 6) == 1
        assert sc.n(1, 1, 1) == 0  # bipartite parity
        for m in range(2, 6):
            rep_up = sc.orbits[m + 1].representative
            rep_dn = sc.orbits[m - 1].representative
            assert sc.n(1, m, m + 1) == oracle_pair_count(1, m, rep_up, 6) == 1
            assert sc.n(1, m, m - 1) == oracle_pair_count(1, m, rep_dn, 6) == 2

    def test_valency_identity(self):
        for F in (C3, S3):
            sc = intersection_numbers(F, 4)
            for i in sc.orbits:
                for j in sc.orbits:
                    if not sc.in_budget(i.id, j.id):
                        continue
                    total = sum(
                        n * sc.valency(k) for k, n in sc.products_of(i.id, j.id)
                    )
                    assert total == sc.valency(i.id) * sc.valency(j.id)

    def test_transpose_identity_sampled(self):
        rng = Random(3)
        sc = intersection_numbers(C3, 4)
        ids = [o.id for o in sc.orbits]
        for _ in range(60):
            i, j, k = (rng.choice(ids) for _ in range(3))
            if not (sc.in_budget(i, j) and sc.in_budget(k, sc.transpose(j))):
                continue
            assert sc.valency(i) == sc.valency(sc.transpose(i))
            lhs = sc.n(i, j, k) * sc.valency(k)
            rhs = sc.n(k, sc.transpose(j), i) * sc.valency(i)
            assert lhs == rhs

    def test_out_of_budget(self):
        sc = intersection_numbers(C3, 3)
        deep = [o for o in sc.orbits if o.distance == 2][0]
        with pytest.raises(OutOfBudget):
            sc.n(deep.id, deep.id, 0)


class TestConvolution:
    def test_unit_law(self):
        sc = intersection_numbers(C3, 4)
        unit = KernelFunction.unit(sc)
        phi = KernelFunction.from_dict(
            {1: Fraction(2), 2: Fraction(-1, 3)}, sc
        )
        assert convolve(phi, unit, sc) == phi
        assert convolve(unit, phi, sc) == phi

    def test_distance_one_square(self):
        sc = intersection_numbers(S3, 6)
        one = KernelFunction.indicator(sc, 1)
        sq = convolve(one, one, sc)
        assert sq.coefficient(0) == 3 and sq.coefficient(2) == 1
        assert sq.coefficient(1) == 0

    def test_associativity(self):
        rng = Random(9)
        for F in (C3, S3):
            sc = intersection_numbers(F, 6)
            small = [o.id for o in sc.orbits if o.distance <= 2]
            for _ in range(10):
                phi = KernelFunction.from_dict(
                    {rng.choice(small): Fraction(rng.randint(1, 5))}, sc
                )
                psi = KernelFunction.from_dict(
                    {rng.choice(small): Fraction(rng.randint(-3, 3) or 1)}, sc
                )
                chi = KernelFunction.from_dict(
                    {rng.choice(small): Fraction(rng.randint(1, 4), 2)}, sc
                )
                assert convolve(convolve(phi, psi, sc), chi, sc) == convolve(
                    phi, convolve(psi, chi, sc), sc
                )

    def test_budget_refusal(self):
        sc = intersection_numbers(C3, 3)
        two = KernelFunction.indicator(sc, [o.id for o in sc.orbits if o.distance == 2][0])
        with pytest.raises(OutOfBudget):
            convolve(two, two, sc)


class TestCommutativity:
    def test_s3_commutative(self):
        verdict = commutativity_report(S3, 4)
        assert verdict.commutative and verdict.radius == 4

    def test_c3_witness(self):
        verdict = commutativity_report(C3, 4)
        assert not verdict.commutative
        i, j, k, nij, nji = verdict.witness
        sc = intersection_numbers(C3, 4)
        assert sc.n(i, j, k) == nij and sc.n(j, i, k) == nji and nij != nji

    def test_trivial_group_noncommutative(self):
        assert not commutativity_report(TRIV, 3).commutative

    def test_radial_kernels_commute_even_for_c3(self):
        sc = intersection_numbers(C3, 6)
        radial = {}
        for d in range(4):
            radial[d] = KernelFunction.from_dict(
                {o.id: Fraction(1) for o in sc.orbits if o.distance == d}, sc
            )
        for a in range(4):
            for b in range(4):
                if a + b <= 6:
                    assert convolve(radial[a], radial[b], sc) == convolve(
                        radial[b], radial[a], sc
                    )

    def test_representative_independence_recount(self):
        # recompute one entry at every member of the target orbit
        sc = intersection_numbers(C3, 4)
        i, j = 1, 2
        k = [o for o in sc.orbits if o.distance == 2][0]
        counts = set()
        for z in sc.table.classes[k.id].members:
            counts.add(triple_loop_count(sc.table, i, j, z))
        assert len(counts) == 1


class TestCommutativityReport:
    """The report reads a noncommutative verdict off radius 3 when its first
    pair is (1, j), and builds the whole tensor otherwise."""

    def test_equals_the_full_scan_on_every_small_group(self):
        cases = [(F, 6) for F in subgroups_of_symmetric(3)]
        cases += [(F, 5) for F in subgroups_of_symmetric(4)]
        cases += [(F, 4) for F in subgroups_of_symmetric(5)]
        # the least radius at which the full scan's first pair is (1, j)
        first_radius = Counter()
        for F, max_radius in cases:
            found = None
            for radius in range(2, max_radius + 1):
                full = commutativity_of(intersection_numbers(F, radius))
                assert commutativity_report(F, radius) == full, (F, radius)
                if found is None and not full.commutative and full.witness[0] == 1:
                    found = radius
            first_radius[found] += 1
            assert (found is None) == F.two_transitive, F
        assert first_radius == {2: 161, 3: 20, None: 11}

    def test_noncommutative_side_builds_radius_three_only(self, monkeypatch):
        built = []

        def recording(F, radius):
            built.append(radius)
            return intersection_numbers(F, radius)

        monkeypatch.setattr(hecke, "intersection_numbers", recording)
        verdict = commutativity_report(C3, 9)
        assert built == [3] and verdict.radius == 9 and not verdict.commutative
        built.clear()
        assert commutativity_report(S3, 9).commutative and built == [3, 9]


class TestGeodesicSplit:
    """The neighbourhood of a class representative, enumerated along the
    geodesic split, against the ball and the plain word transport."""

    @pytest.mark.parametrize(
        "F, radius",
        [(TRIV, 6), (C3, 6), (S3, 6), (LocalGroup(4, [(1, 2, 3, 0), (3, 2, 1, 0)]), 5)],
        ids=["trivial3", "C3", "S3", "D4"],
    )
    def test_split_row_equals_the_transport_row(self, F, radius):
        ball = list(ball_words(F.degree, radius))
        for k in orbit_table(F, radius).classes:
            z = k.representative
            steps = (radius - len(z)) // 2
            ys, moved = _near_geodesic(F.degree, z, steps)
            near = [y for y in ball if len(y) + word_distance(y, z) <= len(z) + 2 * steps]
            assert sorted(ys) == sorted(near), (F, z)
            assert moved == [_transport(y, z) for y in ys], (F, z)


SUBGROUP_CASES = [(F, 5) for F in subgroups_of_symmetric(3)] + [
    (F, 4) for F in subgroups_of_symmetric(4)
]


def triple_loop_verdict(sc, tensor) -> HeckeVerdict:
    """The commutativity scan over every in-budget (i < j, k), in order."""
    ids = range(len(sc.orbits))
    for i in ids:
        for j in ids:
            if j <= i or not sc.in_budget(i, j):
                continue
            for k in ids:
                nij, nji = tensor.get((i, j, k), 0), tensor.get((j, i, k), 0)
                if nij != nji:
                    return HeckeVerdict(sc.radius_budget, False, (i, j, k, nij, nji))
    return HeckeVerdict(sc.radius_budget, True)


class TestGelfandLemma:
    """Every pair orbit its own transpose, a commutative orbit algebra and a
    2-transitive F must agree, on every subgroup of S3 (R = 6) and S4
    (R = 5) and every 2-generated subgroup of S5 (R = 4)."""

    def test_symmetric_commutative_and_two_transitive_agree(self):
        cases = [(F, 6) for F in subgroups_of_symmetric(3)]
        cases += [(F, 5) for F in subgroups_of_symmetric(4)]
        cases += [(F, 4) for F in subgroups_of_symmetric(5)]
        assert len(cases) == 192
        for F, radius in cases:
            sc = intersection_numbers(F, radius)
            symmetric = all(sc.transpose(o.id) == o.id for o in sc.orbits)
            commutative = commutativity_of(sc).commutative
            assert symmetric == commutative == F.two_transitive, (F, radius)


class TestAgainstTripleLoop:
    def test_every_subgroup_enumerated(self):
        assert len(SUBGROUP_CASES) == 6 + 30

    @pytest.mark.parametrize(
        "F, max_radius",
        SUBGROUP_CASES,
        ids=[f"S{F.degree}-sub{n}-order{F.order()}" for n, (F, _) in enumerate(SUBGROUP_CASES)],
    )
    def test_tensor_and_witness(self, F, max_radius):
        for radius in range(max_radius + 1):
            sc = intersection_numbers(F, radius)
            tensor, by_pair = triple_loop_tensor(sc.table)
            assert sc.entries() == sorted((i, j, k, n) for (i, j, k), n in tensor.items())
            for i in sc.orbits:
                for j in sc.orbits:
                    if sc.in_budget(i.id, j.id):
                        assert sc.products_of(i.id, j.id) == by_pair.get((i.id, j.id), [])
            assert commutativity_of(sc) == triple_loop_verdict(sc, tensor)


class TestTensorRelabeling:
    """Conjugating F by a color permutation pi relabels every word by pi, so
    it permutes the pair orbits and the tensor: with sigma(i) the orbit of
    pi(rep_i) under pi F pi^-1, N'[sigma i][sigma j][sigma k] = N[i][j][k]."""

    def test_conjugate_tensor_is_permuted(self):
        cases = [(F, 5, [(0, 1), (1, 2)]) for F in subgroups_of_symmetric(3)]
        cases += [(F, 4, [(0, 1), (1, 2), (2, 3)]) for F in subgroups_of_symmetric(4)]
        for F, radius, swaps in cases:
            sc = intersection_numbers(F, radius)
            for a, b in swaps:
                pi = transposition(F.degree, a, b)
                gens = [compose(compose(pi, g), invert(pi)) for g in F.generators]
                conj = intersection_numbers(LocalGroup(F.degree, gens), radius)
                sigma = [
                    conj.class_of_word(tuple(pi[c] for c in o.representative))
                    for o in sc.orbits
                ]
                assert sorted(sigma) == list(range(len(conj.orbits))), (F, pi)
                sizes = [conj.orbits[s].size for s in sigma]
                assert sizes == [o.size for o in sc.orbits], (F, pi)
                relabeled = sorted(
                    (sigma[i], sigma[j], sigma[k], n) for i, j, k, n in sc.entries()
                )
                assert relabeled == conj.entries(), (F, pi)


def split_class(table: OrbitTable, class_id: int, piece) -> OrbitTable:
    """The table with one class cut in two; ids renumbered in order."""
    classes = []
    for c in table.classes:
        parts = [c.members]
        if c.id == class_id:
            parts = [frozenset(piece), c.members - frozenset(piece)]
        for members in parts:
            classes.append(OrbitClass(len(classes), c.distance, min(members), members))
    return OrbitTable(table.radius, tuple(classes))


class TestRepresentativeCheck:
    def test_split_orbit_is_refused(self, monkeypatch):
        # the sphere-1 orbit of C3 cut into {0} and {1, 2}: words 1 and 2
        # now share a class without being equivalent, so their rows differ
        bad = split_class(orbit_table(C3, 4), 1, [(0,)])
        monkeypatch.setattr(hecke, "orbit_table", lambda F, radius: bad)
        with pytest.raises(RuntimeError, match="depends on the representative"):
            intersection_numbers(C3, 4)

    def test_wrong_split_is_refused(self, monkeypatch):
        # a split that forgets to move z: the representative's row no longer
        # matches the second member's row, recounted by the word transport
        def unmoved(degree, z, steps):
            ys, moved = _near_geodesic(degree, z, steps)
            return ys, [z] * len(moved)

        monkeypatch.setattr(hecke, "_near_geodesic", unmoved)
        with pytest.raises(RuntimeError, match="depends on the representative"):
            intersection_numbers(C3, 4)

    def test_intact_table_passes(self, monkeypatch):
        good = orbit_table(C3, 4)
        monkeypatch.setattr(hecke, "orbit_table", lambda F, radius: good)
        assert intersection_numbers(C3, 4).table is good


A4 = LocalGroup(4, [(1, 2, 0, 3), (0, 2, 3, 1)])
F20 = LocalGroup(5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)])
S5 = LocalGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


class TestRadialAlgebra:
    """For 2-transitive F each sphere is one K-orbit, so orbit m is the
    sphere of radius m and the algebra is the radial one of the
    (q+1)-regular tree (Cartier; Figa-Talamanca--Nebbia, LMS LN 162):
    A_1 A_1 = A_2 + (q+1) A_0 and A_1 A_m = A_{m+1} + q A_{m-1} for m >= 2,
    with valencies v_m = (q+1) q^(m-1)."""

    @pytest.mark.parametrize(
        "F, radius",
        [(S3, 7), (A4, 7), (make_s4(), 7), (F20, 6), (S5, 6)],
        ids=["S3", "A4", "S4", "F20", "S5"],
    )
    def test_closed_form(self, F, radius):
        assert F.two_transitive
        q = F.degree - 1
        sc = intersection_numbers(F, radius)
        assert [(o.distance, o.size) for o in sc.orbits] == [(0, 1)] + [
            (m, (q + 1) * q ** (m - 1)) for m in range(1, radius + 1)
        ]
        one = KernelFunction.indicator(sc, 1)
        for m in range(1, radius):
            lower = q + 1 if m == 1 else q
            assert convolve(one, KernelFunction.indicator(sc, m), sc) == (
                KernelFunction.from_dict({m + 1: Fraction(1), m - 1: Fraction(lower)}, sc)
            )
        for i in range(radius + 1):
            for j in range(radius + 1 - i):
                total = sum(n * sc.valency(k) for k, n in sc.products_of(i, j))
                assert total == sc.valency(i) * sc.valency(j)
