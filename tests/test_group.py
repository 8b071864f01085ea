"""Universal groups: legality, stabilizer orbits, proxies."""

import gc
import time
from contextlib import nullcontext

import pytest

from random import Random

from helpers import (
    ball_words,
    check_legal,
    dfs_k_orbit,
    enumerate_ends,
    first_outside_by_ball,
    identity_portrait,
    invert,
    k_orbits_on_sphere,
    make_c3,
    make_s3,
    make_s4,
    make_trivial,
    pair_orbit_count_bruteforce,
    random_hyperbolic,
    random_k_portrait,
    subgroups_of_symmetric,
)
from building_forge import group
from building_forge.group import (
    LocalGroup,
    ParseError,
    _pair_orbit_count,
    fixed_end_check,
    k_orbit,
    orbit_count_growth,
    orbit_table,
    parse_local_group,
    two_transitivity_on_ends_proxy,
)
from building_forge.perms import compose, transposition
from building_forge.tree import (
    EXTEND_CONSTANT,
    EXTEND_SPARSE,
    ROOT,
    BudgetExhausted,
    NotHyperbolic,
    Portrait,
    TablePortrait,
    TreeEnd,
    classify_isometry,
    constant_portrait,
    parallel_transport,
)
from building_forge.words import sphere_words

C3 = make_c3()
S3 = make_s3()
S4 = make_s4()
TRIV = make_trivial()
S3_SUBGROUPS = subgroups_of_symmetric(3)
S4_SUBGROUPS = subgroups_of_symmetric(4)


class TestLocalGroup:
    def test_closure_and_flags(self):
        assert C3.order() == 3 and C3.transitive and not C3.two_transitive
        assert S3.order() == 6 and S3.two_transitive
        assert S4.order() == 24 and S4.two_transitive
        assert TRIV.order() == 1 and not TRIV.transitive

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            LocalGroup(2, [(1, 0)])

    def test_parse_document(self):
        F = parse_local_group('{"degree": 3, "generators": ["1 2 0"]}')
        assert F.order() == 3

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError) as info:
            parse_local_group('{"degree": 3, "generators": [}')
        assert info.value.line >= 1 and info.value.column >= 1
        with pytest.raises(ParseError):
            parse_local_group('{"degree": 3}')
        with pytest.raises(ParseError):
            parse_local_group('{"degree": 3, "generators": ["9 9 9"]}')

    def test_hash_identifies_the_closure(self):
        other = LocalGroup(3, [(1, 2, 0), (2, 0, 1)])  # same group, more gens
        assert other.hash_key() == C3.hash_key()
        assert S3.hash_key() != C3.hash_key()


class TestCheckLegal:
    def test_identity_always_legal(self):
        for F in (C3, S3, TRIV):
            assert check_legal(identity_portrait(3), F, 3)

    def test_translation_in_c3(self):
        # even translation along the standard apartment is color-preserving
        assert check_legal(parallel_transport((0, 1), 3), C3, 4)
        # the one-step translation needs a transposition, not a 3-cycle power
        one_step = constant_portrait((1,), transposition(3, 0, 1), 3)
        assert not check_legal(one_step, C3, 4)
        assert check_legal(one_step, S3, 4)

    def test_single_bad_permutation_detected(self):
        bad = TablePortrait(ROOT, {(2,): transposition(3, 0, 1)}, 3)
        assert not check_legal(bad, C3, 3)

    def test_cocycle_violation_detected(self):
        # (0 1) at the base vertex and the identity below it: the two ends of
        # the edge of color 0 send it to different colors
        swap01 = transposition(3, 0, 1)

        def step(state, c):
            return (swap01 if state == "base" else (0, 1, 2))[c], "below"

        g = Portrait(3, ROOT, "base", step)
        assert not check_legal(g, S3, 2)


def random_table_in(F: LocalGroup, rng: Random, depth: int) -> dict:
    """A legal exception table of depth ``depth`` with entries drawn from F."""
    table = {(): rng.choice(F.elements)}

    def fill(w, parent):
        if len(w) >= depth:
            return
        for c in range(F.degree):
            if w and c == w[-1]:
                continue
            if rng.random() < 0.6:
                sigma = rng.choice([p for p in F.elements if p[c] == parent[c]])
                table[w + (c,)] = sigma
                fill(w + (c,), sigma)

    fill((), table[()])
    return table


class TestFirstOutside:
    """``LocalGroup.first_outside`` against a scan of the ball, three levels
    past the tables' depth."""

    def test_against_the_ball_scan(self):
        rng = Random(67)
        found = 0
        for F in S3_SUBGROUPS + S4_SUBGROUPS:
            for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
                family = [random_k_portrait(rng, F.degree, 2, extension)]
                for _ in range(2):
                    table = random_table_in(F, rng, 2)
                    family.append(TablePortrait(ROOT, table, F.degree, extension))
                for g in family:
                    got = F.first_outside(g)
                    assert got == first_outside_by_ball(F, g, 5), (F.elements, g._table)
                    found += got is not None
        assert 0 < found < 36 * 2 * 3

    def test_products_and_inverses(self):
        rng = Random(71)
        for F in (C3, S3, TRIV):
            for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
                k = TablePortrait(ROOT, random_table_in(F, rng, 2), 3, extension)
                t = parallel_transport((0, 1, 2), 3)
                for g in (k * t, t * k, k.inverse(), (k * t).inverse()):
                    assert F.first_outside(g) == first_outside_by_ball(F, g, 5)

    def test_transports_lie_in_every_group(self):
        for F in (C3, S3, TRIV):
            assert F.first_outside(parallel_transport((0, 1, 2, 0), 3)) is None

    def test_names_the_vertex(self):
        g = TablePortrait((0, 1), {(0,): (0, 2, 1)}, 3, EXTEND_SPARSE)
        assert C3.first_outside(g) == (0,)
        assert S3.first_outside(g) is None


def oracle_sphere2_orbits(F: LocalGroup):
    """Exhaustive enumeration of constrained local data to depth 1."""
    degree = F.degree
    images = {}
    for w in sphere_words(degree, 2):
        images[w] = set()
        for s0 in F.elements:
            for s1 in F.elements:
                if s1[w[0]] != s0[w[0]]:
                    continue
                images[w].add((s0[w[0]], s1[w[1]]))
    classes = []
    seen = set()
    for w in sphere_words(degree, 2):
        if w in seen:
            continue
        orbit = set(images[w])
        # saturate: orbit relation is symmetric-transitive over image sets
        changed = True
        while changed:
            changed = False
            for u in sphere_words(degree, 2):
                if u in orbit and not images[u] <= orbit:
                    orbit |= images[u]
                    changed = True
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


class TestOrbits:
    def test_sphere0(self):
        assert [(r, len(m)) for r, m in k_orbits_on_sphere(C3, 0)] == [((), 1)]

    def test_c3_sphere2_against_oracle(self):
        got = sorted(m for _, m in k_orbits_on_sphere(C3, 2))
        expect = sorted(frozenset(m) for m in oracle_sphere2_orbits(C3))
        assert got == expect
        assert [len(m) for m in got] == [3, 3]

    def test_s3_sphere2_against_oracle(self):
        got = sorted(m for _, m in k_orbits_on_sphere(S3, 2))
        expect = sorted(frozenset(m) for m in oracle_sphere2_orbits(S3))
        assert got == expect
        assert [len(m) for m in got] == [6]

    def test_valency_identity(self):
        for F in (C3, S3, TRIV, S4):
            q = F.degree - 1
            for n in range(1, 5):
                sizes = [len(m) for _, m in k_orbits_on_sphere(F, n)]
                assert sum(sizes) == (q + 1) * q ** (n - 1)

    def test_partition_refinement_under_truncation(self):
        for F in (C3, S3, TRIV):
            shallow = {
                w: i
                for i, (_, m) in enumerate(k_orbits_on_sphere(F, 3))
                for w in m
            }
            for _, members in k_orbits_on_sphere(F, 4):
                truncated = {w[:-1] for w in members}
                assert len({shallow[w] for w in truncated}) == 1

    def test_growth_verdicts(self):
        assert orbit_count_growth(S3, 5).verdict == "stabilized"
        assert orbit_count_growth(S3, 5).counts == (1,) * 6
        g = orbit_count_growth(C3, 5)
        assert g.verdict == "growing"
        assert g.counts == (1, 1, 2, 4, 8, 16)
        t = orbit_count_growth(TRIV, 3)
        assert t.verdict == "growing"
        assert t.counts == (1, 3, 6, 12)

    def test_growth_verdict_is_two_transitivity(self):
        # from radius 2 the last sphere has one class iff F is 2-transitive
        for degree in (3, 4, 5):
            for F in subgroups_of_symmetric(degree):
                for radius in (2, 3, 4, 7):
                    g = orbit_count_growth(F, radius)
                    assert g.stabilized == F.two_transitive, (F.generators, radius)
                    assert g.verdict in ("stabilized", "growing")
        for radius in (0, 1):
            with pytest.raises(ValueError):
                orbit_count_growth(C3, radius)

    def test_two_transitive_local_group_gives_single_orbits(self):
        for F in (S3, S4):
            for n in range(5):
                assert len(k_orbits_on_sphere(F, n)) == 1


class TestCountsBeyondTheTable:
    """Closed forms at depths no orbit table reaches."""

    def test_trivial_group_spheres(self):
        # K is trivial, so every word is its own orbit
        for degree in (3, 4, 5):
            q = degree - 1
            counts = orbit_count_growth(make_trivial(degree), 30).counts
            assert counts == (1,) + tuple((q + 1) * q ** (n - 1) for n in range(1, 31))

    def test_c5_spheres(self):
        # C5 is regular: one class on sphere 1, and every point stabilizer is
        # trivial, so each class has four child classes
        counts = orbit_count_growth(LocalGroup(5, [(1, 2, 3, 4, 0)]), 40).counts
        assert counts == (1,) + tuple(4 ** (n - 1) for n in range(1, 41))

    def test_trivial_group_pairs(self):
        for degree in (3, 4, 5):
            q = degree - 1
            assert _pair_orbit_count(make_trivial(degree), 20) == (q + 1) * q**39


class TestTwoTransitivityProxy:
    def test_examples(self):
        assert two_transitivity_on_ends_proxy(S3, 3)
        assert not two_transitivity_on_ends_proxy(C3, 2)
        assert two_transitivity_on_ends_proxy(S4, 3)

    def test_monotone_non_increasing(self):
        for F in (C3, S3, TRIV):
            vals = [two_transitivity_on_ends_proxy(F, n) for n in (2, 3, 4)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_depth_below_two_rejected(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                two_transitivity_on_ends_proxy(S3, n)


class TestPairOrbitCount:
    def test_against_pair_enumeration(self):
        cases = [(F, n) for F in S3_SUBGROUPS for n in (2, 3, 4)]
        cases += [(F, n) for F in S4_SUBGROUPS for n in (2, 3)]
        assert len(cases) == 78
        for F, n in cases:
            assert _pair_orbit_count(F, n) == pair_orbit_count_bruteforce(F, n), (F, n)

    def test_trivial_group_closed_form(self):
        # K is trivial, so every ordered pair is its own orbit
        for degree in (3, 4, 5):
            q = degree - 1
            for n in (2, 3, 4):
                count = _pair_orbit_count(make_trivial(degree), n)
                assert count == (q + 1) * q ** (2 * n - 1)


class TestBurgerMozes:
    """U(F) is 2-transitive on ends iff F is 2-transitive (Burger-Mozes,
    Publ. IHES 92, 2000); both boundary verdicts must agree at every depth,
    past ``COUNT_DEPTH`` too."""

    @staticmethod
    def check_every_depth(F):
        for n in range(2, 71):
            assert two_transitivity_on_ends_proxy(F, n) == F.two_transitive, (F, n)
            assert orbit_count_growth(F, n).stabilized == F.two_transitive, (F, n)

    def test_subgroups_of_s3_and_s4(self):
        assert len(S3_SUBGROUPS) + len(S4_SUBGROUPS) == 36
        for F in S3_SUBGROUPS + S4_SUBGROUPS:
            self.check_every_depth(F)

    def test_two_generated_subgroups_of_s5(self):
        s5_subgroups = subgroups_of_symmetric(5)
        assert len(s5_subgroups) == 156
        for F in s5_subgroups:
            self.check_every_depth(F)


class TestRelabeling:
    def test_conjugate_groups_agree(self):
        def invariants(F):
            return (
                two_transitivity_on_ends_proxy(F, 3),
                _pair_orbit_count(F, 3),
                orbit_count_growth(F, 4).counts,
            )

        for F in S4_SUBGROUPS:
            expect = invariants(F)
            for pi in S4.elements:
                gens = [compose(compose(pi, g), invert(pi)) for g in F.generators]
                assert invariants(LocalGroup(4, gens)) == expect, (F, pi)


class TestFixedEnds:
    def test_transitive_families_fix_nothing(self):
        assert fixed_end_check(S3) == set()
        assert fixed_end_check(C3) == set()
        assert fixed_end_check(TRIV) == set()

    def test_single_hyperbolic_fixes_its_axis_ends(self):
        g = parallel_transport((0, 1), 3)
        fixed = fixed_end_check(S3, generators=[g])
        assert fixed == {TreeEnd((), (0, 1)), TreeEnd((), (1, 0))}

    def test_default_families_of_small_groups_fix_nothing(self):
        for F in S3_SUBGROUPS + S4_SUBGROUPS:
            assert fixed_end_check(F) == set(), F

    def test_random_hyperbolic_fixes_exactly_its_axis_ends(self):
        rng = Random(67)
        candidates = enumerate_ends(3, max_prefix=6, max_period=3)
        for _ in range(6):
            g, _ = random_hyperbolic(rng, 3)
            axis = classify_isometry(g).axis
            fixed = fixed_end_check(S3, generators=[g])
            assert fixed == {axis.end_minus, axis.end_plus}
            assert {xi for xi in candidates if g.fixes_end(xi)} <= fixed

    def test_first_member_must_be_hyperbolic(self):
        rotation = constant_portrait(ROOT, (1, 2, 0), 3)
        with pytest.raises(NotHyperbolic):
            fixed_end_check(C3, generators=[rotation, parallel_transport((0, 1), 3)])


class TestBallCap:
    def test_refused_above_the_cap(self, monkeypatch):
        # the ball of radius 6 in the 3-regular tree has 190 words
        monkeypatch.setattr(group, "_BALL_WORD_CAP", 190)
        assert orbit_table(C3, 6).sphere_counts() == [1, 1, 2, 4, 8, 16, 32]
        monkeypatch.setattr(group, "_BALL_WORD_CAP", 189)
        with pytest.raises(BudgetExhausted):
            orbit_table(C3, 6)

    def test_refused_without_building_the_count(self):
        # the exact count is printed up to radius 21, the cap's bit length;
        # past it the ball is over the cap whatever its size
        assert group._BALL_WORD_CAP.bit_length() == 21
        with pytest.raises(BudgetExhausted, match="has 6291454 words"):
            orbit_table(C3, 21)
        for radius in (22, 10**11):
            start = time.perf_counter()
            with pytest.raises(BudgetExhausted, match="has more than 2000000 words"):
                orbit_table(C3, radius)
            assert time.perf_counter() - start < 1.0


class TestOrbitTableCollector:
    """``orbit_table`` pauses the cyclic collector while it grows the table
    and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_the_collector_is_left_as_it_was(self, monkeypatch, enabled, fails):
        def failing(F, word, parent=None):
            if len(word) == 3:
                raise MemoryError("no room for the orbit")
            return k_orbit(F, word, parent)

        if fails:
            monkeypatch.setattr(group, "k_orbit", failing)
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(MemoryError) if fails else nullcontext():
                orbit_table(C3, 5)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_the_build_makes_no_reference_cycles(self):
        """With the collector off nothing frees a cycle, so a collection
        after the tables are dropped counts every object left in one."""
        groups = [
            TRIV,
            C3,
            LocalGroup(5, [(1, 2, 3, 4, 0)]),
            LocalGroup(4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
            S4,
        ]
        gc.collect()
        gc.disable()
        try:
            for F in groups:
                for radius in (0, 3, 5):
                    orbit_table(F, radius)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOrbitTableSerialization:
    def test_sphere_counts(self):
        assert orbit_table(S3, 4).sphere_counts() == [1, 1, 1, 1, 1]

    def test_classes_list_cells(self):
        table = orbit_table(C3, 2)
        cells = [(cls.representative, cls.size) for cls in table.classes]
        assert cells == [((), 1), ((0,), 3), ((0, 1), 3), ((0, 2), 3)]


class TestOrbitTableAgainstSphereScan:
    """``orbit_table`` grows each sphere from the classes of the one before;
    the oracle scans every sphere word and sweeps out its orbit."""

    @pytest.fixture(scope="class")
    def balls(self):
        return (
            [(F, 6) for F in S3_SUBGROUPS]
            + [(F, 5) for F in S4_SUBGROUPS]
            + [(F, 3) for F in subgroups_of_symmetric(5)]
        )

    def test_family_sizes(self, balls):
        assert len(balls) == 6 + 30 + 156

    def test_tables_match_the_scan(self, balls):
        for F, radius in balls:
            table = orbit_table(F, radius)
            expect = [
                (n, rep, members)
                for n in range(radius + 1)
                for rep, members in k_orbits_on_sphere(F, n)
            ]
            got = [(c.distance, c.representative, c.members) for c in table.classes]
            assert got == expect, (F, radius)
            assert [c.id for c in table.classes] == list(range(len(expect)))
            assert table.radius == radius, (F, radius)
            assert orbit_count_growth(F, radius).counts == tuple(table.sphere_counts())

    def test_extension_step_matches_the_full_orbit(self, balls):
        for F, radius in balls:
            orbit_of = {(): k_orbit(F, ())}
            for w in ball_words(F.degree, radius):
                if not w:
                    continue
                full = k_orbit(F, w)
                assert k_orbit(F, w, orbit_of[w[:-1]]) == full, (F, w)
                assert full == dfs_k_orbit(F, w), (F, w)
                orbit_of[w] = full


class CountingElements(tuple):
    """A group's element table that counts the passes made over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestTransitionTable:
    """``posts(c, c2)[e]`` are the images of c2 under the elements mapping c
    to e; one pass over the elements fills each pair's table."""

    def test_matches_the_element_scan(self):
        for F in S3_SUBGROUPS + S4_SUBGROUPS + subgroups_of_symmetric(5):
            colors = range(F.degree)
            for c in colors:
                for c2 in colors:
                    table = F.posts(c, c2)
                    assert len(table) == F.degree, (F, c, c2)
                    for e in colors:
                        expect = tuple(sorted({p[c2] for p in F.elements if p[c] == e}))
                        assert table[e] == expect, (F, c, e, c2)
                        assert F.post(c, e, c2) == expect, (F, c, e, c2)

    @pytest.mark.parametrize(
        "degree, gens",
        [(5, [(1, 2, 3, 4, 0)]), (4, [(1, 2, 3, 0), (3, 2, 1, 0)]), (4, [(1, 0, 2, 3)])],
    )
    def test_each_pair_scans_the_elements_once(self, degree, gens):
        F = LocalGroup(degree, gens)
        F.elements = CountingElements(F.elements)
        for radius in range(5):
            orbit_table(F, radius)
        colors = range(degree)
        for c in colors:
            F.images_of(c)
            for e in colors:
                for c2 in colors:
                    F.post(c, e, c2)
        # one pass per color for images_of, one per ordered pair for posts
        assert F.elements.scans <= degree + degree * degree

    def test_child_colors_once_per_last_color(self, monkeypatch):
        calls = []
        child_colors = group._child_colors

        def counted(F, last):
            calls.append(last)
            return child_colors(F, last)

        monkeypatch.setattr(group, "_child_colors", counted)
        for F in (make_trivial(3), C3, LocalGroup(5, [(1, 2, 3, 4, 0)]), S4):
            calls.clear()
            orbit_table(F, 5)
            assert len(calls) <= F.degree + 1, F

    @pytest.mark.parametrize("radius", [3, 6, 12])
    def test_growth_splits_each_color_once(self, monkeypatch, radius):
        """``orbit_count_growth`` reads every sphere off one pass of the arm
        recurrence: one split per color and one at the base vertex."""
        calls = []
        child_colors = group._child_colors

        def counted(F, last):
            calls.append(last)
            return child_colors(F, last)

        monkeypatch.setattr(group, "_child_colors", counted)
        for F in (make_trivial(3), C3, LocalGroup(5, [(1, 2, 3, 4, 0)]), S4):
            calls.clear()
            orbit_count_growth(F, radius)
            assert len(calls) <= F.degree + 1, F
