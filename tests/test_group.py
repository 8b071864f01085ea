"""Universal groups: legality, stabilizer orbits, proxies."""

import pytest

from helpers import (
    check_legal,
    dfs_k_orbit,
    k_orbits_on_sphere,
    make_c3,
    make_s3,
    make_s4,
    make_trivial,
    pair_orbit_count_bruteforce,
    subgroups_of_symmetric,
)
from building_forge.group import (
    LocalGroup,
    ParseError,
    _pair_orbit_count,
    enumerate_ends,
    fixed_end_check,
    k_orbit,
    orbit_count_growth,
    orbit_table,
    parse_local_group,
    two_transitivity_on_ends_proxy,
)
from building_forge.perms import compose, invert, transposition
from building_forge.tree import (
    ROOT,
    TablePortrait,
    TreeEnd,
    TreeVertex,
    ball_words,
    constant_portrait,
    identity_portrait,
    parallel_transport,
    sphere_words,
)

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
        one_step = constant_portrait(TreeVertex((1,)), transposition(3, 0, 1), 3)
        assert not check_legal(one_step, C3, 4)
        assert check_legal(one_step, S3, 4)

    def test_single_bad_permutation_detected(self):
        bad = TablePortrait(ROOT, {(2,): transposition(3, 0, 1)}, 3)
        assert not check_legal(bad, C3, 3)

    def test_cocycle_violation_detected(self):
        g = TablePortrait(
            ROOT, {(): transposition(3, 0, 1), (0,): (0, 1, 2)}, 3, strict=False
        )
        assert not check_legal(g, S3, 2)


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

    def test_two_transitive_local_group_gives_single_orbits(self):
        for F in (S3, S4):
            for n in range(5):
                assert len(k_orbits_on_sphere(F, n)) == 1


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
    Publ. IHES 92, 2000); the proxy must agree at every depth."""

    def test_subgroups_of_s3_and_s4(self):
        assert len(S3_SUBGROUPS) + len(S4_SUBGROUPS) == 36
        for F in S3_SUBGROUPS + S4_SUBGROUPS:
            for n in range(2, 6):
                assert two_transitivity_on_ends_proxy(F, n) == F.two_transitive, (F, n)

    def test_two_generated_subgroups_of_s5(self):
        s5_subgroups = subgroups_of_symmetric(5)
        assert len(s5_subgroups) == 156
        for F in s5_subgroups:
            for n in range(2, 6):
                assert two_transitivity_on_ends_proxy(F, n) == F.two_transitive, (F, n)


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
        candidates = enumerate_ends(3, max_prefix=1, max_period=2)
        assert fixed_end_check(S3, candidates) == set()
        assert fixed_end_check(C3, candidates) == set()
        assert fixed_end_check(TRIV, candidates) == set()

    def test_single_hyperbolic_fixes_its_axis_ends(self):
        candidates = enumerate_ends(3, max_prefix=1, max_period=2)
        g = parallel_transport((0, 1), 3)
        fixed = fixed_end_check(S3, candidates, generators=[g])
        assert fixed == {TreeEnd((), (0, 1)), TreeEnd((), (1, 0))}


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
            assert (table.degree, table.generator_hash, table.radius) == (
                F.degree,
                F.hash_key(),
                radius,
            ), (F, radius)

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
