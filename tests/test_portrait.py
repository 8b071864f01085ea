"""Portrait evaluation: navigation, composition, inverses, end images."""

import tracemalloc
from random import Random

import pytest

from helpers import (
    memo_oracle,
    prefix_memo_image_of_end,
    random_hyperbolic,
    random_k_portrait,
)
from building_forge.group import enumerate_ends
from building_forge.perms import transposition
from building_forge.tree import (
    EXTEND_CONSTANT,
    EXTEND_SPARSE,
    ROOT,
    TablePortrait,
    TreeEnd,
    TreeVertex,
    ball_words,
    classify_isometry,
    constant_portrait,
    default_search_radius,
    identity_portrait,
    iterate_on_end,
    parallel_transport,
    segment_through_apartment,
    transport_between,
)


class TestNavigation:
    def test_identity(self):
        g = identity_portrait(3)
        for w in ball_words(3, 3):
            assert g.image(TreeVertex(w)).word == w

    def test_parallel_transport_images(self):
        g = parallel_transport((0, 1), 3)
        assert g.image(ROOT) == TreeVertex((0, 1))
        assert g.image(TreeVertex((1,))) == TreeVertex((0,))
        assert g.image(TreeVertex((0,))) == TreeVertex((0, 1, 0))
        assert g.image(TreeVertex((2,))) == TreeVertex((0, 1, 2))

    def test_images_preserve_adjacency(self):
        rng = Random(7)
        for _ in range(5):
            g = random_k_portrait(rng, 3)
            for w in ball_words(3, 4):
                v = TreeVertex(w)
                for c in range(3):
                    assert g.image(v).distance(g.image(v.neighbor(c))) == 1

    def test_transport_between(self):
        u, v = TreeVertex((2, 0, 1)), TreeVertex((1, 2))
        g = transport_between(u, v, 3)
        assert g.image(u) == v

    def test_radius_monotone_memoization(self):
        g1 = parallel_transport((0, 1, 2), 3)
        g2 = parallel_transport((0, 1, 2), 3)
        shallow = {w: g1.image(TreeVertex(w)) for w in ball_words(3, 2)}
        deep = {w: g1.image(TreeVertex(w)) for w in ball_words(3, 4)}
        fresh = {w: g2.image(TreeVertex(w)) for w in ball_words(3, 4)}
        assert deep == fresh
        assert all(deep[w] == shallow[w] for w in shallow)


class TestCocycle:
    def test_violating_table_rejected(self):
        swap01 = transposition(3, 0, 1)
        with pytest.raises(ValueError):
            TablePortrait(ROOT, {(): swap01, (0,): (0, 1, 2)}, 3)

    def test_violating_table_allowed_when_lenient(self):
        swap01 = transposition(3, 0, 1)
        g = TablePortrait(ROOT, {(): swap01, (0,): (0, 1, 2)}, 3, strict=False)
        assert g.sigma(TreeVertex((0,))) == (0, 1, 2)

    def test_backtracking_table_key_rejected(self):
        with pytest.raises(ValueError, match="backtracking"):
            TablePortrait(ROOT, {(0, 0): (0, 2, 1)}, 3)

    @pytest.mark.parametrize("extension", ["dense", "", None, ["sparse"]])
    def test_unknown_extension_rule_rejected(self, extension):
        with pytest.raises(ValueError, match='extension must be "sparse" or "constant", not '):
            TablePortrait(ROOT, {}, 3, extension)


class TestAlgebra:
    def test_composition_and_inverse(self):
        rng = Random(11)
        for _ in range(5):
            g = random_k_portrait(rng, 3)
            h = parallel_transport((0, 2), 3)
            gh = g * h
            for w in ball_words(3, 3):
                v = TreeVertex(w)
                assert gh.image(v) == g.image(h.image(v))
            gi = g.inverse()
            for w in ball_words(3, 3):
                v = TreeVertex(w)
                assert gi.image(g.image(v)) == v
                assert g.image(gi.image(v)) == v

    def test_associativity(self):
        rng = Random(13)
        f = random_k_portrait(rng, 3)
        g = parallel_transport((1, 2), 3)
        h = random_k_portrait(rng, 3)
        left = (f * g) * h
        right = f * (g * h)
        for w in ball_words(3, 4):
            v = TreeVertex(w)
            assert left.image(v) == right.image(v)

    def test_power(self):
        g = parallel_transport((0, 1), 3)
        assert g.power(3).image(ROOT).word == (0, 1) * 3


def oracle_end_image(g, end, depth=60):
    """Independent check data: the image of a deep ray vertex.

    Past the initial dip the image vertex's word is a prefix of the image
    end's infinite word.
    """
    return g.image(end.vertex_at(depth))


class TestEndImages:
    def test_parallel_transport_end_image(self):
        g = parallel_transport((0, 1), 3)
        assert g.image_of_end(TreeEnd((), (0, 2))) == TreeEnd((0, 1), (0, 2))
        assert g.image_of_end(TreeEnd((1, 0), (2, 1))) == TreeEnd((), (2, 1))

    def test_fixed_ends_of_translation(self):
        g = parallel_transport((0, 1), 3)
        assert g.fixes_end(TreeEnd((), (0, 1)))
        assert g.fixes_end(TreeEnd((), (1, 0)))
        assert not g.fixes_end(TreeEnd((), (0, 2)))

    def test_against_deep_vertex_oracle(self):
        rng = Random(29)
        ends = [
            TreeEnd((), (0, 2)),
            TreeEnd((2,), (0, 1)),
            TreeEnd((1, 2, 0), (2, 1)),
            TreeEnd((), (0, 1, 2)),
        ]
        portraits = [
            parallel_transport((0, 1), 3),
            constant_portrait(TreeVertex((1,)), transposition(3, 0, 1), 3),
            random_k_portrait(rng, 3),
            random_hyperbolic(rng, 3)[0],
        ]
        for g in portraits:
            for end in ends:
                img = g.image_of_end(end)
                deep = oracle_end_image(g, end)
                w = deep.word
                assert len(w) >= 30
                assert w == img.word_prefix(len(w))

    def test_rotation_shifts_all_letters(self):
        rho = (1, 2, 0)
        g = constant_portrait(ROOT, rho, 3)
        img = g.image_of_end(TreeEnd((), (0, 1)))
        assert img == TreeEnd((), (1, 2))


def walk_portraits(rng):
    """Hyperbolic elements, sparse and constant depth-3 tables, and their
    compositions, inverses and powers."""
    out = [random_hyperbolic(rng, 3)[0] for _ in range(4)]
    for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
        k = random_k_portrait(rng, 3, 3, extension)
        t = parallel_transport((0, 1, 2), 3)
        out += [k, k * t, t * k, k.inverse(), (k * t).inverse(), (k * t).power(2)]
    out.append(random_hyperbolic(rng, 3)[0].power(3))
    return out


class TestIncrementalWalk:
    def test_images_match_the_prefix_memo_walk(self):
        rng = Random(41)
        ends = enumerate_ends(3, 3, 3)
        for g in walk_portraits(rng):
            for end in ends:
                assert g.image_of_end(end) == prefix_memo_image_of_end(g, end)
                expected = prefix_memo_image_of_end(g, end, abort_if_not=end) == end
                assert g.fixes_end(end) == expected

    def test_step_matches_the_vertex_evaluation(self):
        rng = Random(43)
        for g in walk_portraits(rng):
            for _ in range(6):
                word = [rng.randrange(3)]
                while len(word) < 12:
                    c = rng.randrange(3)
                    if c != word[-1]:
                        word.append(c)
                ray = tuple(word)
                pair = (g.sigma(ROOT), g.walk_state(ROOT))
                for k in range(len(ray)):
                    pair = g.step(ray, k, pair)
                    v = TreeVertex(ray[: k + 1])
                    assert pair == (g.sigma(v), g.walk_state(v))

    def test_vertex_validations_do_not_grow_with_the_word(self, monkeypatch):
        def validations(k):
            """(vertices validated, letters validated) for a walk along a
            transport by a word of length 2k."""
            a = parallel_transport((0, 1) * k, 3)
            calls = letters = 0
            validate = TreeVertex.__init__

            def counting(self, word=()):
                nonlocal calls, letters
                validate(self, word)
                calls += 1
                letters += len(self.word)

            with monkeypatch.context() as m:
                m.setattr(TreeVertex, "__init__", counting)
                classify_isometry(a, default_search_radius(a))
                iterate_on_end(a, TreeEnd((), (0, 2)), 3)
            return calls, letters

        assert validations(100) == validations(200)


class TestForwardPasses:
    """Vertex evaluation keeps no memo: each call is one pass over the word."""

    def test_values_match_the_memoized_evaluation(self):
        rng = Random(47)
        family = [random_hyperbolic(rng, 3)[0] for _ in range(6)]
        for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
            for _ in range(2):
                k = random_k_portrait(rng, 3, 3, extension)
                t = parallel_transport((0, 1, 2), 3)
                family += [k, k * t, t * k, k.inverse(), (k * t).inverse(), k * t * k.inverse()]
        family += [g.inverse() for g in family[:6]]
        for g in family:
            oracle = memo_oracle(g)
            assert g.base_image == oracle.base_image
            for w in ball_words(3, 5):
                v = TreeVertex(w)
                assert g.sigma(v) == oracle.sigma(v), (g, w)
                assert g.image(v) == oracle.image(v), (g, w)
                assert g.walk_state(v) == oracle.walk_state(v), (g, w)

    def test_peak_memory_grows_linearly_with_the_word(self):
        def peak(k):
            """Peak traced bytes over the dynamics of a transport by (0 1)^k."""
            tracemalloc.start()
            try:
                a = parallel_transport((0, 1) * k, 3)
                classify_isometry(a, default_search_radius(a))
                iterate_on_end(a, TreeEnd((), (0, 2)), 3)
                segment_through_apartment(a, ROOT, ROOT, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(500) <= 2.5 * peak(250)
