"""Portrait evaluation: navigation, composition, inverses, end images."""

import sys
import tracemalloc
from random import Random

import pytest

from helpers import (
    ball_words,
    enumerate_ends,
    identity_portrait,
    prefix_memo_image_of_end,
    random_hyperbolic,
    random_hyperbolic_recipe,
    random_k_portrait,
    random_k_recipe,
    transport_recipe,
)
from building_forge.group import LocalGroup
from building_forge.perms import transposition
from building_forge.tree import (
    EXTEND_CONSTANT,
    EXTEND_SPARSE,
    ROOT,
    Portrait,
    TablePortrait,
    TreeEnd,
    _end,
    classify_isometry,
    constant_portrait,
    iterate_on_end,
    parallel_transport,
    segment_through_apartment,
    transport_between,
)
from building_forge.words import reduce_word, sphere_words, word_distance


class TestNavigation:
    def test_identity(self):
        g = identity_portrait(3)
        for w in ball_words(3, 3):
            assert g.image(w) == w

    def test_parallel_transport_images(self):
        g = parallel_transport((0, 1), 3)
        assert g.image(ROOT) == (0, 1)
        assert g.image((1,)) == (0,)
        assert g.image((0,)) == (0, 1, 0)
        assert g.image((2,)) == (0, 1, 2)

    def test_images_preserve_adjacency(self):
        rng = Random(7)
        for _ in range(5):
            g = random_k_portrait(rng, 3)
            for w in ball_words(3, 4):
                for c in range(3):
                    assert word_distance(g.image(w), g.image(reduce_word(w, (c,)))) == 1

    def test_transport_between(self):
        u, v = (2, 0, 1), (1, 2)
        g = transport_between(u, v, 3)
        assert g.image(u) == v

    def test_radius_monotone_memoization(self):
        g1 = parallel_transport((0, 1, 2), 3)
        g2 = parallel_transport((0, 1, 2), 3)
        shallow = {w: g1.image(w) for w in ball_words(3, 2)}
        deep = {w: g1.image(w) for w in ball_words(3, 4)}
        fresh = {w: g2.image(w) for w in ball_words(3, 4)}
        assert deep == fresh
        assert all(deep[w] == shallow[w] for w in shallow)


class TestCocycle:
    def test_violating_table_rejected(self):
        swap01 = transposition(3, 0, 1)
        with pytest.raises(ValueError):
            TablePortrait(ROOT, {(): swap01, (0,): (0, 1, 2)}, 3)

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
                assert gh.image(w) == g.image(h.image(w))
            gi = g.inverse()
            for w in ball_words(3, 3):
                assert gi.image(g.image(w)) == w
                assert g.image(gi.image(w)) == w

    def test_associativity(self):
        rng = Random(13)
        f = random_k_portrait(rng, 3)
        g = parallel_transport((1, 2), 3)
        h = random_k_portrait(rng, 3)
        left = (f * g) * h
        right = f * (g * h)
        for w in ball_words(3, 4):
            assert left.image(w) == right.image(w)

    def test_power(self):
        g = parallel_transport((0, 1), 3)
        assert g.power(3).image(ROOT) == (0, 1) * 3

    @pytest.mark.parametrize(
        "t",
        [
            parallel_transport((0,), 3),
            parallel_transport((0, 1), 3),
            parallel_transport((0, 1, 0), 3),
            parallel_transport((1, 2, 0, 1), 3),
            constant_portrait((2, 0, 1), (0, 1, 2), 3),
        ],
        ids=["edge flip", "(0 1)", "elliptic (0 1 0)", "(1 2 0 1)", "constant identity"],
    )
    def test_power_of_a_transport_is_one_transport(self, t):
        C3 = LocalGroup(3, [(1, 2, 0)])
        ends = enumerate_ends(3, 2, 3)
        composed = t
        for n in range(1, 7):
            if n > 1:
                composed = composed.compose(t)
            p = t.power(n)
            assert isinstance(p, TablePortrait) and p._table == {}
            for w in ball_words(3, 4):
                assert p.image(w) == composed.image(w), (n, w)
                assert p.sigma(w) == composed.sigma(w), (n, w)
            for end in ends:
                assert p.image_of_end(end) == composed.image_of_end(end), (n, end)
            assert C3.first_outside(p) is None and C3.first_outside(composed) is None

    def test_power_of_a_transport_builds_in_linear_calls(self):
        # one pass over the base word: composing 400 machines took 0.7 s
        t = parallel_transport((0, 1, 2), 3)
        assert python_calls(lambda: t.power(400)) <= 2.5 * python_calls(lambda: t.power(200))
        assert t.power(400).base_image == (0, 1, 2) * 400

    def test_power_of_a_stabilizer_element_composes(self):
        k = random_k_portrait(Random(29), 3, 3, EXTEND_SPARSE)
        cube = k.power(3)
        for w in ball_words(3, 4):
            assert cube.image(w) == k.image(k.image(k.image(w)))


def oracle_end_image(g, end, depth=60):
    """Independent check data: the image of a deep ray vertex.

    Past the initial dip the image vertex's word is a prefix of the image
    end's infinite word.
    """
    return g.image(end.word_prefix(depth))


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
            constant_portrait((1,), transposition(3, 0, 1), 3),
            random_k_portrait(rng, 3),
            random_hyperbolic(rng, 3)[0],
        ]
        for g in portraits:
            for end in ends:
                img = g.image_of_end(end)
                w = oracle_end_image(g, end)
                assert len(w) >= 30
                assert w == img.word_prefix(len(w))

    def test_rotation_shifts_all_letters(self):
        rho = (1, 2, 0)
        g = constant_portrait(ROOT, rho, 3)
        img = g.image_of_end(TreeEnd((), (0, 1)))
        assert img == TreeEnd((), (1, 2))

    def test_backtracking_image_refused_at_once(self):
        """A machine emitting color 0 on every edge maps the ray (0 1)^inf
        to a path that extends, then turns back: no automorphism does that,
        and the walk refuses it on that step."""
        steps = 0

        def step(state, c):
            nonlocal steps
            steps += 1
            return 0, state

        with pytest.raises(RuntimeError, match="not an automorphism"):
            Portrait(3, ROOT, 0, step).image_of_end(TreeEnd((), (0, 1)))
        assert steps <= 2


def walk_recipes(rng):
    """Hyperbolic elements, sparse and constant depth-3 tables, and their
    compositions, inverses and powers."""
    out = [random_hyperbolic_recipe(rng, 3)[0] for _ in range(4)]
    for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
        k = random_k_recipe(rng, 3, 3, extension)
        t = transport_recipe((0, 1, 2))
        out += [k, k * t, t * k, k.inverse(), (k * t).inverse(), (k * t).power(2)]
    out.append(random_hyperbolic_recipe(rng, 3)[0].power(3))
    return out


def python_calls(fn) -> int:
    """The number of Python function calls made while running ``fn()``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestIncrementalWalk:
    def test_images_match_the_prefix_memo_walk(self):
        rng = Random(41)
        ends = enumerate_ends(3, 3, 3)
        for recipe in walk_recipes(rng):
            g, oracle = recipe.both()
            for end in ends:
                assert g.image_of_end(end) == prefix_memo_image_of_end(oracle, end)
                expected = prefix_memo_image_of_end(oracle, end, abort_if_not=end) == end
                assert g.fixes_end(end) == expected

    def test_step_matches_the_vertex_evaluation(self):
        """Stepping along a ray yields, at every vertex, the local
        permutation and image that the oracle evaluates there."""
        rng = Random(43)
        for recipe in walk_recipes(rng):
            g, oracle = recipe.both()
            for _ in range(6):
                word = [rng.randrange(3)]
                while len(word) < 12:
                    c = rng.randrange(3)
                    if c != word[-1]:
                        word.append(c)
                state, letters = g.start, []
                for k in range(len(word) + 1):
                    v = tuple(word[:k])
                    sigma = tuple(g.step(state, c)[0] for c in range(3))
                    assert sigma == oracle.sigma(v)
                    assert reduce_word(g.base_image, letters) == oracle.image(v)
                    if k < len(word):
                        e, state = g.step(state, word[k])
                        letters.append(e)

    @pytest.mark.parametrize("name", ["k t", "(k t)^-1", "t^3"])
    def test_end_walks_through_products_and_inverses_are_linear(self, name):
        """Doubling the prefix of the end at most doubles the Python calls
        of one end image, plus slack: each step is O(1) calls."""
        k = random_k_portrait(Random(53), 3, 3, EXTEND_SPARSE)
        t = parallel_transport((0, 1, 2), 3)
        g = {"k t": k * t, "(k t)^-1": (k * t).inverse(), "t^3": t.power(3)}[name]

        def calls(n):
            end = TreeEnd((0, 1) * (n // 2), (2, 0))
            return python_calls(lambda: g.image_of_end(end))

        assert calls(200) <= 2.5 * calls(100)

    def test_end_validations_do_not_grow_with_the_walk(self, monkeypatch):
        def validations(n):
            """Ends validated while iterating a transport n times on an end."""
            a = parallel_transport((0, 1), 3)
            cls = classify_isometry(a)
            xi = TreeEnd((), (0, 2))
            calls = 0
            validate = TreeEnd.__init__

            def counting(self, prefix, period):
                nonlocal calls
                validate(self, prefix, period)
                calls += 1

            with monkeypatch.context() as m:
                m.setattr(TreeEnd, "__init__", counting)
                assert len(list(iterate_on_end(a, cls, xi, n))) == n + 1
            return calls

        assert validations(10) == validations(40)


class TestUncheckedEnd:
    """``_end`` normalizes a valid descriptor as the constructor does."""

    @staticmethod
    def assert_same(e, expected):
        assert e == expected and hash(e) == hash(expected)
        assert (e.prefix, e.period) == (expected.prefix, expected.period)

    def test_every_short_descriptor(self):
        """Non-primitive periods and prefixes that fold into the tail too."""
        seen = 0
        for per in (w for n in range(2, 5) for w in sphere_words(3, n)):
            for pre in (w for n in range(5) for w in sphere_words(3, n)):
                try:
                    expected = TreeEnd(pre, per)
                except ValueError:
                    continue
                self.assert_same(_end(pre, per), expected)
                seen += 1
        assert seen > 900

    def test_enumerated_ends_and_walk_results(self):
        rng = Random(59)
        ends = enumerate_ends(3, 3, 3)
        for end in ends:
            self.assert_same(_end(end.prefix, end.period), end)
        for recipe in walk_recipes(rng):
            g = recipe(TablePortrait)
            for end in ends:
                img = g.image_of_end(end)
                self.assert_same(img, TreeEnd(img.prefix, img.period))


class TestForwardPasses:
    """Vertex evaluation keeps no memo: each call is one pass over the word."""

    def test_values_match_the_memoized_evaluation(self):
        rng = Random(47)
        family = [random_hyperbolic_recipe(rng, 3)[0] for _ in range(6)]
        for extension in (EXTEND_SPARSE, EXTEND_CONSTANT):
            for _ in range(2):
                k = random_k_recipe(rng, 3, 3, extension)
                t = transport_recipe((0, 1, 2))
                family += [k, k * t, t * k, k.inverse(), (k * t).inverse(), k * t * k.inverse()]
        family += [recipe.inverse() for recipe in family[:6]]
        for recipe in family:
            g, oracle = recipe.both()
            assert g.base_image == oracle.base_image
            for w in ball_words(3, 5):
                assert g.sigma(w) == oracle.sigma(w), (g, w)
                assert g.image(w) == oracle.image(w), (g, w)

    def test_peak_memory_grows_linearly_with_the_word(self):
        def peak(k):
            """Peak traced bytes over the dynamics of a transport by (0 1)^k."""
            tracemalloc.start()
            try:
                a = parallel_transport((0, 1) * k, 3)
                cls = classify_isometry(a)
                list(iterate_on_end(a, cls, TreeEnd((), (0, 2)), 3))
                segment_through_apartment(a, cls, ROOT, ROOT, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(500) <= 2.5 * peak(250)
