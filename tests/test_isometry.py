"""Isometry classification with brute-force oracles."""

from random import Random

import pytest

from helpers import (
    NotTranslatedSegment,
    brute_min_displacement,
    hyperbolic_from_segment,
    identity_portrait,
    is_strongly_regular,
    random_hyperbolic,
    random_k_recipe,
    transport_recipe,
)
from building_forge.perms import transposition
from building_forge.tree import (
    EXTEND_CONSTANT,
    EXTEND_SPARSE,
    ROOT,
    Portrait,
    TablePortrait,
    classify_isometry,
    constant_portrait,
    parallel_transport,
    standard_apartment,
)
from building_forge.words import sphere_words, word_distance


class TestClassify:
    def test_identity_elliptic(self):
        cls = classify_isometry(identity_portrait(3))
        assert cls.kind == "elliptic" and cls.length == 0 and cls.fixed_vertex == ROOT

    def test_one_step_translation_and_square(self):
        # the legal portrait translating the standard apartment by one step:
        # base image (1,), constant local swap of the two line colors
        g = constant_portrait((1,), transposition(3, 0, 1), 3)
        cls = classify_isometry(g)
        assert cls.kind == "hyperbolic" and cls.length == 1
        # one step is odd, hence not type-preserving; its square is
        sq = classify_isometry(g * g)
        assert sq.kind == "hyperbolic" and sq.length == 2

    def test_inversion(self):
        g = parallel_transport((0,), 3)
        cls = classify_isometry(g)
        assert cls.kind == "inversion"
        assert set(cls.fixed_edge) == {(), (0,)}
        # every displacement is odd
        assert all(word_distance(g.image(v), v) % 2 == 1 for v in [(), (1,), (2, 0)])

    def test_against_brute_force_oracle(self):
        rng = Random(17)
        for _ in range(8):
            g, ell = random_hyperbolic(rng, 3)
            cls = classify_isometry(g)
            assert cls.kind == "hyperbolic"
            assert cls.length == ell
            oracle_min, oracle_v = brute_min_displacement(g, 6)
            assert oracle_min == cls.length
            # the axis realizes the minimum
            assert word_distance(g.image(cls.axis_vertex), cls.axis_vertex) == cls.length

    def test_translation_length_limit(self):
        # d(x0, g^n x0) - n*length is eventually constant
        rng = Random(19)
        for _ in range(4):
            g, ell = random_hyperbolic(rng, 3)
            gaps = []
            power = g
            for n in range(1, 9):
                gaps.append(word_distance(ROOT, power.image(ROOT)) - n * ell)
                power = power * g
            assert gaps[-1] == gaps[-2] == gaps[-3]

    def test_strongly_regular_is_hyperbolic(self):
        assert not is_strongly_regular(identity_portrait(3))
        assert not is_strongly_regular(parallel_transport((0,), 3))
        assert is_strongly_regular(parallel_transport((0, 1), 3))


def random_word(rng: Random, degree: int, n: int, avoid: int = -1) -> tuple[int, ...]:
    """A random non-backtracking word of length n not starting with ``avoid``."""
    w = [avoid]
    while len(w) <= n:
        c = rng.randrange(degree)
        if c != w[-1]:
            w.append(c)
    return tuple(w[1:])


def sweep_portraits(rng: Random, degree: int) -> list[Portrait]:
    """Elliptic, inversion and hyperbolic portraits of one degree, plain and
    conjugated."""
    out = []
    for _ in range(5):
        ext = rng.choice([EXTEND_SPARSE, EXTEND_CONSTANT])
        k = random_k_recipe(rng, degree, 2, ext)
        t = transport_recipe(random_word(rng, degree, rng.randint(1, 3)), degree)
        out += [k, t * k * t.inverse()]
        # u c u^-1 inverts the edge from u to u c
        u = random_word(rng, degree, rng.randint(0, 3))
        c = rng.choice([x for x in range(degree) if not u or x != u[-1]])
        inv = transport_recipe(u + (c,) + u[::-1], degree)
        out += [inv, k * inv * k.inverse()]
        # u v u^-1 translates by |v| along an axis |u| away from the base
        u = random_word(rng, degree, rng.randint(0, 4))
        v = random_word(rng, degree, rng.randint(2, 3), u[-1] if u else -1)
        while v[-1] in (v[0], u[-1] if u else -1):
            v = random_word(rng, degree, len(v), u[-1] if u else -1)
        out.append(transport_recipe(u + v + u[::-1], degree))
    out = [r(TablePortrait) for r in out]
    out.append(random_hyperbolic(rng, degree)[0])
    # one step along the (0 1) line: hyperbolic of length 1
    out.append(constant_portrait((1,), transposition(degree, 0, 1), degree))
    return out


class TestExactClassification:
    def test_against_brute_force_minimum(self):
        """Kind, length and vertex agree with a scan of the ball: minimum 0
        is elliptic, minimum 1 with g^2(v) = v an inversion, any other
        minimum m hyperbolic of length m; the returned vertex is the
        minimizer of least depth.  That minimizer lies on [x0, g x0] within
        d(x0, g x0) / 2 of x0, so the scanned ball holds it."""
        rng = Random(31)
        kinds = set()
        for degree in (3, 4, 5):
            for g in sweep_portraits(rng, degree):
                cls = classify_isometry(g)
                m, v = brute_min_displacement(g, len(g.image(ROOT)) // 2)
                if m == 0:
                    kind, length, vertex = "elliptic", 0, cls.fixed_vertex
                elif m == 1 and g.image(g.image(v)) == v:
                    kind, length, vertex = "inversion", 0, cls.fixed_edge and cls.fixed_edge[0]
                else:
                    kind, length, vertex = "hyperbolic", m, cls.axis_vertex
                assert (cls.kind, cls.length, vertex) == (kind, length, v)
                kinds.add(cls.kind)
        assert kinds == {"elliptic", "inversion", "hyperbolic"}

    def test_transports_follow_the_free_product_rule(self):
        """The transport by a reduced word is conjugate to the transport by
        the word stripped of its equal outer letters: the identity for the
        empty word, an inversion when one letter is left (a palindrome),
        and otherwise hyperbolic of the stripped length."""
        checked = 0
        for degree in (3, 4):
            for n in range(7):
                for w in sphere_words(degree, n):
                    core = w
                    while len(core) > 1 and core[0] == core[-1]:
                        core = core[1:-1]
                    kind = {0: "elliptic", 1: "inversion"}.get(len(core), "hyperbolic")
                    length = len(core) if kind == "hyperbolic" else 0
                    cls = classify_isometry(parallel_transport(w, degree))
                    assert (cls.kind, cls.length) == (kind, length), w
                    checked += 1
        assert checked == 1647

    def test_image_calls_do_not_grow_with_the_axis_distance(self, monkeypatch):
        def image_calls(n):
            """Portrait.image calls to classify u (2 0) u^-1, with |u| = n."""
            u = (0, 1) * (n // 2)
            g = parallel_transport(u + (2, 0) + u[::-1], 3)
            calls = 0
            image = Portrait.image

            def counting(self, v):
                nonlocal calls
                calls += 1
                return image(self, v)

            with monkeypatch.context() as m:
                m.setattr(Portrait, "image", counting)
                cls = classify_isometry(g)
            assert cls.length == 2 and cls.axis_vertex == u
            return calls

        assert image_calls(10) == image_calls(100) == image_calls(1000)

    def test_non_automorphism_refused(self):
        # a machine emitting color 2 on every edge, with base image (0 1):
        # g(g(x0)) = (0 1) claims an elliptic, but g((0,)) is (0 1 2)
        g = Portrait(3, (0, 1), 0, lambda s, c: (2, s))
        with pytest.raises(RuntimeError, match="not an automorphism"):
            classify_isometry(g)

    def test_axis_vertex_image_must_extend_it(self):
        # two states, each permuting the colors, so the inverse machine
        # exists: g(x0) = (0 2) and g(g(x0)) = (0 2 1 0) claim a translation
        # of length 2 with x0 on the axis, but g^-1 fixes x0
        table = {0: ((1, 2, 0), (0, 1, 0)), 1: ((1, 0, 2), (0, 1, 0))}
        g = Portrait(3, (0, 2), 0, lambda s, c: (table[s][0][c], table[s][1][c]))
        assert g.inverse().image(ROOT) == ROOT
        with pytest.raises(RuntimeError, match="does not extend it: not an automorphism"):
            classify_isometry(g)

    def test_coinciding_axis_ends_refused(self):
        # two states, each permuting the colors: g(x0) = (0 2 1 0) and
        # g(g(x0)) claim a translation of length 4 with x0 on the axis, but
        # g^-1(x0) = (0 2) heads for the same end (0 2 1)^inf as g(x0)
        table = {0: ((2, 1, 0), (1, 1, 1)), 1: ((2, 0, 1), (0, 0, 1))}
        g = Portrait(3, (0, 2, 1, 0), 0, lambda s, c: (table[s][0][c], table[s][1][c]))
        with pytest.raises(RuntimeError, match="axis ends coincide: not an automorphism"):
            classify_isometry(g)


class TestFromSegment:
    def test_translation_certificate(self):
        a = standard_apartment()
        g = parallel_transport((0, 1), 3)
        seg = [a.vertex_at(t) for t in range(5)]
        imgs = [g.image(v) for v in seg]
        cls = hyperbolic_from_segment(g, seg, imgs)
        assert cls.kind == "hyperbolic" and cls.length == 2
        for v in seg + imgs:
            assert v in cls.axis

    def test_elliptic_rejected(self):
        a = standard_apartment()
        rot = constant_portrait(ROOT, (1, 2, 0), 3)
        seg = [a.vertex_at(t) for t in range(5)]
        with pytest.raises(NotTranslatedSegment):
            hyperbolic_from_segment(rot, seg, [rot.image(v) for v in seg])

    def test_wrong_image_segment_rejected(self):
        a = standard_apartment()
        g = parallel_transport((0, 1), 3)
        seg = [a.vertex_at(t) for t in range(5)]
        with pytest.raises(NotTranslatedSegment):
            hyperbolic_from_segment(g, seg, list(seg))

    def test_matches_classification_on_random_hyperbolics(self):
        rng = Random(23)
        hits = 0
        while hits < 20:
            g, ell = random_hyperbolic(rng, 3)
            cls = classify_isometry(g)
            axis = cls.axis
            t0 = axis.coordinate_of(cls.axis_vertex)
            seg = [axis.vertex_at(t0 + i) for i in range(cls.length + 3)]
            imgs = [g.image(v) for v in seg]
            cert = hyperbolic_from_segment(g, seg, imgs)
            assert cert.length == cls.length
            assert cert.axis.end_plus == axis.end_plus
            hits += 1
