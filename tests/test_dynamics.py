"""Retraction, Busemann values, stabilizer kernels, dynamics at infinity."""

from itertools import permutations
from random import Random

import pytest

from helpers import (
    axis_overlap,
    ball_words,
    busemann_beta_by_retraction,
    enumerate_ends,
    identity_portrait,
    random_hyperbolic,
    random_k_recipe,
    retraction,
)
from building_forge.tree import (
    EXTEND_SPARSE,
    ROOT,
    BudgetExhausted,
    NotInStabilizer,
    Portrait,
    RepellingFixedEnd,
    TablePortrait,
    TreeApartment,
    TreeEnd,
    busemann_beta,
    classify_isometry,
    constant_portrait,
    in_Gc0,
    iterate_on_end,
    parallel_transport,
    pigeonhole_find_hyperbolic,
    segment_through_apartment,
    standard_apartment,
    transport_between,
)
from building_forge.words import Word, reduce_word, word_distance

A = standard_apartment()
C_PLUS = A.end_plus


def ray_fixing_portrait(rng: Random, degree: int = 3, depth: int = 6) -> TablePortrait:
    """A random automorphism fixing the ray toward the plus end pointwise.

    Local permutations along the ray fix both ray colors; off-ray subtrees
    get random twists that respect the cocycle.  Such elements fix the plus
    end and lie in the point-fixing part of its stabilizer.
    """
    all_perms = list(permutations(range(degree)))
    table = {}
    for k in range(depth):
        v = C_PLUS.word_prefix(k)
        pin_in = v[-1] if v else None
        pin_out = C_PLUS.letter(k)
        cands = [
            p
            for p in all_perms
            if p[pin_out] == pin_out and (pin_in is None or p[pin_in] == pin_in)
        ]
        table[v] = rng.choice(cands)
    return TablePortrait(ROOT, table, degree)


class TestRetraction:
    def test_identity_on_the_line(self):
        for t in range(-8, 9):
            assert retraction(A, C_PLUS, A.vertex_at(t)) == t
            assert retraction(A, A.end_minus, A.vertex_at(t)) == t

    def test_off_line_example(self):
        # attaches at coordinate 0 at distance 2, pushed away from the end
        x = (2, 0)
        assert retraction(A, C_PLUS, x) == -2
        assert retraction(A, A.end_minus, x) == 2

    def test_needs_end_of_the_apartment(self):
        with pytest.raises(ValueError):
            retraction(A, TreeEnd((), (0, 2)), ROOT)

    def test_one_lipschitz_sampled(self):
        rng = Random(5)
        words = [w for w in ball_words(3, 6)]
        for _ in range(200):
            x = rng.choice(words)
            y = rng.choice(words)
            rx, ry = retraction(A, C_PLUS, x), retraction(A, C_PLUS, y)
            assert abs(rx - ry) <= word_distance(x, y)

    def test_isometry_on_apartments_through_the_end(self):
        # an apartment sharing the plus end, branching at coordinate 2
        b = TreeApartment(TreeEnd((0, 1, 2), (0, 2)), C_PLUS)
        pairs = [(s, t) for s in range(-4, 5) for t in range(-4, 5)]
        for s, t in pairs:
            x, y = b.vertex_at(s), b.vertex_at(t)
            assert abs(retraction(A, C_PLUS, x) - retraction(A, C_PLUS, y)) == word_distance(x, y)
        # surjective onto a coordinate window
        images = {retraction(A, C_PLUS, b.vertex_at(t)) for t in range(-6, 7)}
        assert len(images) == 13


class TestBusemann:
    def test_translation_values(self):
        g = parallel_transport((0, 1), 3)
        assert busemann_beta(C_PLUS, g) == 2
        assert busemann_beta(A.end_minus, g) == -2

    def test_kernel_elements(self):
        rng = Random(31)
        for _ in range(5):
            e = ray_fixing_portrait(rng)
            assert busemann_beta(C_PLUS, e) == 0

    def test_not_in_stabilizer(self):
        g = parallel_transport((0, 2), 3)  # axis (02)-line, moves the (01)-end
        with pytest.raises(NotInStabilizer):
            busemann_beta(C_PLUS, g)
        with pytest.raises(NotInStabilizer):
            busemann_beta(C_PLUS, parallel_transport((2,), 3))  # an inversion

    def test_additive_on_sampled_stabilizer_pairs(self):
        rng = Random(37)
        t = parallel_transport((0, 1), 3)
        pool = [identity_portrait(3), t, t.inverse(), t * t]
        pool += [ray_fixing_portrait(rng) for _ in range(4)]
        for _ in range(50):
            g = rng.choice(pool)
            h = rng.choice(pool)
            assert busemann_beta(C_PLUS, g * h) == busemann_beta(C_PLUS, g) + busemann_beta(
                C_PLUS, h
            )

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_agrees_with_the_retraction_oracle(self, degree):
        """Random end-stabilizing and base-fixing elements, hyperbolics and
        their products, over every candidate end each one fixes: the value
        read off the classification is the retraction difference, and both
        refuse the ends it moves."""
        rng = Random(53 + degree)
        t = parallel_transport((0, 1), degree)
        pool = [identity_portrait(degree), t, t.inverse()]
        pool += [ray_fixing_portrait(rng, degree) for _ in range(3)]
        pool += [random_k_recipe(rng, degree, depth=2)(TablePortrait) for _ in range(2)]
        pool += [random_hyperbolic(rng, degree)[0] for _ in range(3)]
        pool += [rng.choice(pool) * rng.choice(pool) for _ in range(12)]
        ends = set(enumerate_ends(degree, max_prefix=1, max_period=2))
        for g in pool:
            cls = classify_isometry(g)
            if cls.is_hyperbolic:
                ends |= {cls.axis.end_minus, cls.axis.end_plus}
        seen = set()
        for g in pool:
            for c in ends:
                # the least 2-periodic tail that leaves c at once
                first = min(x for x in range(degree) if x != c.letter(0))
                tail = (first, min(x for x in range(degree) if x != first))
                a = TreeApartment(TreeEnd((), tail), c)
                try:
                    expected = busemann_beta_by_retraction(a, c, g)
                except NotInStabilizer:
                    with pytest.raises(NotInStabilizer):
                        busemann_beta(c, g)
                    continue
                assert busemann_beta(c, g) == expected
                seen.add((expected > 0) - (expected < 0))
        assert seen == {-1, 0, 1}


class TestPointFixingPart:
    def test_identity_and_translation(self):
        assert in_Gc0(identity_portrait(3), C_PLUS)
        assert not in_Gc0(parallel_transport((0, 1), 3), C_PLUS)

    def test_kernel_iff_beta_zero_with_certificate(self):
        rng = Random(41)
        t = parallel_transport((0, 1), 3)
        for _ in range(10):
            e = ray_fixing_portrait(rng)
            assert in_Gc0(e, C_PLUS)
            assert not in_Gc0(t * e, C_PLUS)

    def test_closed_under_products(self):
        rng = Random(43)
        for _ in range(6):
            g = ray_fixing_portrait(rng)
            h = ray_fixing_portrait(rng)
            assert in_Gc0(g * h, C_PLUS)

    def test_not_in_stabilizer(self):
        with pytest.raises(NotInStabilizer):
            in_Gc0(parallel_transport((0, 2), 3), C_PLUS)


def classified(g):
    return classify_isometry(g)


class TestIterateOnEnd:
    def test_attracting_end_fixed(self):
        g = parallel_transport((0, 1), 3)
        for n in (1, 3):
            ends = list(iterate_on_end(g, classified(g), TreeEnd((), (0, 1)), n))
            assert ends[n] == TreeEnd((), (0, 1))

    def test_repelling_end_rejected(self):
        g = parallel_transport((0, 1), 3)
        with pytest.raises(RepellingFixedEnd):
            iterate_on_end(g, classified(g), TreeEnd((), (1, 0)), 1)

    def test_sequence_matches_repeated_images(self):
        rng = Random(61)
        for _ in range(6):
            g, _ = random_hyperbolic(rng, 3)
            cls = classified(g)
            minus = cls.axis.end_minus
            xi = TreeEnd((), (0, 2)) if minus != TreeEnd((), (0, 2)) else TreeEnd((2,), (0, 1))
            got = list(iterate_on_end(g, cls, xi, 8))
            current = xi
            for m in range(9):
                assert got[m] == current
                current = g.image_of_end(current)

    def test_agreement_depth_growth(self):
        rng = Random(47)
        for _ in range(6):
            g, ell = random_hyperbolic(rng, 3)
            cls = classify_isometry(g)
            eta_plus, eta_minus = cls.axis.end_plus, cls.axis.end_minus
            xi = TreeEnd((), (0, 2))
            if xi in (eta_plus, eta_minus):
                xi = TreeEnd((2, 1), (2, 0))
            if xi in (eta_plus, eta_minus):
                continue
            depths = []
            current = xi
            for n in range(1, 9):
                current = g.image_of_end(current)
                depths.append(current.agreement_depth(eta_plus))
            assert all(a <= b for a, b in zip(depths, depths[1:]))
            deltas = [b - a for a, b in zip(depths, depths[1:])]
            assert deltas[-1] == deltas[-2] == ell

    def test_fixed_end_set_is_the_axis_boundary(self):
        g = parallel_transport((0, 1), 3)
        fixed = [
            xi
            for xi in enumerate_ends(3, max_prefix=6, max_period=3)
            if g.fixes_end(xi)
        ]
        assert sorted(fixed, key=repr) == sorted(
            [TreeEnd((), (0, 1)), TreeEnd((), (1, 0))], key=repr
        )


class TestSegmentThroughApartment:
    def test_on_axis_points(self):
        g = parallel_transport((0, 1), 3)
        x0 = ROOT
        x = (0, 1)  # on the axis at coordinate +2
        for n in range(1, 5):
            assert segment_through_apartment(g, classified(g), x0, x, n)[n] == 2 * n + 2

    def test_adjacent_off_axis(self):
        g = parallel_transport((0, 1), 3)
        overlaps = segment_through_apartment(g, classified(g), (2,), (2, 0), 0)
        assert overlaps[0] == 0

    def test_monotone_growth(self):
        rng = Random(53)
        g = parallel_transport((0, 1), 3)
        cls = classified(g)
        for _ in range(5):
            words = [w for w in ball_words(3, 4)]
            x0 = rng.choice(words)
            x = rng.choice(words)
            vals = [segment_through_apartment(g, cls, x0, x, n)[n] for n in range(13)]
            tail = vals[4:]
            assert all(a <= b for a, b in zip(tail, tail[1:]))

    def test_sequence_matches_the_per_power_overlap(self):
        rng = Random(59)
        behind = off_axis = 0
        for degree in (3, 4, 5):
            words = list(ball_words(degree, 3))
            for kind, g in sample_hyperbolics(rng, degree):
                cls = classified(g)
                points = [ROOT, rng.choice(words), off_axis_behind_the_base(cls, degree)]
                for x0, x in zip(points, points[1:] + points[:1]):
                    got = segment_through_apartment(g, cls, x0, x, 8)
                    assert got == [axis_overlap(g, x0, x, m) for m in range(9)], (kind, x0, x)
                    coord, dist = cls.axis.project(x)
                    behind += coord < cls.axis.project(ROOT)[0]
                    off_axis += dist > 0 and cls.axis.project(x0)[1] > 0
        assert behind and off_axis

    def test_computes_no_image(self, monkeypatch):
        g = parallel_transport((0, 1, 2), 3)
        cls = classified(g)
        calls = 0
        image = Portrait.image

        def counting(self, v):
            nonlocal calls
            calls += 1
            return image(self, v)

        monkeypatch.setattr(Portrait, "image", counting)
        got = segment_through_apartment(g, cls, (2,), (1, 0), 50)
        assert calls == 0
        assert got[50] == axis_overlap(g, (2,), (1, 0), 50)


def sample_hyperbolics(rng: Random, degree: int) -> list:
    """(kind, portrait) pairs: two random hyperbolics, then a table portrait
    with a nonempty base image and a constant portrait, each hyperbolic with
    an axis that misses the base vertex."""
    out = [("random", random_hyperbolic(rng, degree)[0]) for _ in range(2)]
    words = [w for w in ball_words(degree, 4) if w]
    makers = {
        "table": lambda: TablePortrait(
            rng.choice(words),
            random_k_recipe(rng, degree, 2, EXTEND_SPARSE)(TablePortrait)._table,
            degree,
        ),
        "constant": lambda: constant_portrait(
            rng.choice(words), tuple(rng.sample(range(degree), degree)), degree
        ),
    }
    for kind, make in makers.items():
        g = make()
        while not (classified(g).is_hyperbolic and classified(g).axis.project(ROOT)[1]):
            g = make()
        out.append((kind, g))
    return out


def off_axis_behind_the_base(cls, degree: int) -> Word:
    """A vertex one step off the axis, projecting two steps behind the base
    vertex's projection (toward the repelling end)."""
    t = cls.axis.project(ROOT)[0] - 2
    v = cls.axis.vertex_at(t)
    on_axis = {cls.axis.vertex_at(t - 1), cls.axis.vertex_at(t + 1)}
    return next(u for u in (reduce_word(v, (c,)) for c in range(degree)) if u not in on_axis)


class TestPigeonhole:
    def line_with_unit_translation(self):
        # the (0,1,2)-periodic line admits a step-one translation: constant
        # local 3-cycle with base image (0,)
        line = TreeApartment(TreeEnd((), (2, 1, 0)), TreeEnd((), (0, 1, 2)))
        step = constant_portrait((0,), (1, 2, 0), 3)
        return line, step

    def test_constant_labels_give_step_size(self):
        line, step = self.line_with_unit_translation()

        def transporter(u, v):
            gap = line.coordinate_of(v) - line.coordinate_of(u)
            return step.power(gap)

        g, _ = pigeonhole_find_hyperbolic(line, lambda v: 0, transporter, budget=4)
        assert classify_isometry(g).length == 1

    def test_periodic_labels_give_multiples(self):
        line, step = self.line_with_unit_translation()

        def transporter(u, v):
            gap = line.coordinate_of(v) - line.coordinate_of(u)
            return step.power(gap)

        labels = lambda v: line.coordinate_of(v) % 3
        g, _ = pigeonhole_find_hyperbolic(line, labels, transporter, budget=8)
        assert classify_isometry(g).length % 3 == 0

    def test_budget_exhausted_on_injective_labels(self):
        line, step = self.line_with_unit_translation()
        with pytest.raises(BudgetExhausted):
            pigeonhole_find_hyperbolic(
                line, lambda v: v, lambda u, v: None, budget=5
            )

    def test_works_on_rays(self):
        # the ray from the base vertex to (0 1)^inf, as the half t >= 0 of a
        # line through the base vertex
        ray = TreeApartment(TreeEnd((), (2, 1)), TreeEnd((), (0, 1)))

        def transporter(u, v):
            return transport_between(u, v, 3)

        labels = lambda v: len(v) % 2
        g, _ = pigeonhole_find_hyperbolic(ray, labels, transporter, budget=6)
        assert classify_isometry(g).length == 2

    def test_certificate_is_the_classification(self):
        line, step = self.line_with_unit_translation()

        def transporter(u, v):
            gap = line.coordinate_of(v) - line.coordinate_of(u)
            return step.power(gap)

        for labels, budget in ((lambda v: 0, 4), (lambda v: line.coordinate_of(v) % 3, 8)):
            g, cert = pigeonhole_find_hyperbolic(line, labels, transporter, budget)
            cls = classify_isometry(g)
            assert (cert.axis, cert.length) == (cls.axis, cls.length)

    def test_returns_exactly_the_classification(self):
        # v_0 = x0 has a label of its own, so the repeats start at s = 1,
        # off the projection of x0 onto the axis
        line, step = self.line_with_unit_translation()
        labels = lambda v: line.coordinate_of(v) > 0
        for transporter in [
            lambda u, v: step.power(line.coordinate_of(v) - line.coordinate_of(u)),
            lambda u, v: transport_between(u, v, 3),
        ]:
            g, cert = pigeonhole_find_hyperbolic(line, labels, transporter, budget=6)
            assert cert == classify_isometry(g)

    def test_skips_an_answer_that_misses_the_later_vertex(self):
        # step^-1 is hyperbolic of length 1 but sends v_0 to v_-1
        line, step = self.line_with_unit_translation()
        asked = []

        def transporter(u, v):
            s, t = line.coordinate_of(u), line.coordinate_of(v)
            asked.append((s, t))
            return step.inverse() if (s, t) == (0, 1) else step.power(t - s)

        g, cls = pigeonhole_find_hyperbolic(line, lambda v: 0, transporter, budget=4)
        assert asked == [(0, 1), (0, 2)]
        assert cls.length == 2 and g.image(line.vertex_at(0)) == line.vertex_at(2)

    def test_skips_elliptic_and_inversion_answers(self):
        # along the standard apartment v_0 = x0, v_1 = (0), v_2 = (0 1): the
        # transports of odd gap are inversions, and (0, 2) is answered by an
        # elliptic fixing v_1, so the first hyperbolic answer is at (1, 3)
        line = standard_apartment()
        swap = constant_portrait(ROOT, (1, 0, 2), 3)
        flip = parallel_transport((0,), 3)
        elliptic = flip * swap * flip
        assert classify_isometry(elliptic).fixed_vertex == line.vertex_at(1)
        asked = []

        def transporter(u, v):
            asked.append((line.coordinate_of(u), line.coordinate_of(v)))
            return elliptic if len(asked) == 2 else transport_between(u, v, 3)

        g, cls = pigeonhole_find_hyperbolic(line, lambda v: 0, transporter, budget=5)
        assert asked == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
        kinds = [classify_isometry(transport_between(line.vertex_at(s), line.vertex_at(t), 3)).kind
                 for s, t in [(0, 1), (1, 2), (0, 3)]]
        assert kinds == ["inversion"] * 3
        assert cls.length == 2 and g.image(line.vertex_at(1)) == line.vertex_at(3)
