"""Vertex words, ends, apartments, cone neighborhoods."""

import copy
import pickle

import pytest

from building_forge.tree import (
    ROOT,
    ConeNeighborhood,
    TreeApartment,
    TreeEnd,
    TreeVertex,
    ball_words,
    geodesic,
    reduce_word,
    sphere_words,
    standard_apartment,
)


class TestWords:
    def test_backtracking_rejected(self):
        with pytest.raises(ValueError):
            TreeVertex((0, 0))
        with pytest.raises(ValueError):
            TreeVertex((1, 2, 2, 0))

    def test_distance(self):
        assert TreeVertex((0, 1, 2)).distance(TreeVertex((0, 1))) == 1
        assert TreeVertex((0, 1, 2)).distance(TreeVertex((0, 2))) == 3
        assert ROOT.distance(TreeVertex((2, 1, 0))) == 3

    def test_reduce_word(self):
        assert reduce_word((0, 1), (1, 0)) == ()
        assert reduce_word((0, 1), (2,)) == (0, 1, 2)
        assert reduce_word((), (0, 1)) == (0, 1)

    def test_neighbors(self):
        v = TreeVertex((0, 1))
        assert v.neighbor(1) == TreeVertex((0,))
        assert v.neighbor(2) == TreeVertex((0, 1, 2))
        assert hash(v.neighbor(2)) == hash(TreeVertex((0, 1, 2)))
        with pytest.raises(ValueError):
            v.neighbor(-1)

    def test_geodesic(self):
        path = geodesic(TreeVertex((0, 1, 2)), TreeVertex((0, 2)))
        assert [p.word for p in path] == [(0, 1, 2), (0, 1), (0,), (0, 2)]
        for a, b in zip(path, path[1:]):
            assert a.distance(b) == 1

    def test_sphere_sizes(self):
        for q in (2, 3):
            for n in range(5):
                expect = 1 if n == 0 else (q + 1) * q ** (n - 1)
                assert len(list(sphere_words(q + 1, n))) == expect
        assert len(list(ball_words(3, 3))) == 1 + 3 + 6 + 12


class TestEnds:
    def test_normalization_rotates_prefix_into_period(self):
        assert TreeEnd((0,), (1, 0)) == TreeEnd((), (0, 1))
        assert TreeEnd((0, 1), (0, 1)) == TreeEnd((), (0, 1))

    def test_primitive_period(self):
        assert TreeEnd((), (0, 1, 0, 1)) == TreeEnd((), (0, 1))

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            TreeEnd((), (1,))
        with pytest.raises(ValueError):
            TreeEnd((), ())
        with pytest.raises(ValueError):
            TreeEnd((0,), (0, 1))  # junction backtracks after normalization?

    @pytest.mark.parametrize("prefix, period", [((-1,), (0, 1)), ((), (0, -2)), ((2,), (-1, 0))])
    def test_negative_colors_refused(self, prefix, period):
        with pytest.raises(ValueError, match="colors are non-negative integers"):
            TreeEnd(prefix, period)

    def test_word_prefix_reads_the_letters(self):
        for xi in (TreeEnd((), (0, 1)), TreeEnd((2, 1), (0, 1, 2)), TreeEnd((1, 0, 2, 1), (0, 2))):
            for n in range(-2, 12):
                assert xi.word_prefix(n) == tuple(xi.letter(k) for k in range(n))

    def test_letters_and_vertices(self):
        xi = TreeEnd((2,), (0, 1))
        assert [xi.letter(k) for k in range(5)] == [2, 0, 1, 0, 1]
        assert xi.vertex_at(3) == TreeVertex((2, 0, 1))

    def test_agreement_depth(self):
        a = TreeEnd((), (0, 1))
        b = TreeEnd((0, 1, 0, 2), (0, 1))
        assert a.agreement_depth(b) == 3
        with pytest.raises(ValueError):
            a.agreement_depth(a)

    def test_agreement_depth_of_a_long_common_prefix(self):
        a = TreeEnd((0, 1) * 5001 + (2,), (0, 1))
        b = TreeEnd((), (0, 1))
        assert a.agreement_depth(b) == b.agreement_depth(a) == 10002
        assert TreeApartment(b, a).branch_depth == 10002


class TestApartment:
    def test_requires_distinct_ends(self):
        e = TreeEnd((), (0, 1))
        with pytest.raises(ValueError):
            TreeApartment(e, TreeEnd((0, 1), (0, 1)))

    def test_standard_through_root(self):
        a = standard_apartment()
        assert a.branch_depth == 0
        assert a.vertex_at(0) == ROOT
        assert a.vertex_at(2) == TreeVertex((0, 1))
        assert a.vertex_at(-2) == TreeVertex((1, 0))

    def test_branch_off_root(self):
        a = TreeApartment(TreeEnd((0, 1), (2, 0)), TreeEnd((0, 1), (0, 2)))
        assert a.branch_depth == 2
        assert a.vertex_at(0) == TreeVertex((0, 1))

    def test_projection(self):
        a = standard_apartment()
        assert a.project(TreeVertex((0, 1, 0))) == (3, 0)
        assert a.project(TreeVertex((1, 0, 1))) == (-3, 0)
        assert a.project(TreeVertex((0, 1, 2))) == (2, 1)
        assert a.project(TreeVertex((2, 0))) == (0, 2)
        assert a.coordinate_of(TreeVertex((2,))) is None
        assert TreeVertex((0, 1)) in a

    def test_line_consecutive_vertices_adjacent(self):
        a = TreeApartment(TreeEnd((2,), (0, 1)), TreeEnd((), (1, 2)))
        for t in range(-5, 5):
            assert a.vertex_at(t).distance(a.vertex_at(t + 1)) == 1


class TestConeNeighborhood:
    def test_membership(self):
        xi = TreeEnd((), (0, 1))
        cone = ConeNeighborhood(xi, 3)
        assert cone.contains_end(TreeEnd((0, 1, 0, 2), (0, 1)))
        assert not cone.contains_end(TreeEnd((), (0, 2)))
        assert cone.contains_vertex(TreeVertex((0, 1, 0, 1)))
        assert not cone.contains_vertex(TreeVertex((0, 1, 0)))

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            ConeNeighborhood(TreeEnd((), (0, 1)), 0)


class TestValueTypes:
    """Vertices, ends, apartments and cone neighborhoods are frozen values:
    equal when of one class with equal normalized fields, hashed by those
    fields, with the reprs the reports and notes print."""

    # (class, arguments, other arguments naming the same value, repr)
    VALUES = [
        (TreeVertex, ((0, 1, 2),), ([0, 1, 2],), "TreeVertex(0 1 2)"),
        (TreeEnd, ((0, 1), (2, 1)), ((0,), (1, 2, 1, 2)), "TreeEnd(0 | 1 2)"),
        (
            TreeApartment,
            (TreeEnd((), (1, 0)), TreeEnd((), (0, 1))),
            (TreeEnd((1,), (0, 1)), TreeEnd((0,), (1, 0))),
            "TreeApartment(end_minus=TreeEnd( | 1 0), end_plus=TreeEnd( | 0 1))",
        ),
        (
            ConeNeighborhood,
            (TreeEnd((), (0, 1)), 3),
            (TreeEnd((0, 1), (0, 1, 0, 1)), 3),
            "ConeNeighborhood(ray_target=TreeEnd( | 0 1), r=3)",
        ),
    ]
    IDS = ["vertex", "end", "apartment", "cone"]

    @pytest.mark.parametrize("cls, args, same, text", VALUES, ids=IDS)
    def test_assignment_refused(self, cls, args, same, text):
        v = cls(*args)
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert repr(v) == text

    @pytest.mark.parametrize("cls, args, same, text", VALUES, ids=IDS)
    def test_equal_values_hash_equal(self, cls, args, same, text):
        a, b = cls(*args), cls(*same)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(b) == text
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)

    def test_values_equal_only_their_own_class(self):
        assert TreeVertex(()) != ()
        assert TreeVertex(()) == TreeVertex() == ROOT
        end = TreeEnd((), (0, 1))
        assert end != ((), (0, 1))
        assert ConeNeighborhood(end, 1) != (end, 1)

    def test_normal_form_is_stored(self):
        end = TreeEnd((2, 0, 1), (0, 1, 0, 1))
        assert (end.prefix, end.period) == ((2,), (0, 1))
        assert TreeVertex([0, 1]).word == (0, 1)
