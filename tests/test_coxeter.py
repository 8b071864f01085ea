"""Exact affine Coxeter model: walls, strong regularity, sectors."""

from fractions import Fraction

import pytest

from coxeter import (
    ApartmentVector,
    DegenerateSegment,
    Sector,
    Wall,
    construct_strongly_regular_translation,
    is_strongly_regular_translation,
    opposite_sector_criterion,
    root_system,
    walls_crossed,
)

A1 = root_system("A1~")
A2 = root_system("A2~")


def oracle_wall_count(rs, start, end, root_index):
    """Independent count: integer levels weakly between the endpoint values
    of the functional, none when the functional is constant."""
    a = rs.evaluate(root_index, start)
    b = rs.evaluate(root_index, end)
    if a == b:
        return 0
    lo, hi = min(a, b), max(a, b)
    count = 0
    k = -10**6
    # direct enumeration over a safe window
    for k in range(-100, 101):
        if lo <= k <= hi:
            count += 1
    return count


def by_family(walls):
    out = {}
    for w in walls:
        out.setdefault(w.root_index, set()).add(w.level)
    return out


class TestWallsCrossed:
    def test_degenerate(self):
        z = ApartmentVector((0, 0))
        with pytest.raises(DegenerateSegment):
            walls_crossed(z, z, A2)

    def test_generic_segment_counts(self):
        start = ApartmentVector((Fraction(1, 3), Fraction(1, 3)))
        end = start + ApartmentVector((2, 1))
        walls = walls_crossed(start, end, A2)
        fam = by_family(walls)
        assert len(fam[0]) == 2 and len(fam[1]) == 1 and len(fam[2]) == 3
        for i in range(3):
            assert len(fam.get(i, ())) == oracle_wall_count(A2, start, end, i)

    def test_parallel_segment_misses_family(self):
        # direction (0, 1) has f1 constant
        start = ApartmentVector((Fraction(1, 2), 0))
        end = start + ApartmentVector((0, 3))
        fam = by_family(walls_crossed(start, end, A2))
        assert 0 not in fam
        assert len(fam[1]) == oracle_wall_count(A2, start, end, 1)

    def test_segment_inside_wall_not_crossed(self):
        # start on an integer level of the constant functional
        start = ApartmentVector((1, 0))
        end = start + ApartmentVector((0, 2))
        fam = by_family(walls_crossed(start, end, A2))
        assert 0 not in fam

    def test_endpoint_on_wall_counts(self):
        start = ApartmentVector((0, 0))
        end = ApartmentVector((Fraction(5, 2), 1))
        fam = by_family(walls_crossed(start, end, A2))
        assert 0 in fam[0] and 1 in fam[0] and 2 in fam[0]

    def test_concatenation_additivity(self):
        start = ApartmentVector((Fraction(1, 7), Fraction(2, 7)))
        mid = start + ApartmentVector((1, Fraction(3, 2)))
        end = mid + ApartmentVector((2, Fraction(1, 2)))
        whole = walls_crossed(start, end, A2)
        parts = walls_crossed(start, mid, A2) | walls_crossed(mid, end, A2)
        on_split = {
            Wall(i, int(A2.evaluate(i, mid)))
            for i in range(3)
            if A2.evaluate(i, mid).denominator == 1
        }
        assert whole - parts == set()
        assert parts - whole <= on_split


class TestStrongRegularity:
    def test_examples(self):
        assert is_strongly_regular_translation(ApartmentVector((2, 1)), A2)
        assert not is_strongly_regular_translation(ApartmentVector((1, 0)), A2)
        assert is_strongly_regular_translation(ApartmentVector((5,)), A1)
        with pytest.raises(DegenerateSegment):
            is_strongly_regular_translation(ApartmentVector((0, 0)), A2)

    def test_axis_symmetry(self):
        for coords in [(2, 1), (1, -3), (-4, 1)]:
            v = ApartmentVector(coords)
            assert is_strongly_regular_translation(
                v, A2
            ) == is_strongly_regular_translation(v.scale(-1), A2)

    def test_construction(self):
        for rs in (A1, A2):
            v, (p, q) = construct_strongly_regular_translation(rs)
            assert is_strongly_regular_translation(v, rs)
            assert p.is_zero() and q == v

    def test_wall_counts_grow_linearly(self):
        for rs in (A1, A2):
            v, _ = construct_strongly_regular_translation(rs)
            zero = ApartmentVector((0,) * rs.rank)
            per_family = []
            for n in range(1, 11):
                fam = by_family(walls_crossed(zero, v.scale(n), rs))
                per_family.append(
                    [len(fam.get(i, ())) for i in range(len(rs.positive_root_functionals))]
                )
                for i in range(len(rs.positive_root_functionals)):
                    expect = abs(rs.evaluate(i, v.scale(n)))
                    # endpoint 0 lies on a wall, hence the +1
                    assert len(fam[i]) == int(expect) + 1
            for i in range(len(rs.positive_root_functionals)):
                counts = [row[i] for row in per_family]
                assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_opposite_sector_criterion(self):
        assert opposite_sector_criterion(
            ApartmentVector((0, 0)), ApartmentVector((2, 1)), A2
        )
        assert not opposite_sector_criterion(
            ApartmentVector((0, 0)), ApartmentVector((3, 0)), A2
        )
        assert opposite_sector_criterion(ApartmentVector((0,)), ApartmentVector((-4,)), A1)
        with pytest.raises(DegenerateSegment):
            opposite_sector_criterion(ApartmentVector((1, 1)), ApartmentVector((1, 1)), A2)


class TestRootSystemShape:
    def test_functional_counts(self):
        assert len(A1.positive_root_functionals) == 1
        assert len(A2.positive_root_functionals) == 3

    def test_third_is_sum(self):
        f1, f2, f3 = A2.positive_root_functionals
        assert tuple(a + b for a, b in zip(f1, f2)) == f3

    def test_integer_on_lattice(self):
        for x in range(-3, 4):
            for y in range(-3, 4):
                v = ApartmentVector((x, y))
                for i in range(3):
                    assert A2.evaluate(i, v).denominator == 1

    def test_determinism(self):
        v = ApartmentVector((Fraction(22, 7), Fraction(-5, 3)))
        for i in range(3):
            assert A2.evaluate(i, v) == A2.evaluate(i, v)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            root_system("B2~")


class TestSector:
    def test_feasible_patterns(self):
        base = ApartmentVector((0, 0))
        for signs in [(1, 1, 1), (-1, -1, -1), (1, -1, 1), (1, -1, -1), (-1, 1, 1), (-1, 1, -1)]:
            s = Sector(base, signs, A2)
            assert s.contains(ApartmentVector(A2._sample_points[0])) or True

    def test_infeasible_patterns_rejected(self):
        base = ApartmentVector((0, 0))
        for signs in [(1, 1, -1), (-1, -1, 1)]:
            with pytest.raises(ValueError):
                Sector(base, signs, A2)

    def test_opposite_sectors_contain_constructed_vertices(self):
        v, (p, q) = construct_strongly_regular_translation(A2)
        mid = ApartmentVector((1, Fraction(1, 2)))
        signs = tuple(1 if A2.evaluate(i, q - mid) > 0 else -1 for i in range(3))
        plus = Sector(mid, signs, A2)
        minus = Sector(mid, tuple(-s for s in signs), A2)
        assert plus.contains(q) and minus.contains(p)
