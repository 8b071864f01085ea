"""The verdict pipeline: proxies, witnesses, consistency."""

import pytest

from helpers import (
    identity_portrait,
    make_c3,
    make_s3,
    make_s4,
    make_trivial,
    subgroups_of_symmetric,
)
from building_forge import gelfand
from building_forge.gelfand import (
    certify_disjoint,
    evaluate_noncommutativity,
    find_strongly_regular,
    find_witness,
    main_theorem_report,
    separation_end,
    WitnessPair,
)
from building_forge.group import (
    LocalGroup,
    fixed_end_check,
    k_orbit,
    orbit_count_growth,
    two_transitivity_on_ends_proxy,
)
from building_forge.hecke import commutativity_report, intersection_numbers
from building_forge.tree import (
    TablePortrait,
    classify_isometry,
    parallel_transport,
)
from building_forge.words import BudgetExhausted

C3 = make_c3()
S3 = make_s3()
S4 = make_s4()
TRIV = make_trivial()


class TestStrongTransitivityVerdict:
    """The boundary views that the report calls, at depth 3."""

    def test_s3(self):
        assert two_transitivity_on_ends_proxy(S3, 3)
        assert orbit_count_growth(S3, 3).stabilized
        assert fixed_end_check(S3) == set()

    def test_c3(self):
        assert not two_transitivity_on_ends_proxy(C3, 3)
        assert orbit_count_growth(C3, 3).verdict == "growing"
        assert fixed_end_check(C3) == set()

    def test_trivial(self):
        assert not two_transitivity_on_ends_proxy(TRIV, 3)
        assert orbit_count_growth(TRIV, 3).verdict == "growing"
        assert fixed_end_check(TRIV) == set()


class TestStronglyRegularCertificate:
    def test_certificate_is_the_classification(self):
        for degree in (3, 4, 5):
            F = make_trivial(degree)
            for budget in range(2, 9):
                g, cert = find_strongly_regular(F, budget)
                cls = classify_isometry(g)
                assert (cert.axis, cert.length) == (cls.axis, cls.length)


class TestSeparation:
    def test_c3_separation_depth(self):
        a, _ = find_strongly_regular(C3, 6)
        axis = classify_isometry(a).axis
        end, r = separation_end(C3, axis)
        assert r == 3
        prefix = end.word_prefix(r)
        shadow = k_orbit(C3, axis.end_plus.word_prefix(r)) | k_orbit(
            C3, axis.end_minus.word_prefix(r)
        )
        assert prefix not in shadow

    def test_trivial_separation_is_immediate(self):
        a, _ = find_strongly_regular(TRIV, 6)
        axis = classify_isometry(a).axis
        end, r = separation_end(TRIV, axis)
        assert r == 1


class TestWitness:
    def test_c3_witness(self):
        w = find_witness(C3, 6)
        assert w is not None and w.m <= 6 and w.n <= 6
        left, right = w.certificate
        assert left and right and left.isdisjoint(right)
        for g in (w.alpha, w.beta):
            assert classify_isometry(g).is_hyperbolic

    def test_s3_has_no_witness_at_any_budget(self):
        for budget in (0, 2, 6, 10):
            assert find_witness(S3, budget) is None

    def test_s4_has_no_witness(self):
        assert find_witness(S4, 6) is None

    def test_budget_zero(self):
        with pytest.raises(BudgetExhausted):
            find_witness(C3, 0)

    def test_budget_too_small_for_pigeonhole(self):
        # the walk cannot even repeat a label: exhaustion is refused, never
        # read as the strong side's None
        with pytest.raises(BudgetExhausted):
            find_witness(C3, 1)

    def test_no_certified_pair_within_the_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            gelfand, "certify_disjoint", lambda F, a, b: (False, frozenset(), frozenset())
        )
        with pytest.raises(BudgetExhausted):
            find_witness(C3, 3)

    def test_an_oversized_certificate_is_refused(self, monkeypatch):
        def over_cap(F, alpha, beta):
            raise BudgetExhausted("certificate orbit sets exceed the size cap")

        monkeypatch.setattr(gelfand, "certify_disjoint", over_cap)
        with pytest.raises(BudgetExhausted):
            find_witness(C3, 6)

    def test_trivial_group_witness(self):
        w = find_witness(TRIV, 6)
        assert w is not None
        assert evaluate_noncommutativity(w, intersection_numbers(TRIV, 6))[1] == 0

    def test_witness_stable_under_deepening(self):
        w = find_witness(C3, 6)
        a = parallel_transport(w.alpha_image if w.m == 1 else w.alpha_image[: len(w.alpha_image) // w.m], 3)
        b = parallel_transport(w.beta_image if w.n == 1 else w.beta_image[: len(w.beta_image) // w.n], 3)
        ok, _, _ = certify_disjoint(C3, a.power(w.m + 1), b.power(w.n + 1))
        assert ok

    def test_witness_holds_the_certified_pair(self, monkeypatch):
        """Each tried pair of powers is built once, and the witness holds
        the very elements that were certified."""
        certified, powers = [], []
        power = TablePortrait.power

        def recording(F, alpha, beta):
            certified.append((alpha, beta))
            return certify_disjoint(F, alpha, beta)

        def counted(self, n):
            powers.append(n)
            return power(self, n)

        monkeypatch.setattr(gelfand, "certify_disjoint", recording)
        monkeypatch.setattr(TablePortrait, "power", counted)
        w = find_witness(C3, 6)
        assert w.alpha is certified[-1][0] and w.beta is certified[-1][1]
        assert len(powers) == 2 * len(certified)


class TestEvaluate:
    def test_valid_witness_separates(self):
        w = find_witness(C3, 6)
        sc = intersection_numbers(C3, 6)
        first, second = evaluate_noncommutativity(w, sc)
        assert first >= 1 and second == 0

    def test_unit_pair(self):
        sc = intersection_numbers(C3, 4)
        e = identity_portrait(3)
        w = WitnessPair(e, e, 1, 1, (frozenset(), frozenset()), 0)
        assert evaluate_noncommutativity(w, sc) == (1, 1)

    def test_radial_pair_is_symmetric_for_s3(self):
        sc = intersection_numbers(S3, 6)
        a = parallel_transport((0, 1), 3)
        b = parallel_transport((0, 2, 1), 3)
        w = WitnessPair(a, b, 1, 1, (frozenset(), frozenset()), 0)
        first, second = evaluate_noncommutativity(w, sc)
        assert first == second

    def test_soundness_against_commutativity_scan(self):
        # whenever a witness exists the scan independently finds an asymmetry
        for F in (C3, TRIV):
            assert find_witness(F, 6) is not None
            assert not commutativity_report(F, 4).commutative


class TestMainTheoremReport:
    @pytest.mark.parametrize(
        "F", [make_c3(), make_s3(), make_trivial(), make_s4()], ids=["C3", "S3", "trivial", "S4q3"]
    )
    def test_consistency(self, F):
        verdict = main_theorem_report(F, 3)
        assert verdict.consistent

    def test_sides(self):
        v = main_theorem_report(S3, 3)
        assert v.st_boundary and v.orbit_finiteness == "stabilized"
        assert v.hecke.commutative and v.witness is None
        v = main_theorem_report(C3, 3)
        assert not v.st_boundary and v.orbit_finiteness == "growing"
        assert not v.hecke.commutative and v.witness is not None

    def test_serialization_fields(self):
        doc = main_theorem_report(C3, 3).to_dict()
        for key in (
            "group",
            "depth",
            "st_boundary",
            "orbit_counts",
            "orbit_finiteness",
            "hecke_verdict",
            "witness",
            "consistent",
        ):
            assert key in doc
        assert doc["witness"]["m"] >= 1

    def test_verdict_is_frozen(self):
        v = main_theorem_report(C3, 3)
        with pytest.raises(AttributeError):
            v.consistent = False
        assert v.consistent

    def test_every_small_group(self):
        """Every subgroup of S3 and S4 at depths 3-5, every 2-generated
        subgroup of S5 at depths 3-4: each report is consistent, and its
        strong side is Burger-Mozes' 2-transitivity of F."""
        cases = [(F, d) for F in subgroups_of_symmetric(3) for d in (3, 4, 5)]
        cases += [(F, d) for F in subgroups_of_symmetric(4) for d in (3, 4, 5)]
        cases += [(F, d) for F in subgroups_of_symmetric(5) for d in (3, 4)]
        assert len(cases) == 3 * 36 + 2 * 156
        for F, depth in cases:
            report = main_theorem_report(F, depth)
            assert report.consistent, (F, depth)
            assert report.st_boundary == F.two_transitive, (F, depth)

    def test_no_view_reads_a_transitivity_flag(self):
        """The report on every subgroup of S3 and S4 is unchanged when the
        group has no ``transitive`` or ``two_transitive`` attribute."""
        for F in subgroups_of_symmetric(3) + subgroups_of_symmetric(4):
            bare = LocalGroup(F.degree, F.generators)
            del bare.transitive, bare.two_transitive
            for depth in (3, 4):
                intact = main_theorem_report(F, depth)
                assert main_theorem_report(bare, depth).to_dict() == intact.to_dict(), F

    def test_trivial_group_flagged(self):
        v = main_theorem_report(TRIV, 3)
        assert v.consistent
        assert any("trivial" in note for note in v.notes)
