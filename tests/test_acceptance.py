"""Acceptance suite: one test per criterion, exact tolerances, time bounds.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines while the suite runs).
"""

import time
from fractions import Fraction
from itertools import permutations
from random import Random

from helpers import (
    KernelFunction,
    ball_words,
    busemann_beta_by_retraction,
    convolve,
    enumerate_ends,
    identity_portrait,
    make_c3,
    make_s3,
    make_s4,
    make_trivial,
    retraction,
    triple_loop_count,
)
from building_forge.coxeter import (
    ApartmentVector,
    construct_strongly_regular_translation,
    is_strongly_regular_translation,
    root_system,
    walls_crossed,
)
from building_forge.gelfand import (
    evaluate_noncommutativity,
    find_witness,
    line_pigeonhole_oracles,
    main_theorem_report,
)
from building_forge.hecke import commutativity_report, intersection_numbers
from building_forge.tree import (
    ROOT,
    TreeEnd,
    TreeVertex,
    busemann_beta,
    classify_isometry,
    constant_portrait,
    hyperbolic_from_segment,
    in_Gc0,
    parallel_transport,
    pigeonhole_find_hyperbolic,
    segment_through_apartment,
    standard_apartment,
)
from building_forge.words import word_distance

C3 = make_c3()
S3 = make_s3()
S4 = make_s4()
TRIV = make_trivial()


def report(k: int, message: str):
    print(f"ACCEPTANCE {k} PASS: {message}")


def random_bounded_hyperbolic(rng: Random, degree: int = 3):
    """Hyperbolic with axis ends of period <= 3 and prefix <= 6.

    Conjugating a short translation by color-preserving transports or by a
    global color rotation changes neither the period length of the axis ends
    nor pushes their prefixes past the transport length.
    """
    while True:
        n = rng.randint(2, 3)
        w = [rng.randrange(degree)]
        while len(w) < n:
            c = rng.randrange(degree)
            if c != w[-1]:
                w.append(c)
        if w[0] != w[-1]:
            break
    t = parallel_transport(tuple(w), degree)
    style = rng.randrange(3)
    if style == 0:
        return t, n
    if style == 1:
        u = [rng.randrange(degree)]
        while len(u) < rng.randint(1, 3):
            c = rng.randrange(degree)
            if c != u[-1]:
                u.append(c)
        h = parallel_transport(tuple(u), degree)
        return h * t * h.inverse(), n
    sigma = rng.choice(list(permutations(range(degree))))
    k = constant_portrait(ROOT, sigma, degree)
    return k * t * k.inverse(), n


def test_acceptance_01_radial_hecke_relations():
    t0 = time.monotonic()
    sc = intersection_numbers(S3, 6)

    def oracle(d_i, d_j, z):
        return sum(
            1
            for y in ball_words(3, 6)
            if len(y) == d_i and word_distance(y, z) == d_j
        )

    one = KernelFunction.indicator(sc, 1)
    sq = convolve(one, one, sc)
    assert sq == KernelFunction.from_dict({2: Fraction(1), 0: Fraction(3)}, sc)
    assert oracle(1, 1, ()) == 3 and oracle(1, 1, (0, 1)) == 1
    for m in range(2, 6):
        prod = convolve(one, KernelFunction.indicator(sc, m), sc)
        assert prod == KernelFunction.from_dict(
            {m + 1: Fraction(1), m - 1: Fraction(2)}, sc
        )
        assert oracle(1, m, sc.orbits[m + 1].representative) == 1
        assert oracle(1, m, sc.orbits[m - 1].representative) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"radial relations at q=2, R=6 match the brute-force oracle ({elapsed:.2f}s)")


def test_acceptance_02_gelfand_side_s3():
    t0 = time.monotonic()
    verdict = commutativity_report(S3, 4)
    assert verdict.commutative and verdict.radius == 4
    sc = intersection_numbers(S3, 4)
    for i in sc.orbits:
        for j in sc.orbits:
            if sc.in_budget(i.id, j.id):
                for k in sc.orbits:
                    assert sc.n(i.id, j.id, k.id) == sc.n(j.id, i.id, k.id)
    assert find_witness(S3, 6) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"S3: commutative up to 4 and no witness exists ({elapsed:.2f}s)")


def test_acceptance_03_non_gelfand_side_c3():
    t0 = time.monotonic()
    verdict = commutativity_report(C3, 6)
    assert not verdict.commutative
    i, j, k, nij, nji = verdict.witness
    assert nij != nji
    w = find_witness(C3, 6)
    assert w is not None
    left, right = w.certificate
    assert left and right and left.isdisjoint(right)
    first, second = evaluate_noncommutativity(w, intersection_numbers(C3, 6))
    assert first >= 1 and second == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        3,
        f"C3: asymmetry N[{i}][{j}]^{k}={nij} vs {nji}; witness (m={w.m}, n={w.n}) "
        f"evaluates to ({first}, {second}) ({elapsed:.2f}s)",
    )


def test_acceptance_04_strongly_regular_existence():
    lengths = {}
    for name, F in [("C3", C3), ("S3", S3), ("S4q3", S4)]:
        line = standard_apartment()
        probe_labels, _ = line_pigeonhole_oracles(F, line, window=16)
        distinct = len({probe_labels(line.vertex_at(t)) for t in range(0, 12)})
        budget = 2 * distinct + 2
        labels, transporter = line_pigeonhole_oracles(F, line, window=budget + 2)
        g, _ = pigeonhole_find_hyperbolic(line, labels, transporter, budget)
        cls = classify_isometry(g)
        assert cls.is_hyperbolic
        t0 = line.coordinate_of(cls.axis_vertex)
        seg = [line.vertex_at(t0 + i) for i in range(cls.length + 3)]
        cert = hyperbolic_from_segment(g, seg, [g.image(v) for v in seg])
        assert cert.length == cls.length
        lengths[name] = (cls.length, distinct, budget)
    report(4, f"pigeonhole found certified hyperbolics: {lengths}")


def test_acceptance_05_dynamics_of_iterated_ends():
    rng = Random(2024)
    sample_ends = [
        TreeEnd((), (0, 2)),
        TreeEnd((), (2, 1)),
        TreeEnd((2,), (0, 1)),
        TreeEnd((1, 2), (0, 2)),
        TreeEnd((0, 2, 1), (2, 0)),
        TreeEnd((), (0, 1, 2)),
        TreeEnd((1,), (2, 0, 1)),
        TreeEnd((2, 0), (1, 2)),
        TreeEnd((0, 1, 2, 1), (0, 1)),
        TreeEnd((), (1, 0, 2)),
    ]
    candidates = enumerate_ends(3, max_prefix=6, max_period=3)
    checked = 0
    for idx in range(10):
        a, ell = random_bounded_hyperbolic(rng)
        cls = classify_isometry(a)
        eta_plus, eta_minus = cls.axis.end_plus, cls.axis.end_minus
        xi = sample_ends[idx]
        if xi in (eta_plus, eta_minus):
            xi = next(e for e in sample_ends if e not in (eta_plus, eta_minus))
        depths = [xi.agreement_depth(eta_plus)]
        current = xi
        for _ in range(8):
            current = a.image_of_end(current)
            depths.append(current.agreement_depth(eta_plus))
        assert all(x <= y for x, y in zip(depths, depths[1:]))
        deltas = [y - x for x, y in zip(depths, depths[1:])]
        # increments at every n strictly beyond the burn-in are exactly the
        # translation length; the depth at the burn-in step itself may still
        # be clamped while the image ray clears the repelling side
        burn_in_bound = cls.axis.project(ROOT)[1] + len(xi.prefix)
        actual = len(deltas)
        while actual > 0 and deltas[actual - 1] == ell:
            actual -= 1
        assert actual <= burn_in_bound + 1, (idx, depths, ell, burn_in_bound)
        assert all(d == ell for d in deltas[burn_in_bound + 1:]), (idx, depths, ell)
        fixed = [e for e in candidates if a.fixes_end(e)]
        assert sorted(fixed, key=repr) == sorted([eta_plus, eta_minus], key=repr)
        checked += 1
    assert checked == 10
    report(5, "agreement depths grow by the translation length; fixed ends = axis ends")


def test_acceptance_06_long_subsegments_in_the_axis():
    T = 10
    a = parallel_transport((0, 1), 3)  # color-preserving, hence legal for C3
    ell = 2
    rng = Random(99)
    pool = [w for w in ball_words(3, 4)]
    test_set = [TreeVertex(w) for w in rng.sample(pool, 20)]
    max_depth = max(len(v.word) for v in test_set)
    bound = T + -(-T // ell) + max_depth
    cls = classify_isometry(a)
    overlaps = {
        x: [segment_through_apartment(a, cls, ROOT, x, n)[n] for n in range(bound + 6)]
        for x in test_set
    }
    n0 = None
    for n in range(bound + 1):
        if all(all(v > T for v in overlaps[x][n:]) for x in test_set):
            n0 = n
            break
    assert n0 is not None and n0 <= bound
    report(6, f"overlap with the axis exceeds {T} for all n >= {n0} (bound {bound})")


def test_acceptance_07_retraction_and_busemann():
    a = standard_apartment()
    c = a.end_plus
    for t in range(-25, 25):
        assert retraction(a, c, a.vertex_at(t)) == t
    rng = Random(7)
    words = list(ball_words(3, 6))
    for _ in range(200):
        x, y = TreeVertex(rng.choice(words)), TreeVertex(rng.choice(words))
        assert abs(retraction(a, c, x) - retraction(a, c, y)) <= x.distance(y)
    # stabilizer sample: translations along the line and ray fixers
    all_perms = list(permutations(range(3)))

    def ray_fixer():
        table = {}
        for k in range(6):
            v = c.vertex_at(k).word
            pin_out = c.letter(k)
            cands = [
                p
                for p in all_perms
                if p[pin_out] == pin_out and (not v or p[v[-1]] == v[-1])
            ]
            table[v] = rng.choice(cands)
        from building_forge.tree import TablePortrait

        return TablePortrait(ROOT, table, 3)

    trans = parallel_transport((0, 1), 3)
    pool = [identity_portrait(3), trans, trans.inverse(), trans * trans]
    pool += [ray_fixer() for _ in range(6)]
    betas = {id(g): busemann_beta(c, g) for g in pool}
    assert all(betas[id(g)] == busemann_beta_by_retraction(a, c, g) for g in pool)
    for _ in range(50):
        g, h = rng.choice(pool), rng.choice(pool)
        bg, bh = betas[id(g)], betas[id(h)]
        assert busemann_beta(c, g * h) == bg + bh
        member = in_Gc0(g * h, c)
        assert member == (bg + bh == 0)
    report(7, "retraction identity, 1-Lipschitz, additive Busemann, kernel = vanishing")


def test_acceptance_08_coherent_configuration_axioms():
    for name, F in [("C3", C3), ("S3", S3)]:
        sc = intersection_numbers(F, 4)
        ids = [o.id for o in sc.orbits]
        for i in ids:
            for k in ids:
                if sc.in_budget(i, 0):
                    assert sc.n(i, 0, k) == (1 if i == k else 0)
                    assert sc.n(0, i, k) == (1 if i == k else 0)
        for i in ids:
            for j in ids:
                if not sc.in_budget(i, j):
                    continue
                assert sum(n * sc.valency(k) for k, n in sc.products_of(i, j)) == sc.valency(
                    i
                ) * sc.valency(j)
        for k in sc.orbits:
            for i in ids:
                for j in ids:
                    if not sc.in_budget(i, j):
                        continue
                    counts = {
                        triple_loop_count(sc.table, i, j, z)
                        for z in sc.table.classes[k.id].members
                    }
                    assert len(counts) == 1
        small = [o.id for o in sc.orbits if o.distance <= 1]
        for i in small:
            for j in small:
                for k in small:
                    phi, psi, chi = (KernelFunction.indicator(sc, x) for x in (i, j, k))
                    if sc.distance(i) + sc.distance(j) + sc.distance(k) <= 4:
                        assert convolve(convolve(phi, psi, sc), chi, sc) == convolve(
                            phi, convolve(psi, chi, sc), sc
                        )
    report(8, "unit, valency, representative-independence, associativity exact at R=4")


def test_acceptance_09_main_theorem_consistency():
    t0 = time.monotonic()
    outcomes = {}
    for name, F in [("C3", C3), ("S3", S3), ("trivial", TRIV), ("S4q3", S4)]:
        verdict = main_theorem_report(F, 3)
        assert verdict.consistent, (name, verdict)
        outcomes[name] = "strongly-transitive" if verdict.st_boundary else "non"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    assert outcomes == {
        "C3": "non",
        "S3": "strongly-transitive",
        "trivial": "non",
        "S4q3": "strongly-transitive",
    }
    report(9, f"all four verdicts consistent: {outcomes} ({elapsed:.2f}s)")


def test_acceptance_10_coxeter_strongly_regular_translations():
    for tag in ("A1~", "A2~"):
        rs = root_system(tag)
        v, (p, q) = construct_strongly_regular_translation(rs)
        assert is_strongly_regular_translation(v, rs)
        zero = ApartmentVector((0,) * rs.rank)
        n_families = len(rs.positive_root_functionals)
        prev = [0] * n_families
        for n in range(1, 11):
            walls = walls_crossed(zero, v.scale(n), rs)
            counts = [0] * n_families
            for w in walls:
                counts[w.root_index] += 1
            for i in range(n_families):
                assert counts[i] == int(abs(rs.evaluate(i, v.scale(n)))) + 1
                assert counts[i] > prev[i]
            prev = counts
    report(10, "constructed translations are strongly regular; wall counts grow linearly")
