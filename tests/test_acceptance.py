"""Acceptance gate: one test per advertised criterion, exact arithmetic
throughout (tolerance 0 everywhere).  Each test prints a single PASS line;
a failed assertion is the FAIL line for that criterion.
"""

import random
import time
from fractions import Fraction

import sympy

from logahoric import linalgq
from logahoric.higgs import (
    build_field,
    clear_denominators,
    gaudin_hamiltonians,
    hitchin_map,
    spectral_curve,
    spectral_genus,
)
from logahoric.parahoric import (
    FACET_HYPERSPECIAL,
    FACET_IWAHORI,
    MEMBER_PARAHORIC,
    MEMBER_PLUS,
    analyze_weight,
    loop_bracket,
    loop_element,
    membership,
    rank2_semistability,
    slope_test,
)
from logahoric.poisson import (
    LiePoissonAlgebra,
    MomentValue,
    PoissonPolynomial,
    bivector_rank_at,
    bracket,
    coadjoint_act,
    leaf_invariants,
    moment_map,
    nilpotent_vanishing_check,
    site_casimir,
    verify_involution,
)
from logahoric.rootsys import (
    GroupTag,
    RationalCocharacter,
    build_root_system,
    cocharacter_to_diagonal,
    entry_to_root,
    negate,
    pair,
)
from support import (
    E2,
    F2,
    H2,
    entry_of,
    rnd_field,
    rnd_fraction,
    rnd_invertible,
    rnd_matrix,
    rnd_points,
    rank2_reduction,
    reference_residue_invariants,
    strictly_upper,
)

SL2 = GroupTag("A", 1, "SL")


def efh_field():
    return build_field(
        [0, 1, 2], [E2, F2, [[0, -1], [-1, 0]]], SL2
    )


def heh_field():
    return build_field(
        [0, 1, 2], [H2, E2, [[-1, -1], [0, 1]]], SL2
    )


# -- weighted-site helpers for criteria 3 and 6 --------------------------------


def rnd_weight_datum(rng, rs):
    theta = RationalCocharacter.of(
        [
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
            for _ in range(rs.rank)
        ]
    )
    return analyze_weight(rs, theta)


def admissible_matrix(rng, n, datum):
    """Random matrix lying in the datum's parahoric stalk at the constant
    level: channels with positive jump are zeroed."""
    m = rnd_matrix(rng, n)
    if datum is None:
        return m
    for p in range(n):
        for q in range(n):
            if p != q and datum.jumps[entry_to_root(datum.system, p, q)] > 0:
                m[p][q] = Fraction(0)
    return m


def block_group_element(rng, n, datum):
    """Diagonal times block-unipotent element of the weight's Levi subgroup
    (any invertible matrix when no weight constrains the site)."""
    if datum is None:
        return rnd_invertible(rng, n)
    t = cocharacter_to_diagonal(datum.theta)
    diag = linalgq.zeros(n)
    for i in range(n):
        d = Fraction(0)
        while d == 0:
            d = rnd_fraction(rng, -3, 3, 2)
        diag[i][i] = d
    lower = linalgq.identity(n)
    upper = linalgq.identity(n)
    for p in range(n):
        for q in range(n):
            if p == q or t[p] != t[q]:
                continue
            if p > q:
                lower[p][q] = rnd_fraction(rng, -2, 2, 2)
            else:
                upper[p][q] = rnd_fraction(rng, -2, 2, 2)
    return linalgq.mat_mul(diag, linalgq.mat_mul(lower, upper))


def rnd_weighted_field(rng, n, s):
    rs = build_root_system("A", n - 1)
    data = [
        rnd_weight_datum(rng, rs) if rng.random() < 0.7 else None
        for _ in range(s)
    ]
    residues = [admissible_matrix(rng, n, d) for d in data]
    thetas = [None if d is None else d.theta for d in data]
    field = build_field(
        rnd_points(rng, s), residues, GroupTag("A", n - 1, "GL"), thetas
    )
    return field, data


# -- criteria -------------------------------------------------------------------


def test_criterion_01_gaudin_involution():
    start = time.monotonic()
    alg, hams = gaudin_hamiltonians(efh_field())
    report = verify_involution(hams, alg)
    assert report.pair_count == 3
    assert report.all_commute

    rng = random.Random(1001)
    for _ in range(50):
        n = rng.randint(2, 3)
        s = rng.randint(2, 5)
        f = rnd_field(rng, n, s)
        alg, hams = gaudin_hamiltonians(f)
        assert verify_involution(hams, alg).all_commute
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"criterion 1: PASS - frozen s=3 pairs and 50 random configs all "
        f"commute exactly in {elapsed:.2f}s"
    )


def test_criterion_02_worked_hitchin_image():
    z = sympy.Symbol("z")
    cases = [
        (efh_field(), [0, 2, -2]),  # -2z^2 + 2z, ascending
        (heh_field(), [-4, 8, -4]),  # -4(z-1)^2
    ]
    for f, expected in cases:
        section = hitchin_map(f).sections[0]
        assert section == [Fraction(c) for c in expected]
        # independent oracle: assemble A(z) in sympy and expand its determinant
        a = sympy.zeros(2, 2)
        for j in range(3):
            basis = sympy.Integer(1)
            for k in range(3):
                if k != j:
                    basis *= z - f.points[k]
            for p in range(2):
                for q in range(2):
                    a[p, q] += sympy.Rational(f.residues[j][p][q]) * basis
        det = sympy.Poly(sympy.expand(a.det()), z)
        assert det.all_coeffs()[::-1] == expected
    print("criterion 2: PASS - both worked det A(z) values match the symbolic oracle")


def test_criterion_03_diagram_commutes():
    from logahoric.higgs import invariant_degrees, quotient_diagram_check, residue_of_invariant

    rng = random.Random(1003)
    for trial in range(200):
        n = rng.randint(2, 3)
        s = rng.randint(2, 5)
        if trial % 2 == 0:
            f = rnd_field(rng, n, s, form=rng.choice(("SL", "GL")))
        else:
            f, _ = rnd_weighted_field(rng, n, s)
        assert quotient_diagram_check(f).all_equal
        # the residue route against sympy's invariants of A(x_j) on a subset
        if trial % 10 < 2:
            for j in range(s):
                want = reference_residue_invariants(f, j)
                for i in invariant_degrees(f):
                    assert residue_of_invariant(f, j, i) == want[i - 1]
    print(
        "criterion 3: PASS - residue-of-invariant equals invariant-of-residue "
        "on 200 random fields, and the sympy invariants of A(x_j) on 40 of them"
    )


def test_criterion_04_nilpotent_invariants_vanish():
    rng = random.Random(1004)
    for _ in range(200):
        n = rng.randint(2, 4)
        g = rnd_invertible(rng, n)
        x = linalgq.mat_mul(
            linalgq.mat_mul(g, strictly_upper(rng, n)), linalgq.inverse(g)
        )
        assert nilpotent_vanishing_check(x)
        assert all(v == 0 for v in linalgq.invariant_values(x))
    print("criterion 4: PASS - 200 conjugated nilpotents have all invariants 0")


def test_criterion_05_degree_bound():
    rng = random.Random(1005)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 3)
        s = rng.randint(2, 5)
        f = rnd_field(rng, n, s)
        assert f.regular_at_infinity
        assert clear_denominators(f).degree <= s - 2
        # perturb one residue: the sum-zero rule breaks and the bound jumps
        bump = linalgq.zeros(n)
        bump[0][1] = Fraction(1)
        perturbed = [linalgq.copy(m) for m in f.residues]
        perturbed[0] = linalgq.mat_add(perturbed[0], bump)
        g = build_field(f.points, perturbed, f.group)
        assert not g.regular_at_infinity
        assert clear_denominators(g).degree == s - 1
        violations += 1
    assert violations == 500
    print(
        "criterion 5: PASS - deg A <= s-2 on 500 sum-zero instances; every "
        "perturbation detected at degree s-1"
    )


def test_criterion_06_moment_equivariance():
    rng = random.Random(1006)
    for _ in range(100):
        n = rng.randint(2, 3)
        s = rng.randint(1, 3)
        f, data = rnd_weighted_field(rng, n, s)
        gs = [block_group_element(rng, n, d) for d in data]
        conj = [
            linalgq.mat_mul(linalgq.mat_mul(g, x), linalgq.inverse(g))
            for g, x in zip(gs, f.residues)
        ]
        gf = build_field(f.points, conj, f.group, f.theta_data)
        assert moment_map(gf) == coadjoint_act(gs, moment_map(f))
    print("criterion 6: PASS - moment map is exactly equivariant on 100 random pairs")


def test_criterion_07_parahoric_combinatorics():
    rng = random.Random(1007)
    checked = 0
    for family, rank in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(family, rank)
        for _ in range(167):
            theta = RationalCocharacter.of(
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(rank)
                ]
            )
            d = analyze_weight(rs, theta)
            levi = set(d.levi_roots)
            for r in rs.roots:
                total = d.jumps[r] + d.jumps[negate(r)]
                assert total in (0, 1)
                assert (total == 0) == (r in levi)
                assert (pair(rs, theta, r).denominator == 1) == (r in levi)
            checked += 1
    assert checked >= 500
    a1 = build_root_system("A", 1)
    assert analyze_weight(
        a1, RationalCocharacter.of([Fraction(1, 4)])
    ).facet_class == FACET_IWAHORI
    assert analyze_weight(
        a1, RationalCocharacter.of([Fraction(0)])
    ).facet_class == FACET_HYPERSPECIAL
    print(
        f"criterion 7: PASS - jump dichotomy on {checked} weights over A2, B2, "
        "G2; quarter weight Iwahori, zero weight hyperspecial"
    )


def test_criterion_08_bracket_ideal():
    rng = random.Random(1008)
    systems = (build_root_system("A", 1), build_root_system("A", 2))
    for _ in range(200):
        rs = rng.choice(systems)
        theta = RationalCocharacter.of(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank)]
        )
        d = analyze_weight(rs, theta)

        def rnd_member(plus: bool):
            roots = {}
            for r in rs.roots:
                if rng.random() < 0.5:
                    base = d.plus_grading[r] if plus else d.jumps[r]
                    roots[(r, base + rng.randint(0, 1))] = rng.randint(-2, 2)
            torus = {
                (1 if plus else 0) + rng.randint(0, 1): [
                    rng.randint(-2, 2) for _ in range(rs.rank)
                ]
            }
            return loop_element(rs, torus, roots)

        x = rnd_member(plus=False)
        y = rnd_member(plus=True)
        assert membership(x, d) in (MEMBER_PARAHORIC, MEMBER_PLUS)
        assert membership(y, d) == MEMBER_PLUS
        assert membership(loop_bracket(x, y), d) == MEMBER_PLUS
    print(
        "criterion 8: PASS - [parahoric, radical] lands in the radical on 200 "
        "random pairs over A1 and A2"
    )


def test_criterion_09_spectral_genus():
    rng = random.Random(1009)
    for n, s in ((2, 3), (2, 4), (3, 3), (3, 4)):
        closed_form = (n - 1) * (n * (s - 2) - 2) // 2
        assert spectral_genus(n, s) == closed_form
        sc = None
        for _ in range(60):
            candidate = spectral_curve(rnd_field(rng, n, s))
            if candidate.is_squarefree:
                sc = candidate
                break
        assert sc is not None, f"no squarefree instance found for (n,s)=({n},{s})"
        assert sc.genus == closed_form
        # Riemann-Hurwitz for a degree-n cover with simple branch points
        assert sc.branch_count == 2 * (sc.genus + n - 1)
    print(
        "criterion 9: PASS - computed genus matches the closed form and "
        "branch counts for (2,3), (2,4), (3,3), (3,4)"
    )


def test_criterion_10_rank2_stability():
    trivial = rank2_semistability((0, 0))
    assert trivial.verdict == "semistable-boundary"
    weighted = rank2_semistability(
        (0, 0), flags=[(1, 0)], weights=[(Fraction(1, 4), 0)], points=[0]
    )
    assert weighted.verdict == "fail"
    assert weighted.witness.weighted_degree == Fraction(1, 4)
    assert weighted.witness.incidences == (0,)
    assert weighted.total_slope == Fraction(1, 8)

    rng = random.Random(1010)
    crosschecked = 0
    for _ in range(20):
        a1 = rng.randint(-1, 1)
        a2 = a1 - rng.randint(0, 2)
        s = rng.randint(0, 3)
        flags, weights = [], []
        for _ in range(s):
            c, dcoef = rng.randint(0, 2), rng.randint(0, 2)
            if c == 0 and dcoef == 0:
                c = 1
            flags.append((c, dcoef))
            weights.append(
                (Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4))
            )
        report = rank2_semistability(
            (a1, a2), flags, weights, points=list(range(s))
        )
        for cand in report.candidates:
            rd = rank2_reduction(cand, (a1, a2), weights)
            assert slope_test(rd) == cand.verdict
            crosschecked += 1
        assert report.witness.weighted_degree == max(
            c.weighted_degree for c in report.candidates
        )
    print(
        f"criterion 10: PASS - trivial boundary and weighted fail reproduced; "
        f"slope oracle agrees on {crosschecked} candidates"
    )


def test_criterion_11_poisson_axioms():
    rng = random.Random(1011)
    alg = LiePoissonAlgebra(2, 2)

    def rnd_poly():
        out = PoissonPolynomial.constant(alg, Fraction(rng.randint(-2, 2)))
        for _ in range(rng.randint(1, 3)):
            term = PoissonPolynomial.constant(alg, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 2)):
                j, p, q = entry_of(alg, rng.randrange(alg.gen_count))
                term = term * alg.generator(j, p, q)
            out = out + term
        return out

    for _ in range(100):
        f, g, h = rnd_poly(), rnd_poly(), rnd_poly()
        assert bracket(f * g, h, alg) == f * bracket(g, h, alg) + g * bracket(
            f, h, alg
        )
        jac = (
            bracket(f, bracket(g, h, alg), alg)
            + bracket(g, bracket(h, f, alg), alg)
            + bracket(h, bracket(f, g, alg), alg)
        )
        assert jac.is_zero

    galg, hams = gaudin_hamiltonians(efh_field())
    for j in range(3):
        cas = site_casimir(galg, j)
        for gen in range(galg.gen_count):
            site, p, q = entry_of(galg, gen)
            assert bracket(cas, galg.generator(site, p, q), galg).is_zero
        for ham in hams:
            assert bracket(cas, ham, galg).is_zero
    print(
        "criterion 11: PASS - Jacobi and Leibniz on 100 random triples; site "
        "Casimirs commute with all generators and Gaudin Hamiltonians"
    )


def test_criterion_12_leaf_bookkeeping():
    rng = random.Random(1012)
    for _ in range(500):
        n = rng.randint(2, 3)
        s = rng.randint(1, 2)
        m = MomentValue(sites=tuple(rnd_matrix(rng, n) for _ in range(s)))
        assert bivector_rank_at(m) % 2 == 0

    for _ in range(10):
        n = rng.randint(2, 3)
        base = MomentValue(sites=(rnd_matrix(rng, n),))
        reference = leaf_invariants(base)
        for _ in range(50):
            g = rnd_invertible(rng, n)
            moved = coadjoint_act([g], base)
            assert leaf_invariants(moved) == reference
    print(
        "criterion 12: PASS - bivector rank even at 500 random points; leaf "
        "invariants constant along 50 coadjoint trajectories per base point"
    )
