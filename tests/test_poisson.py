import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from logahoric import linalgq, poisson
from logahoric.errors import (
    AlgebraMismatchError,
    FiltrationError,
    GroupError,
    ShapeError,
)
from logahoric.higgs import (
    build_field,
    gaudin_hamiltonians,
    invariant_degrees,
    residue_of_invariant,
)
from logahoric.parahoric import ParahoricDatum, analyze_weight
from logahoric.poisson import (
    MomentValue,
    PoissonPolynomial,
    bivector_rank_at,
    bracket,
    coadjoint_act,
    hitchin_coefficient_hamiltonians,
    infinitesimal_action,
    leaf_invariants,
    levi_poisson_algebra,
    matrix_poisson_algebra,
    moment_map,
    nilpotent_exp,
    nilpotent_vanishing_check,
    quotient_diagram_check,
    site_casimir,
    site_invariant_polynomials,
    verify_involution,
)
from logahoric.rootsys import GroupTag, RationalCocharacter, build_root_system
from support import (
    E2,
    F2,
    H2,
    matrix_to_sympy,
    partial,
    reference_bivector_rank,
    reference_bracket,
    reference_mul,
    rnd_field,
    rnd_invertible,
    rnd_matrix,
    strictly_upper,
    with_sum_zero,
)

SL2 = GroupTag("A", 1, "SL")
A1 = build_root_system("A", 1)


def wt(rs, *coeffs) -> ParahoricDatum:
    return analyze_weight(rs, RationalCocharacter.of([Fraction(c) for c in coeffs]))


def rnd_poly(rng, alg, max_terms=3) -> PoissonPolynomial:
    out = PoissonPolynomial.constant(alg, Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(1, max_terms)):
        term = PoissonPolynomial.constant(alg, Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 2)):
            g = rng.randrange(alg.gen_count)
            j = alg.site_of(g)
            a = g - alg.offsets[j]
            p, q = alg.sites[j].entries[a]
            term = term * alg.generator(j, p, q)
        out = out + term
    return out


# -- algebra shapes -----------------------------------------------------------


def test_algebra_dimensions():
    full = matrix_poisson_algebra(2, 3)
    assert full.gen_count == 12
    iwa = wt(A1, Fraction(1, 4))
    levi = levi_poisson_algebra([iwa, iwa])
    assert levi.gen_count == 4  # diagonal entries only at each site
    zero = wt(A1, 0)
    assert levi_poisson_algebra([zero]).gen_count == 4


def test_generator_lookup_errors():
    iwa = wt(A1, Fraction(1, 4))
    levi = levi_poisson_algebra([iwa])
    levi.generator(0, 0, 0)
    with pytest.raises(AlgebraMismatchError):
        levi.generator(0, 0, 1)


# -- bracket ------------------------------------------------------------------


def test_bracket_sl2_relation():
    """{x00 - x11, x10} doubles x10, the h-e relation in entry coordinates."""
    alg = matrix_poisson_algebra(2, 1)
    h = alg.generator(0, 0, 0) - alg.generator(0, 1, 1)
    x10 = alg.generator(0, 1, 0)
    assert bracket(h, x10, alg) == x10.scaled(2)
    assert bracket(x10, h, alg) == x10.scaled(-2)


def test_bracket_cross_site_vanishes():
    alg = matrix_poisson_algebra(2, 2)
    a = alg.generator(0, 0, 1)
    b = alg.generator(1, 1, 0)
    assert bracket(a, b, alg).is_zero


def test_bracket_antisymmetry_and_constants():
    alg = matrix_poisson_algebra(2, 1)
    f = alg.generator(0, 0, 1) * alg.generator(0, 1, 1)
    assert bracket(f, f, alg).is_zero
    c = PoissonPolynomial.constant(alg, 7)
    assert bracket(c, f, alg).is_zero


def test_bracket_algebra_mismatch():
    alg1 = matrix_poisson_algebra(2, 1)
    alg2 = matrix_poisson_algebra(2, 2)
    with pytest.raises(AlgebraMismatchError):
        bracket(alg1.generator(0, 0, 1), alg2.generator(1, 0, 1), alg1)


def test_bracket_leibniz_and_jacobi_random():
    rng = random.Random(110)
    alg = matrix_poisson_algebra(2, 2)
    for _ in range(30):
        f = rnd_poly(rng, alg)
        g = rnd_poly(rng, alg)
        h = rnd_poly(rng, alg)
        assert bracket(f * g, h, alg) == f * bracket(g, h, alg) + g * bracket(
            f, h, alg
        )
        jac = (
            bracket(f, bracket(g, h, alg), alg)
            + bracket(g, bracket(h, f, alg), alg)
            + bracket(h, bracket(f, g, alg), alg)
        )
        assert jac.is_zero


def rnd_rational_poly(rng, alg, max_terms=4, max_exp=3) -> PoissonPolynomial:
    """A constant plus up to max_terms monomials, each a product of up to
    three generator powers x^e with e <= max_exp (a generator drawn twice
    gets a higher exponent), with coefficients over varied denominators."""
    out = PoissonPolynomial.constant(alg, Fraction(rng.randint(-3, 3), rng.randint(1, 7)))
    for _ in range(rng.randint(1, max_terms)):
        term = PoissonPolynomial.constant(
            alg, Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 9))
        )
        for _ in range(rng.randint(1, 3)):
            g = rng.randrange(alg.gen_count)
            j = alg.site_of(g)
            p, q = alg.sites[j].entries[g - alg.offsets[j]]
            for _ in range(rng.randint(1, max_exp)):
                term = term * alg.generator(j, p, q)
        out = out + term
    return out


A2 = build_root_system("A", 2)


def oracle_algebras():
    """Full and Levi algebras with one to three sites."""
    full_a2 = wt(A2, 0, 0)
    block = wt(A2, Fraction(-1, 2), Fraction(1, 2))  # 2x2 block on {0, 2}
    torus = wt(A2, Fraction(1, 4), 0)
    return [
        matrix_poisson_algebra(2, 1),
        matrix_poisson_algebra(2, 3),
        matrix_poisson_algebra(3, 2),
        levi_poisson_algebra([block]),
        levi_poisson_algebra([full_a2, block]),
        levi_poisson_algebra([torus, block, full_a2]),
        levi_poisson_algebra([wt(A1, Fraction(1, 4)), wt(A1, 0)]),
    ]


def test_bracket_matches_reference_oracle():
    rng = random.Random(4242)
    nonzero = 0
    for alg in oracle_algebras():
        for _ in range(12):
            f = rnd_rational_poly(rng, alg)
            g = rnd_rational_poly(rng, alg)
            got = bracket(f, g, alg)
            want = reference_bracket(f, g, alg)
            assert got == want
            assert got.to_string() == want.to_string()
            nonzero += not got.is_zero
    assert nonzero >= 40  # most random pairs do not commute


def test_bracket_matches_reference_oracle_on_hamiltonians():
    rng = random.Random(17)
    f = rnd_field(rng, 3, 4)
    gd = gaudin_hamiltonians(f)
    alg = gd.algebra
    x = alg.generator(1, 0, 2)
    probes = list(gd.polynomials) + [x.scaled(Fraction(2, 3)) * x + x]
    for a in probes:
        for b in probes:
            assert bracket(a, b, alg) == reference_bracket(a, b, alg)


def test_site_of_agrees_with_offsets():
    for alg in oracle_algebras():
        for g in range(alg.gen_count):
            j = alg.site_of(g)
            assert alg.offsets[j] <= g < alg.offsets[j] + alg.sites[j].dim
        for bad in (-1, alg.gen_count, alg.gen_count + 5, -alg.gen_count):
            with pytest.raises(AlgebraMismatchError):
                alg.site_of(bad)


def test_bracket_rejects_foreign_generator():
    alg = matrix_poisson_algebra(2, 2)
    foreign = PoissonPolynomial(alg, ((((alg.gen_count, 1),), Fraction(1)),))
    x = alg.generator(0, 0, 1)
    with pytest.raises(AlgebraMismatchError):
        bracket(foreign, x, alg)
    with pytest.raises(AlgebraMismatchError):
        bracket(x, foreign, alg)
    negative = PoissonPolynomial(alg, ((((-1, 1),), Fraction(1)),))
    with pytest.raises(AlgebraMismatchError):
        bracket(x, negative, alg)


def test_mul_and_to_string_reject_foreign_generator():
    alg = matrix_poisson_algebra(2, 1)
    x = alg.generator(0, 1, 0)
    for bad in (-1, alg.gen_count):
        foreign = PoissonPolynomial(alg, ((((bad, 1),), Fraction(1)),))
        for a, b in ((foreign, x), (x, foreign), (foreign, foreign)):
            with pytest.raises(AlgebraMismatchError, match="foreign generator"):
                a * b
        with pytest.raises(AlgebraMismatchError, match="foreign generator"):
            foreign.to_string()
    other = matrix_poisson_algebra(2, 2).generator(1, 0, 1)
    with pytest.raises(AlgebraMismatchError):
        x * other
    assert (x * x).to_string() == "x0_10^2"


def test_mul_matches_reference_oracle():
    rng = random.Random(515)
    for alg in oracle_algebras():
        zero = PoissonPolynomial.zero(alg)
        pols = [zero, PoissonPolynomial.constant(alg, Fraction(-7, 6))]
        pols += [rnd_rational_poly(rng, alg, max_exp=4) for _ in range(5)]
        for f in pols:
            for g in pols:
                got = f * g
                want = reference_mul(f, g)
                assert got == want
                assert got.to_string() == want.to_string()
        assert (pols[2] * zero).is_zero and (zero * pols[3]).is_zero


def _top_exponent(pol) -> int:
    return max(e for mono, _ in pol.terms for _, e in mono)


def test_packed_width_edge_does_not_carry():
    """Exponents of exactly 2^width - 1, for the width the packing picks,
    stay in their generator's field in products and brackets."""
    alg = matrix_poisson_algebra(2, 2)
    x00, x01, x10, x11 = (alg.generator(0, p, q) for p in (0, 1) for q in (0, 1))
    y01 = alg.generator(1, 0, 1)
    half = Fraction(1, 2)

    def power(x, e):
        out = PoissonPolynomial.constant(alg, 1)
        for _ in range(e):
            out = reference_mul(out, x)
        return out

    for w in (1, 2, 3, 4):
        edge = 2**w - 1
        # product: deg f + deg g = edge, and x01^edge appears
        e1 = (edge + 1) // 2
        f = power(x01, e1) + x00.scaled(3) + PoissonPolynomial.constant(alg, 2)
        f = f + (reference_mul(x10, y01) if e1 >= 2 else x10)
        g = power(x01, edge - e1).scaled(half) + PoissonPolynomial.constant(alg, -1)
        if edge - e1 >= 2:
            g = g + reference_mul(x00, x10)
        assert poisson._width(poisson._degree(f) + poisson._degree(g)) == w
        for a, b in ((f, g), (g, f)):
            got = a * b
            want = reference_mul(a, b)
            assert got == want
            assert got.to_string() == want.to_string()
            assert _top_exponent(got) == edge
        # bracket: {x00 + x10 + 2, x01^edge + ...} holds -edge*x01^edge
        f = x00 + x10 + PoissonPolynomial.constant(alg, 2)
        g = power(x01, edge).scaled(Fraction(2, 3)) + y01
        g = g + (reference_mul(x11, x10) if edge >= 2 else x11)
        assert poisson._width(poisson._degree(f) + poisson._degree(g) - 1) == w
        for a, b in ((f, g), (g, f)):
            got = bracket(a, b, alg)
            want = reference_bracket(a, b, alg)
            assert got == want
            assert got.to_string() == want.to_string()
            assert _top_exponent(got) == edge
        # verify_involution packs at the common width _width(2D - 1)
        d = 2 ** (w - 1)
        hams = [reference_mul(x00, power(x01, d - 1)) + x10, power(x01, d) + x11]
        assert poisson._width(2 * d - 1) == w
        report = verify_involution(hams, alg)
        want = reference_bracket(hams[0], hams[1], alg)
        assert _top_exponent(want) == edge
        assert report.nonzero_pairs == ((0, 1, want.to_string()),)


def test_packed_constant_operands():
    alg = matrix_poisson_algebra(2, 2)
    c = PoissonPolynomial.constant(alg, Fraction(5, 3))
    d = PoissonPolynomial.constant(alg, -2)
    x = alg.generator(1, 1, 0)
    big = x
    for _ in range(6):
        big = reference_mul(big, x)
    for a, b in ((c, d), (c, big), (big, d), (c, c)):
        assert a * b == reference_mul(a, b)
        assert (a * b).to_string() == reference_mul(a, b).to_string()
        assert bracket(a, b, alg).is_zero
    assert (c * d).terms == (((), Fraction(-10, 3)),)
    report = verify_involution([c, big, d], alg)
    assert report.pair_count == 3 and report.all_commute


def test_verify_involution_checks_each_hamiltonian():
    alg = matrix_poisson_algebra(2, 2)
    other = matrix_poisson_algebra(2, 3)
    x = alg.generator(0, 0, 1)
    foreign = PoissonPolynomial(alg, ((((alg.gen_count, 1),), Fraction(1)),))
    for hams in ([x, other.generator(2, 0, 1)], [other.generator(0, 0, 1)]):
        with pytest.raises(AlgebraMismatchError):
            verify_involution(hams, alg)
    for hams in ([x, foreign], [foreign, x], [foreign]):
        with pytest.raises(AlgebraMismatchError, match="foreign generator"):
            verify_involution(hams, alg)
    assert verify_involution([], alg).pair_count == 0
    assert verify_involution([], alg).all_commute
    assert verify_involution([x], alg).pair_count == 0


def test_evaluate_and_partial():
    alg = matrix_poisson_algebra(2, 1)
    x01 = alg.generator(0, 0, 1)
    x10 = alg.generator(0, 1, 0)
    f = x01 * x10 + x01.scaled(3)
    m = [[Fraction(0), Fraction(2)], [Fraction(5), Fraction(0)]]
    assert f.evaluate([m]) == 10 + 6
    assert partial(f, x01.variables()[0]) == x10 + PoissonPolynomial.constant(alg, 3)


# -- Casimirs -----------------------------------------------------------------


def test_quadratic_casimir_commutes_with_generators():
    alg = matrix_poisson_algebra(2, 2)
    for j in range(2):
        cas = site_casimir(alg, j)
        for g in range(alg.gen_count):
            site = alg.site_of(g)
            p, q = alg.sites[site].entries[g - alg.offsets[site]]
            assert bracket(cas, alg.generator(site, p, q), alg).is_zero


def test_invariant_polynomials_are_casimirs():
    alg = matrix_poisson_algebra(3, 1)
    invs = site_invariant_polynomials(alg, 0)
    assert len(invs) == 3
    for inv in invs:
        for g in range(alg.gen_count):
            p, q = alg.sites[0].entries[g]
            assert bracket(inv, alg.generator(0, p, q), alg).is_zero


def test_invariant_polynomials_evaluate_to_matrix_invariants():
    rng = random.Random(111)
    alg = matrix_poisson_algebra(3, 1)
    invs = site_invariant_polynomials(alg, 0)
    for _ in range(10):
        m = rnd_matrix(rng, 3)
        vals = linalgq.invariant_values(m)
        for i, inv in enumerate(invs):
            assert inv.evaluate([m]) == vals[i]


def test_casimirs_commute_with_gaudin_hamiltonians():
    f = build_field(
        [0, 1, 2], [E2, F2, [[0, -1], [-1, 0]]], SL2
    )
    data = gaudin_hamiltonians(f)
    alg = data.algebra
    for j in range(3):
        cas = site_casimir(alg, j)
        for ham in data.polynomials:
            assert bracket(cas, ham, alg).is_zero


# -- Gaudin and Hitchin Hamiltonians -------------------------------------------


def test_gaudin_polynomials_evaluate_to_values():
    rng = random.Random(112)
    for _ in range(5):
        f = rnd_field(rng, 2, 3)
        data = gaudin_hamiltonians(f)
        for j in range(3):
            assert data.polynomials[j].evaluate(list(f.residues)) == data.values[j]


def test_gaudin_polynomials_match_generator_products():
    """H_j = sum over k != j, p, q of x_j[p][q] x_k[q][p] / (x_j - x_k),
    summed as polynomials term by term."""
    rng = random.Random(113)
    for n, s in [(2, 3), (3, 4), (4, 2)]:
        f = rnd_field(rng, n, s)
        data = gaudin_hamiltonians(f)
        alg = data.algebra
        for j in range(s):
            ham = PoissonPolynomial.zero(alg)
            for k in range(s):
                if k == j:
                    continue
                c = 1 / (f.points[j] - f.points[k])
                for p in range(n):
                    for q in range(n):
                        term = alg.generator(j, p, q) * alg.generator(k, q, p)
                        ham = ham + term.scaled(c)
            assert data.polynomials[j].terms == ham.terms


def test_gaudin_involution():
    f = build_field([0, 1, 2], [E2, F2, [[0, -1], [-1, 0]]], SL2)
    data = gaudin_hamiltonians(f)
    report = verify_involution(data.polynomials, data.algebra)
    assert report.pair_count == 3
    assert report.all_commute
    d = report.to_json_dict()
    assert d["all_commute"] is True
    assert d["nonzero_pairs"] == []


def test_involution_report_flags_noncommuting_pair():
    alg = matrix_poisson_algebra(2, 1)
    report = verify_involution(
        [alg.generator(0, 0, 0), alg.generator(0, 0, 1)], alg
    )
    assert report.pair_count == 1
    assert not report.all_commute
    i, j, text = report.nonzero_pairs[0]
    assert (i, j) == (0, 1)
    assert text != "0"


def test_hitchin_coefficient_hamiltonians_commute():
    alg, hams = hitchin_coefficient_hamiltonians([0, 1, 2], 2, "SL")
    assert len(hams) == 5
    report = verify_involution(hams, alg)
    assert report.pair_count == 10
    assert report.all_commute


def test_hitchin_coefficient_hamiltonians_match_field_sections():
    """Symbolic z-coefficients specialize to the numeric Hitchin sections."""
    rng = random.Random(113)
    from logahoric.higgs import hitchin_map

    for n, s, form in [(2, 3, "SL")] * 5 + [(3, 3, "SL"), (2, 4, "SL"), (3, 4, "GL")]:
        f = rnd_field(rng, n, s, form=form, sum_zero=False)
        alg, hams = hitchin_coefficient_hamiltonians(f.points, n, form)
        image = hitchin_map(f)
        padded = []
        for i, section in zip(image.degrees, image.sections):
            padded += list(section) + [Fraction(0)] * (i * (s - 1) + 1 - len(section))
        values = [h.evaluate(list(f.residues)) for h in hams]
        assert values == padded


def test_hitchin_coefficient_hamiltonians_rejects_bad_form():
    with pytest.raises(ShapeError):
        hitchin_coefficient_hamiltonians([0, 1], 2, "XX")


# -- moment map ---------------------------------------------------------------


def test_moment_map_without_weights_is_identity():
    rng = random.Random(114)
    f = rnd_field(rng, 2, 3)
    m = moment_map(f)
    assert all(
        linalgq.mat_eq(site, res) for site, res in zip(m.sites, f.residues)
    )


def test_moment_map_zero_weight_keeps_full_matrix():
    f = build_field([0], [[[1, 2], [3, -1]]], SL2, theta_data=[wt(A1, 0)])
    m = moment_map(f)
    assert linalgq.mat_eq(m.sites[0], f.residues[0])


def test_moment_map_iwahori_projection():
    """h + e is in the Iwahori stalk and its coresidue is the diagonal part."""
    iwa = wt(A1, Fraction(1, 4))
    f = build_field([0], [[[1, 1], [0, -1]]], SL2, theta_data=[iwa])
    m = moment_map(f)
    assert linalgq.mat_eq(m.sites[0], H2)


def test_moment_map_rejects_inadmissible_residue():
    iwa = wt(A1, Fraction(1, 4))
    f = build_field([0], [F2], SL2, theta_data=[iwa])
    with pytest.raises(FiltrationError, match="jump"):
        moment_map(f)


def test_moment_map_shape_errors():
    rng = random.Random(115)
    f = rnd_field(rng, 2, 2)
    with pytest.raises(ShapeError):
        moment_map(f, data=[wt(A1, 0)])
    b2 = build_root_system("B", 2)
    with pytest.raises(ShapeError):
        moment_map(f, data=[wt(b2, 0, 0), None])


def test_moment_map_explicit_data_overrides():
    iwa = wt(A1, Fraction(1, 4))
    f = build_field([0, 1], [E2, [[0, -1], [0, 0]]], SL2)
    m = moment_map(f, data=[iwa, None])
    assert linalgq.is_zero_matrix(m.sites[0])
    assert linalgq.mat_eq(m.sites[1], f.residues[1])


# -- coadjoint action ---------------------------------------------------------


def test_coadjoint_identity_and_conjugation():
    m = MomentValue(sites=(H2,))
    out = coadjoint_act([linalgq.identity(2)], m)
    assert linalgq.mat_eq(out.sites[0], H2)
    u = [[Fraction(1), Fraction(3)], [Fraction(0), Fraction(1)]]
    out = coadjoint_act([u], MomentValue(sites=(E2,)))
    assert linalgq.mat_eq(out.sites[0], E2)


def test_coadjoint_respects_block_constraint():
    iwa = wt(A1, Fraction(1, 4))
    m = MomentValue(sites=(H2,), data=(iwa,))
    g = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    out = coadjoint_act([g], m)
    assert linalgq.mat_eq(out.sites[0], H2)
    bad = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    with pytest.raises(GroupError, match="block"):
        coadjoint_act([bad], m)


def test_coadjoint_rejects_singular():
    m = MomentValue(sites=(H2,))
    g = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(GroupError, match="singular"):
        coadjoint_act([g], m)


def test_coadjoint_is_group_action():
    rng = random.Random(116)
    for _ in range(10):
        x = rnd_matrix(rng, 3)
        g1 = rnd_invertible(rng, 3)
        g2 = rnd_invertible(rng, 3)
        m = MomentValue(sites=(x,))
        once = coadjoint_act([linalgq.mat_mul(g1, g2)], m)
        twice = coadjoint_act([g1], coadjoint_act([g2], m))
        assert linalgq.mat_eq(once.sites[0], twice.sites[0])


# -- infinitesimal action ------------------------------------------------------


def test_infinitesimal_action_basic():
    f = build_field([0, 1], [E2, [[0, -1], [0, 0]]], SL2)
    varied = infinitesimal_action([H2, linalgq.zeros(2)], f)
    assert linalgq.mat_eq(varied.residues[0], linalgq.mat_scale(E2, Fraction(2)))
    assert linalgq.is_zero_matrix(varied.residues[1])
    assert not varied.regular_at_infinity


def test_infinitesimal_action_respects_block_constraint():
    iwa = wt(A1, Fraction(1, 4))
    f = build_field([0], [H2], SL2, theta_data=[iwa])
    infinitesimal_action([H2], f)
    with pytest.raises(FiltrationError):
        infinitesimal_action([E2], f)


def test_infinitesimal_action_matches_symbolic_bracket():
    """Route one: matrix commutator.  Route two: Lie-Poisson bracket of the
    linear Hamiltonian tr(Y M) against each coordinate, evaluated at the
    residues.  The two differ by the fixed orientation sign only."""
    rng = random.Random(117)
    alg = matrix_poisson_algebra(2, 1)
    for _ in range(10):
        y = rnd_matrix(rng, 2)
        x = rnd_matrix(rng, 2)
        h_y = PoissonPolynomial.zero(alg)
        for p in range(2):
            for q in range(2):
                if y[p][q]:
                    h_y = h_y + alg.generator(0, q, p).scaled(y[p][q])
        comm = linalgq.commutator(y, x)
        for a in range(2):
            for b in range(2):
                flow = bracket(h_y, alg.generator(0, a, b), alg)
                assert flow.evaluate([x]) == -comm[a][b]


def test_infinitesimal_action_is_exp_derivative():
    """First-order term of conjugation by exp(t y) for 2x2 nilpotent y: the
    error after removing t [y, x] is exactly quadratic, so one Richardson
    step recovers the commutator with no truncation slack."""
    rng = random.Random(118)
    for _ in range(10):
        y = strictly_upper(rng, 2)
        x = rnd_matrix(rng, 2)
        f = build_field([0], [x], GroupTag("A", 1, "GL"))
        varied = infinitesimal_action([y], f).residues[0]

        def diff_quotient(t: Fraction):
            g = nilpotent_exp(linalgq.mat_scale(y, t))
            conj = linalgq.mat_mul(linalgq.mat_mul(g, x), linalgq.inverse(g))
            return linalgq.mat_scale(linalgq.mat_sub(conj, x), 1 / t)

        d1 = diff_quotient(Fraction(1, 100))
        d2 = diff_quotient(Fraction(1, 200))
        extrap = linalgq.mat_sub(linalgq.mat_scale(d2, Fraction(2)), d1)
        assert linalgq.mat_eq(extrap, varied)


def test_nilpotent_exp():
    rng = random.Random(119)
    y = strictly_upper(rng, 3)
    ours = nilpotent_exp(y)
    theirs = matrix_to_sympy(y).exp()
    assert matrix_to_sympy(ours) == theirs
    with pytest.raises(GroupError):
        nilpotent_exp(H2)


# -- bivector rank and leaves --------------------------------------------------


def test_bivector_rank_examples():
    assert bivector_rank_at(MomentValue(sites=(H2,))) == 2
    assert bivector_rank_at(MomentValue(sites=(linalgq.zeros(2),))) == 0
    assert bivector_rank_at(MomentValue(sites=(H2, E2, F2))) == 6


def test_bivector_rank_is_even():
    rng = random.Random(120)
    for _ in range(25):
        n = rng.randint(2, 3)
        s = rng.randint(1, 2)
        m = MomentValue(sites=tuple(rnd_matrix(rng, n) for _ in range(s)))
        assert bivector_rank_at(m) % 2 == 0


def _bivector_points(rng, alg):
    """Random and degenerate points (zero, scalar, nilpotent, rank one) with
    one matrix per site of alg."""
    sizes = [site.matrix_size for site in alg.sites]
    yield MomentValue(sites=tuple(rnd_matrix(rng, n) for n in sizes))
    yield MomentValue(sites=tuple(linalgq.zeros(n) for n in sizes))
    yield MomentValue(
        sites=tuple(linalgq.mat_scale(linalgq.identity(n), 3) for n in sizes)
    )
    yield MomentValue(sites=tuple(strictly_upper(rng, n) for n in sizes))
    rank_one = []
    for n in sizes:
        u = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        rank_one.append([[a * b for b in v] for a in u])
    yield MomentValue(sites=tuple(rank_one))


def test_bivector_rank_blocks_match_full_matrix():
    """The per-site block ranks sum to the rank of the whole bivector."""
    rng = random.Random(123)
    ranks = set()
    for alg in oracle_algebras() + [matrix_poisson_algebra(4, 2)]:
        for xi in _bivector_points(rng, alg):
            got = bivector_rank_at(xi, alg)
            assert got == reference_bivector_rank(xi, alg)
            assert leaf_invariants(xi, alg).bivector_rank == got
            ranks.add(got)
    assert len(ranks) >= 5


def test_bivector_rank_rejects_mismatched_algebra():
    xi = MomentValue(sites=(H2, H2))
    assert bivector_rank_at(xi, matrix_poisson_algebra(2, 2)) == 4
    # One site too few, and the right site count with the wrong matrix size.
    for alg in (matrix_poisson_algebra(2, 1), matrix_poisson_algebra(3, 2)):
        with pytest.raises(AlgebraMismatchError):
            bivector_rank_at(xi, alg)
        with pytest.raises(AlgebraMismatchError):
            leaf_invariants(xi, alg)
    with pytest.raises(AlgebraMismatchError):
        bivector_rank_at(xi, levi_poisson_algebra([wt(A1, 0), wt(A2, 0, 0)]))


def test_leaf_invariants_examples():
    leaf = leaf_invariants(MomentValue(sites=(H2,)))
    assert leaf.site_invariants == ((Fraction(0), Fraction(-1)),)
    assert leaf.bivector_rank == 2
    leaf_e = leaf_invariants(MomentValue(sites=(E2,)))
    assert leaf_e.site_invariants == ((Fraction(0), Fraction(0)),)
    assert leaf_e.bivector_rank == 2
    leaf_0 = leaf_invariants(MomentValue(sites=(linalgq.zeros(2),)))
    assert leaf_0.bivector_rank == 0
    d = leaf.to_json_dict()
    assert d["site_invariants"] == [["0", "-1"]]
    assert d["bivector_rank"] == 2


def test_leaf_invariants_constant_along_conjugation():
    rng = random.Random(121)
    for _ in range(10):
        x = rnd_matrix(rng, 3)
        m = MomentValue(sites=(x,))
        before = leaf_invariants(m)
        g = rnd_invertible(rng, 3)
        after = leaf_invariants(coadjoint_act([g], m))
        assert before == after


# -- quotient diagram ----------------------------------------------------------


def test_quotient_diagram_frozen_example():
    f = build_field(
        [0, 1, 2], [H2, E2, [[-1, -1], [0, 1]]], SL2
    )
    report = quotient_diagram_check(f)
    assert report.all_equal
    routes = tuple(row.residue_route for row in report.rows)
    assert routes == (Fraction(-1), Fraction(0), Fraction(-1))
    d = report.to_json_dict()
    assert d["all_equal"] is True
    assert len(d["rows"]) == 3


def test_quotient_diagram_zero_field():
    f = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    report = quotient_diagram_check(f)
    assert report.all_equal
    assert all(row.residue_route == 0 for row in report.rows)


def test_quotient_diagram_with_weights():
    iwa = wt(A1, Fraction(1, 4))
    f = build_field(
        [0, 1],
        [[[1, 1], [0, -1]], [[-1, -1], [0, 1]]],
        SL2,
        theta_data=[iwa, iwa],
    )
    report = quotient_diagram_check(f)
    assert report.all_equal
    assert [row.degree for row in report.rows] == [2, 2]


def test_quotient_diagram_rows_match_residue_of_invariant():
    """Every row's residue route equals residue_of_invariant(f, j, i), on SL,
    GL and weighted fields (weights change only the moment route)."""
    rng = random.Random(123)
    fields = [rnd_field(rng, n, s) for n, s in ((2, 3), (3, 4), (4, 3))]
    fields += [
        rnd_field(rng, n, s, form="GL", sum_zero=sz)
        for n, s, sz in ((2, 4, True), (3, 3, False), (4, 2, False))
    ]
    # Upper triangular residues are admissible for theta = (1/4, ..., 1/4),
    # whose weight diagonal strictly decreases.
    for n, s in ((2, 3), (3, 4)):
        rs = build_root_system("A", n - 1)
        datum = wt(rs, *([Fraction(1, 4)] * (n - 1)))
        ups = []
        for _ in range(s - 1):
            m = strictly_upper(rng, n)
            for p in range(n - 1):
                m[p][p] = Fraction(rng.randint(-2, 2))
            m[n - 1][n - 1] = -sum(m[p][p] for p in range(n - 1))
            ups.append(m)
        f = build_field(
            range(s), with_sum_zero(ups), GroupTag("A", n - 1, "SL"),
            theta_data=[datum] * (s - 1) + [wt(rs, *([0] * (n - 1)))],
        )
        fields.append(f)
    for f in fields:
        report = quotient_diagram_check(f)
        assert report.all_equal
        degrees = invariant_degrees(f)
        assert [(r.point, r.degree) for r in report.rows] == [
            (j, i) for j in range(f.site_count) for i in degrees
        ]
        for row in report.rows:
            assert row.residue_route == residue_of_invariant(f, row.point, row.degree)


def test_nilpotent_vanishing_check():
    rng = random.Random(122)
    assert nilpotent_vanishing_check(strictly_upper(rng, 3))
    assert not nilpotent_vanishing_check(H2)
    u = rnd_invertible(rng, 3)
    x = linalgq.mat_mul(
        linalgq.mat_mul(u, strictly_upper(rng, 3)), linalgq.inverse(u)
    )
    assert nilpotent_vanishing_check(x)


# Run under python -O, where a bare assert would be stripped; a vanishing
# invariant is faked so that only a real check can raise.
OPTIMIZED_NILPOTENT_CHECK = """
import sys
from fractions import Fraction
from logahoric import linalgq, poisson
from logahoric.errors import ConstraintError
if __debug__:
    sys.exit(4)
linalgq.invariant_values = lambda m: [Fraction(1)] * len(m)
try:
    poisson.nilpotent_vanishing_check([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
except ConstraintError:
    sys.exit(0)
sys.exit(3)
"""


def test_nilpotent_vanishing_check_survives_optimize():
    # A child process, because -O would strip this test's own asserts too.
    src = os.path.dirname(os.path.dirname(poisson.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_NILPOTENT_CHECK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
