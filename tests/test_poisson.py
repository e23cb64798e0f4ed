import dataclasses
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate, product
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logahoric import linalgq, poisson
from logahoric.errors import (
    AlgebraMismatchError,
    DivisorError,
    FiltrationError,
    GroupError,
    ShapeError,
)
from logahoric.higgs import (
    build_field,
    gaudin_hamiltonians,
    gaudin_values,
    invariant_degrees,
    quotient_diagram_check,
    residue_of_invariant,
)
from logahoric.parahoric import analyze_weight
from logahoric.poisson import (
    LiePoissonAlgebra,
    MomentValue,
    PoissonPolynomial,
    bivector_rank_at,
    bracket,
    coadjoint_act,
    hitchin_coefficient_hamiltonians,
    leaf_invariants,
    moment_map,
    nilpotent_vanishing_check,
    site_casimir,
    verify_involution,
)
from logahoric.rootsys import GroupTag, RationalCocharacter, build_root_system, entry_to_root, pair
from support import (
    E2,
    F2,
    H2,
    commutator_constants,
    entry_of,
    evaluate,
    liouville_counts,
    levi_site,
    mat_eq,
    mat_scale,
    matrix_to_sympy,
    nilpotent_exp,
    partial,
    reference_bivector_rank,
    reference_bracket,
    reference_hitchin_hamiltonians,
    rnd_field,
    rnd_invertible,
    rnd_matrix,
    rnd_points,
    site_block_rank,
    site_invariant_polynomials,
    strictly_upper,
    variables,
    with_sum_zero,
)

SL2 = GroupTag("A", 1, "SL")
A1 = build_root_system("A", 1)


def wt(*coeffs) -> RationalCocharacter:
    return RationalCocharacter.of([Fraction(c) for c in coeffs])


def rnd_poly(rng, alg, max_terms=3) -> PoissonPolynomial:
    out = PoissonPolynomial.constant(alg, Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(1, max_terms)):
        term = PoissonPolynomial.constant(alg, Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 2)):
            j, p, q = entry_of(alg, rng.randrange(alg.gen_count))
            term = term * alg.generator(j, p, q)
        out = out + term
    return out


# -- algebra shapes -----------------------------------------------------------


def test_algebra_dimensions():
    full = LiePoissonAlgebra(2, 3)
    assert full.gen_count == 12


def test_generator_lookup_errors():
    full = LiePoissonAlgebra(2, 3)
    assert full.generator_index(2, 0, 1) == 9
    for j in (-1, -3, 3, 7):
        with pytest.raises(AlgebraMismatchError, match=f"site {j} out of range"):
            full.generator_index(j, 0, 1)
        with pytest.raises(AlgebraMismatchError):
            full.generator(j, 0, 1)
    for p, q in ((2, 0), (0, 2), (-1, 0), (0, -1), (2, 2)):
        message = f"site 1 has no generator at entry ({p}, {q})"
        with pytest.raises(AlgebraMismatchError, match=re.escape(message)):
            full.generator_index(1, p, q)


def test_generator_index_is_row_major_by_site():
    """Generators run over the sites in order and over each site's entries
    row by row, the documented (j*n + p)*n + q, which entry_of inverts."""
    for n, s in ((1, 3), (2, 3), (3, 2), (4, 1)):
        alg = LiePoissonAlgebra(n, s)
        order = [alg.generator_index(j, p, q) for j in range(s) for p, q in poisson.full_site(n)]
        assert order == list(range(alg.gen_count)) and alg.gen_count == n * n * s
        assert [entry_of(alg, g) for g in order] == [
            (j, p, q) for j in range(s) for p in range(n) for q in range(n)
        ]


def test_site_functions_refuse_a_site_out_of_range():
    """site_casimir and site_invariant_polynomials take a site in
    0..site_count-1 and refuse any other, negative ones included, with
    AlgebraMismatchError."""
    alg = LiePoissonAlgebra(2, 2)
    for fn in (site_casimir, site_invariant_polynomials):
        for j in (2, -1, -3):
            with pytest.raises(AlgebraMismatchError, match=f"site {j} out of range"):
                fn(alg, j)


# -- every site shape ----------------------------------------------------------


def set_partitions(items):
    """Every set partition of the list items, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def site_shapes():
    """(n, entries) of the block subalgebra of every set partition of
    {0..n-1}, n = 1..5, entries in row-major order: every entry set the
    t_p == t_q rule can cut out, the one-block partitions being the full
    sites."""
    shapes = []
    for n in range(1, 6):
        for blocks in set_partitions(list(range(n))):
            label = {p: i for i, block in enumerate(blocks) for p in block}
            shapes.append(
                (n, tuple((p, q) for p in range(n) for q in range(n) if label[p] == label[q]))
            )
    return shapes


def jacobi_defect(constants, a, b, c):
    """The non-zero coefficients of {{x_a, x_b}, x_c} + cyclic, over the
    local structure constants {(a, b): {d: C_ab^d}}."""
    total = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for d, k in constants.get((x, y), {}).items():
            for e, k2 in constants.get((d, z), {}).items():
                total[e] = total.get(e, 0) + k * k2
    return {e: v for e, v in total.items() if v}


def test_every_site_shape_matches_matrix_commutators():
    """The structure constants of matrix commutators are closed on the entry
    set of every block shape, antisymmetric and satisfy the Jacobi identity;
    the closure is what bivector_rank_at's split into weight classes rests
    on.  On the full sites gl_n, n = 1..5, the bracket rule on each
    generator pair equals them."""
    shapes = site_shapes()
    assert len(shapes) == len(set(shapes)) == 75
    for n in range(1, 6):
        assert (n, poisson.full_site(n)) in shapes
    levi_shapes = set()
    for rs, coeffs in [
        (A2, (0, 0)),
        (A2, (Fraction(-1, 2), Fraction(1, 2))),
        (A2, (Fraction(1, 4), 0)),
        (build_root_system("A", 3), (Fraction(1, 2), 0, Fraction(1, 2))),
        (build_root_system("A", 3), (Fraction(1, 5),) * 3),
        (build_root_system("A", 4), (0, Fraction(1, 2), 0, 0)),
        (build_root_system("A", 4), (Fraction(1, 3), 0, 0, Fraction(1, 3))),
    ]:
        levi_shapes.add((rs.rank + 1, levi_site(wt(*coeffs))))
    assert len(levi_shapes) == 7 and levi_shapes <= set(shapes)
    for n, entries in shapes:
        present = set(entries)
        for p, q in entries:
            for r, s in entries:
                assert p != s or (r, q) in present
                assert q != r or (p, s) in present
        constants = commutator_constants(n, entries)
        assert all(set(row) <= present for row in constants.values())
        local = {
            ab: {entries.index(e): k for e, k in row.items()}
            for ab, row in constants.items()
        }
        dim = len(entries)
        for a in range(dim):
            for b in range(dim):
                row = local.get((a, b), {})
                assert {c: -k for c, k in row.items()} == local.get((b, a), {})
        if entries == poisson.full_site(n):
            alg = LiePoissonAlgebra(n, 1)
            gens = [alg.generator(0, p, q) for p, q in entries]
            for a, x in enumerate(gens):
                for b, y in enumerate(gens):
                    want = PoissonPolynomial._from_dict(
                        alg, {((c, 1),): Fraction(k) for c, k in local.get((a, b), {}).items()}
                    )
                    assert bracket(x, y, alg) == want
        # With antisymmetry the Jacobi sum alternates in (a, b, c), so the
        # triples a < b < c cover every triple.
        for a in range(dim):
            for b in range(a + 1, dim):
                for c in range(b + 1, dim):
                    assert not jacobi_defect(local, a, b, c)


# -- bracket ------------------------------------------------------------------


def test_bracket_sl2_relation():
    """{x00 - x11, x10} doubles x10, the h-e relation in entry coordinates."""
    alg = LiePoissonAlgebra(2, 1)
    h = alg.generator(0, 0, 0) - alg.generator(0, 1, 1)
    x10 = alg.generator(0, 1, 0)
    assert bracket(h, x10, alg) == x10.scaled(2)
    assert bracket(x10, h, alg) == x10.scaled(-2)


def test_bracket_cross_site_vanishes():
    alg = LiePoissonAlgebra(2, 2)
    a = alg.generator(0, 0, 1)
    b = alg.generator(1, 1, 0)
    assert bracket(a, b, alg).is_zero


def test_bracket_antisymmetry_and_constants():
    alg = LiePoissonAlgebra(2, 1)
    f = alg.generator(0, 0, 1) * alg.generator(0, 1, 1)
    assert bracket(f, f, alg).is_zero
    c = PoissonPolynomial.constant(alg, 7)
    assert bracket(c, f, alg).is_zero


def test_bracket_algebra_mismatch():
    alg1 = LiePoissonAlgebra(2, 1)
    alg2 = LiePoissonAlgebra(2, 2)
    with pytest.raises(AlgebraMismatchError):
        bracket(alg1.generator(0, 0, 1), alg2.generator(1, 0, 1), alg1)


def test_bracket_leibniz_and_jacobi_random():
    rng = random.Random(110)
    alg = LiePoissonAlgebra(2, 2)
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
            j, p, q = entry_of(alg, rng.randrange(alg.gen_count))
            for _ in range(rng.randint(1, max_exp)):
                term = term * alg.generator(j, p, q)
        out = out + term
    return out


A2 = build_root_system("A", 2)


def oracle_algebras():
    """Products of one to three full matrix sites, n = 1..4."""
    shapes = ((2, 1), (2, 3), (3, 2), (1, 2), (3, 1), (2, 2), (4, 1))
    return [LiePoissonAlgebra(n, s) for n, s in shapes]


def bivector_shapes():
    """(site sizes, weights) of points for the bivector rank: full sites
    (data None), and Levi sites, one weight theta per site, whose Levi block
    is the site."""
    full_a2 = wt(0, 0)
    block = wt(Fraction(-1, 2), Fraction(1, 2))  # 2x2 block on {0, 2}
    torus = wt(Fraction(1, 4), 0)
    ties = (wt(Fraction(1, 4), 0, Fraction(1, 4)),)
    full = [[2], [2, 2, 2], [3, 3]]
    levi = [
        (block,),
        (full_a2, block),
        (torus, block, full_a2),
        (wt(Fraction(1, 4)), wt(0)),
    ]
    return (
        [(sizes, None) for sizes in full]
        + [([len(theta.coeffs) + 1 for theta in data], data) for data in levi]
        + [([4, 4], None), ([4], ties)]  # ties: classes {0, 2} and {1, 3}
    )


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
    alg, hams = gaudin_hamiltonians(f)
    x = alg.generator(1, 0, 2)
    probes = list(hams) + [x.scaled(Fraction(2, 3)) * x + x]
    for a in probes:
        for b in probes:
            assert bracket(a, b, alg) == reference_bracket(a, b, alg)


def test_bracket_rejects_foreign_generator():
    alg = LiePoissonAlgebra(2, 2)
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
    alg = LiePoissonAlgebra(2, 1)
    x = alg.generator(0, 1, 0)
    for bad in (-1, alg.gen_count):
        foreign = PoissonPolynomial(alg, ((((bad, 1),), Fraction(1)),))
        for a, b in ((foreign, x), (x, foreign), (foreign, foreign)):
            with pytest.raises(AlgebraMismatchError, match="foreign generator"):
                a * b
        with pytest.raises(AlgebraMismatchError, match="foreign generator"):
            foreign.to_string()
    other = LiePoissonAlgebra(2, 2).generator(1, 0, 1)
    with pytest.raises(AlgebraMismatchError):
        x * other
    assert (x * x).to_string() == "x0_10^2"
    assert x * 2 == 2 * x == x.scaled(2)
    assert PoissonPolynomial.constant(alg, Fraction(-3, 2)).to_string() == "-3/2"


def test_add_and_sub_reject_foreign_generator():
    alg = LiePoissonAlgebra(2, 1)
    x = alg.generator(0, 1, 0)
    for bad in (-1, alg.gen_count):
        foreign = PoissonPolynomial(alg, ((((bad, 1),), Fraction(1)),))
        for a, b in ((foreign, x), (x, foreign)):
            with pytest.raises(AlgebraMismatchError, match="foreign generator"):
                a + b
            with pytest.raises(AlgebraMismatchError, match="foreign generator"):
                a - b
    assert (x - x).is_zero


def test_mul_matches_reference_oracle():
    """At seeded rational points, f * g evaluates to the product of the values
    of f and g, and comes in the canonical form: terms sorted, no zero
    coefficient, each monomial's generators ascending with positive
    exponents."""
    rng = random.Random(515)
    for alg in oracle_algebras():
        n = alg.matrix_size
        zero = PoissonPolynomial.zero(alg)
        pols = [zero, PoissonPolynomial.constant(alg, Fraction(-7, 6))]
        pols += [rnd_rational_poly(rng, alg, max_exp=4) for _ in range(5)]
        points = [[rnd_matrix(rng, n) for _ in range(alg.site_count)] for _ in range(3)]
        for f in pols:
            for g in pols:
                got = f * g
                for point in points:
                    assert evaluate(got, point) == evaluate(f, point) * evaluate(g, point)
                assert list(got.terms) == sorted(got.terms)
                assert all(c for _, c in got.terms)
                for mono, _ in got.terms:
                    gens = [gen for gen, _ in mono]
                    assert gens == sorted(set(gens)) and all(e > 0 for _, e in mono)
        assert (pols[2] * zero).is_zero and (zero * pols[3]).is_zero


def _top_exponent(pol) -> int:
    return max(e for mono, _ in pol.terms for _, e in mono)


def test_primes_match_sympy():
    """_primes(count) is the first count primes, for every count 0..3000."""
    primes = list(sympy.primerange(sympy.prime(3000) + 1))
    for count in range(3001):
        assert poisson._primes(count) == primes[:count]


def test_prime_keys_keep_high_exponents_and_top_generators():
    """Monomial keys are products of generator primes: exponents up to 15,
    and monomials in the top generators of LiePoissonAlgebra(10, 20), whose
    keys pass 2^64, come back exactly in brackets and in verify_involution."""
    alg = LiePoissonAlgebra(2, 2)
    x00, x01, x10, x11 = (alg.generator(0, p, q) for p in (0, 1) for q in (0, 1))
    y01 = alg.generator(1, 0, 1)

    def power(x, e):
        out = PoissonPolynomial.constant(x.algebra, 1)
        for _ in range(e):
            out = out * x
        return out

    for w in (1, 2, 3, 4):
        edge = 2**w - 1
        # bracket: {x00 + x10 + 2, x01^edge + ...} holds -edge*x01^edge
        f = x00 + x10 + PoissonPolynomial.constant(alg, 2)
        g = power(x01, edge).scaled(Fraction(2, 3)) + y01
        g = g + (x11 * x10 if edge >= 2 else x11)
        for a, b in ((f, g), (g, f)):
            got = bracket(a, b, alg)
            want = reference_bracket(a, b, alg)
            assert got == want
            assert got.to_string() == want.to_string()
            assert _top_exponent(got) == edge
        d = 2 ** (w - 1)
        hams = [x00 * power(x01, d - 1) + x10, power(x01, d) + x11]
        report = verify_involution(hams, alg)
        want = reference_bracket(hams[0], hams[1], alg)
        assert _top_exponent(want) == edge
        assert report.nonzero_pairs == ((0, 1, want.to_string()),)

    big = LiePoissonAlgebra(10, 20)
    primes = poisson._primes(big.gen_count)
    z = big.generator
    f = power(z(19, 9, 8), 3) * z(19, 8, 9) + z(19, 9, 9).scaled(Fraction(5, 7)) + z(18, 9, 9)
    g = power(z(19, 8, 9), 2) * power(z(19, 9, 9), 2) + z(19, 8, 8) * z(19, 9, 8)
    got = bracket(f, g, big)
    want = reference_bracket(f, g, big)
    assert got == want and not got.is_zero
    assert got.to_string() == want.to_string()
    keys = [prod(primes[gen] ** e for gen, e in mono) for mono, _ in got.terms]
    assert max(keys) > 2**64
    hams = [f, g, z(19, 9, 9) * z(19, 9, 8), power(z(19, 8, 9), 4)]
    assert verify_involution(hams, big).nonzero_pairs == pairwise_involution(hams, big)


def test_packed_constant_operands():
    alg = LiePoissonAlgebra(2, 2)
    c = PoissonPolynomial.constant(alg, Fraction(5, 3))
    d = PoissonPolynomial.constant(alg, -2)
    x = alg.generator(1, 1, 0)
    g = alg.generator_index(1, 1, 0)
    big = x
    for _ in range(6):
        big = big * x
    assert big.terms == ((((g, 7),), Fraction(1)),)
    assert (c * d).terms == (((), Fraction(-10, 3)),)
    assert (c * big).terms == (big * c).terms == ((((g, 7),), Fraction(5, 3)),)
    assert (big * d).terms == ((((g, 7),), Fraction(-2)),)
    assert (c * c).terms == (((), Fraction(25, 9)),)
    for a, b in ((c, d), (c, big), (big, d), (c, c)):
        assert bracket(a, b, alg).is_zero
    report = verify_involution([c, big, d], alg)
    assert report.pair_count == 3 and report.all_commute


def test_verify_involution_checks_each_hamiltonian():
    alg = LiePoissonAlgebra(2, 2)
    other = LiePoissonAlgebra(2, 3)
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


# Denominators: 1 and distinct large primes, so that the lcm of a
# Hamiltonian's denominators, and the product of two of them, is large.
INVOLUTION_DENOMINATORS = (1, 3, 2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1)
INVOLUTION_ALGEBRAS = ((1, 2), (2, 1), (2, 2), (3, 1), (2, 3))


@st.composite
def hamiltonian_sets(draw):
    """An algebra, three sites at most, and 0..7 Hamiltonians of degree 0..6
    (up to three generators per monomial, each to the power 1 or 2) with
    coefficients up to 10^30 of either sign over large coprime denominators,
    among them zero, constant and duplicate Hamiltonians."""
    alg = LiePoissonAlgebra(*draw(st.sampled_from(INVOLUTION_ALGEBRAS)))
    coeff = st.builds(
        Fraction, st.integers(-(10**30), 10**30), st.sampled_from(INVOLUTION_DENOMINATORS)
    )
    generator = st.integers(0, alg.gen_count - 1)
    monomial = st.lists(st.tuples(generator, st.integers(1, 2)), max_size=3)
    hams = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random"] * 4 + ["zero", "constant", "duplicate"]))
        if kind == "zero":
            hams.append(PoissonPolynomial.zero(alg))
        elif kind == "constant":
            hams.append(PoissonPolynomial.constant(alg, draw(coeff)))
        elif kind == "duplicate" and hams:
            hams.append(draw(st.sampled_from(hams)))
        else:
            terms = {}
            for gens, c in draw(st.lists(st.tuples(monomial, coeff), min_size=1, max_size=4)):
                exps = {}
                for g, e in gens:
                    exps[g] = exps.get(g, 0) + e
                mono = tuple(sorted(exps.items()))
                terms[mono] = terms.get(mono, Fraction(0)) + c
            hams.append(PoissonPolynomial._from_dict(alg, terms))
    return alg, hams


def pairwise_involution(hams, alg):
    """The nonzero pairs of verify_involution, one reference_bracket each."""
    out = []
    for j, h in enumerate(hams):
        for i in range(j):
            value = reference_bracket(hams[i], h, alg)
            if not value.is_zero:
                out.append((i, j, value.to_string()))
    return tuple(sorted(out))


@settings(max_examples=150)
@given(hamiltonian_sets())
def test_verify_involution_matches_pairwise_reference(alg_hams):
    """Batching the earlier Hamiltonians into slots of one int reads back
    each pair's bracket exactly: same pairs, in pair order, same strings."""
    alg, hams = alg_hams
    report = verify_involution(hams, alg)
    assert report.pair_count == len(hams) * (len(hams) - 1) // 2
    assert report.nonzero_pairs == pairwise_involution(hams, alg)


def test_verify_involution_borrows_across_slots():
    """With h = x00 - x11, {a h, 2a x10} = 4a^2 x10 and {-a h, 2a x10} is
    its negative, so the two slots of one pass hold +4a^2 and -4a^2: the
    negative slot borrows from the one below it, which a signed digit read
    undoes.  Each Hamiltonian has |h| = 2a, so 4a^2 is the largest value a
    slot can hold, and a slot one bit narrower misreads it."""
    alg = LiePoissonAlgebra(2, 1)
    a = 10**30
    h = alg.generator(0, 0, 0) - alg.generator(0, 1, 1)
    x10 = alg.generator(0, 1, 0)
    hams = [h.scaled(a), h.scaled(-a), x10.scaled(2 * a), x10.scaled(Fraction(-2 * a, 7))]
    report = verify_involution(hams, alg)
    assert report.nonzero_pairs == pairwise_involution(hams, alg)
    assert [(i, j) for i, j, _ in report.nonzero_pairs] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert report.nonzero_pairs[0][2] == f"{4 * a * a}*x0_10"


def test_evaluate_and_partial():
    alg = LiePoissonAlgebra(2, 1)
    x01 = alg.generator(0, 0, 1)
    x10 = alg.generator(0, 1, 0)
    f = x01 * x10 + x01.scaled(3)
    m = [[Fraction(0), Fraction(2)], [Fraction(5), Fraction(0)]]
    assert evaluate(f, [m]) == 10 + 6
    assert partial(f, variables(x01)[0]) == x10 + PoissonPolynomial.constant(alg, 3)


# -- Casimirs -----------------------------------------------------------------


def test_quadratic_casimir_commutes_with_generators():
    alg = LiePoissonAlgebra(2, 2)
    for j in range(2):
        cas = site_casimir(alg, j)
        for g in range(alg.gen_count):
            site, p, q = entry_of(alg, g)
            assert bracket(cas, alg.generator(site, p, q), alg).is_zero


def test_invariant_polynomials_are_casimirs():
    alg = LiePoissonAlgebra(3, 1)
    invs = site_invariant_polynomials(alg, 0)
    assert len(invs) == 3
    for inv in invs:
        for g in range(alg.gen_count):
            _, p, q = entry_of(alg, g)
            assert bracket(inv, alg.generator(0, p, q), alg).is_zero


def test_invariant_polynomials_evaluate_to_matrix_invariants():
    rng = random.Random(111)
    alg = LiePoissonAlgebra(3, 1)
    invs = site_invariant_polynomials(alg, 0)
    for _ in range(10):
        m = rnd_matrix(rng, 3)
        vals = linalgq.invariant_values(m)
        for i, inv in enumerate(invs):
            assert evaluate(inv, [m]) == vals[i]


def test_casimirs_commute_with_gaudin_hamiltonians():
    f = build_field(
        [0, 1, 2], [E2, F2, [[0, -1], [-1, 0]]], SL2
    )
    alg, hams = gaudin_hamiltonians(f)
    for j in range(3):
        cas = site_casimir(alg, j)
        for ham in hams:
            assert bracket(cas, ham, alg).is_zero


# -- Gaudin and Hitchin Hamiltonians -------------------------------------------


def test_gaudin_polynomials_evaluate_to_values():
    rng = random.Random(112)
    for _ in range(5):
        f = rnd_field(rng, 2, 3)
        _, hams = gaudin_hamiltonians(f)
        values = gaudin_values(f)
        for j in range(3):
            assert evaluate(hams[j], f.residues) == values[j]


def test_gaudin_polynomials_match_generator_products():
    """H_j = sum over k != j, p, q of x_j[p][q] x_k[q][p] / (x_j - x_k),
    summed as polynomials term by term."""
    rng = random.Random(113)
    for n, s in [(2, 3), (3, 4), (4, 2)]:
        f = rnd_field(rng, n, s)
        alg, hams = gaudin_hamiltonians(f)
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
            assert hams[j].terms == ham.terms


def test_gaudin_involution():
    f = build_field([0, 1, 2], [E2, F2, [[0, -1], [-1, 0]]], SL2)
    alg, hams = gaudin_hamiltonians(f)
    report = verify_involution(hams, alg)
    assert report.pair_count == 3
    assert report.all_commute


def test_involution_report_flags_noncommuting_pair():
    alg = LiePoissonAlgebra(2, 1)
    report = verify_involution(
        [alg.generator(0, 0, 0), alg.generator(0, 0, 1)], alg
    )
    assert report.pair_count == 1
    assert not report.all_commute
    i, j, text = report.nonzero_pairs[0]
    assert (i, j) == (0, 1)
    assert text != "0"


def test_involution_report_labels_are_pinned():
    """The bracket strings of a family that does not commute, on twelve
    3x3 sites: labels x{j}_{p}{q} with a two-digit site index, monomials in
    generator order (site 3 before site 11), bytes as the site-table
    algebra wrote them."""
    alg = LiePoissonAlgebra(3, 12)
    x = alg.generator
    hams = [
        x(11, 0, 1) * x(0, 1, 2) + x(5, 2, 0).scaled(Fraction(3, 2)),
        x(11, 1, 0) + x(11, 2, 2) * x(3, 0, 1),
        x(0, 2, 1) * x(11, 1, 2) * x(11, 1, 2),
        x(5, 0, 2) - x(3, 1, 0),
    ]
    report = verify_involution(hams, alg)
    assert report.pair_count == 6
    assert report.nonzero_pairs == (
        (0, 1, "-1*x0_12*x11_00 + x0_12*x11_11"),
        (0, 2, "-1*x0_11*x11_01*x11_12^2 + -2*x0_12*x0_21*x11_02*x11_12 + x0_22*x11_01*x11_12^2"),
        (0, 3, "3/2*x5_00 + -3/2*x5_22"),
        (1, 2, "2*x0_21*x3_01*x11_12^2"),
        (1, 3, "x3_00*x11_22 + -1*x3_11*x11_22"),
    )


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
        values = [evaluate(h, f.residues) for h in hams]
        assert values == padded


def test_liouville_count_of_hitchin_and_gaudin_hamiltonians():
    """At a seeded rational point P of s copies of gl_n*, the
    Hitchin-coefficient Hamiltonians are independent functions, one per
    z-coefficient: sum over the degrees i of i(s-1) + 1 (i = 2..n for SL,
    1..n for GL).  Their Hamiltonian vector fields span n(n-1)(s-1)/2, SL
    and GL alike: half the leaf rank s n(n-1) less (n^2 - n)/2 for the
    diagonal PGL_n symmetry (Mishchenko and Fomenko, Funct. Anal. Appl. 12,
    1978; Adams, Harnad and Hurtubise, Comm. Math. Phys. 134, 1990).  The
    difference is the s site Casimirs e_i(X_j) of each degree i, which the
    z-coefficients hold as combinations.  The symbolic Gaudin Hamiltonians,
    which sum to zero, give s - 1 functions and s - 1 fields.  A family that
    lost a member fails the first count, and one of Casimirs only the
    second; both pass verify_involution."""
    rng = random.Random(2301)
    for n, s in [(2, 3), (2, 4), (2, 5), (3, 3)]:
        point = [rnd_matrix(rng, n) for _ in range(s)]
        assert bivector_rank_at(MomentValue(sites=tuple(point))) == s * n * (n - 1)
        for form, degrees in (("SL", range(2, n + 1)), ("GL", range(1, n + 1))):
            alg, hams = hitchin_coefficient_hamiltonians(rnd_points(rng, s), n, form)
            functions, fields = liouville_counts(hams, alg, point)
            assert len(hams) == functions == sum(i * (s - 1) + 1 for i in degrees)
            assert fields == n * (n - 1) * (s - 1) // 2
            assert functions - fields == s * len(degrees)
        galg, gaudin = gaudin_hamiltonians(rnd_field(rng, n, s))
        assert liouville_counts(gaudin, galg, point) == (s - 1, s - 1)


# Point denominators, up to the Mersenne prime 2^31 - 1, so the clearing
# factor d_x and its powers d_x^((s-1)i) vary from 1 to far past a machine word.
POINT_DENOMINATORS = (1, 2, 3, 5, 7, 2**31 - 1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_hitchin_coefficient_hamiltonians_match_the_sampling_reference(data):
    """The Leibniz expansion gives the Hamiltonians of the sampling route
    (symbolic principal-minor sums at n(s-1) + 1 nodes, then per-monomial
    interpolation), term for term and in the same order, for every
    accepted shape, SL and GL, at negative and positive points over mixed
    denominators."""
    n = data.draw(st.sampled_from(sorted(poisson.HITCHIN_INVOLUTION_MAX_POINTS)))
    s = data.draw(st.integers(1, poisson.HITCHIN_INVOLUTION_MAX_POINTS[n]))
    form = data.draw(st.sampled_from(["SL", "GL"]))
    point = st.builds(Fraction, st.integers(-60, 60), st.sampled_from(POINT_DENOMINATORS))
    points = data.draw(st.lists(point, min_size=s, max_size=s, unique=True))
    got = hitchin_coefficient_hamiltonians(points, n, form)
    assert got == reference_hitchin_hamiltonians(points, n, form)


def test_hitchin_coefficient_hamiltonians_rejects_bad_form():
    with pytest.raises(ShapeError):
        hitchin_coefficient_hamiltonians([0, 1], 2, "XX")


def test_hitchin_coefficient_hamiltonians_rejects_repeated_points():
    for points in ([0, 0, 1], [Fraction(1, 2), 1, Fraction(2, 4)]):
        with pytest.raises(DivisorError, match="pairwise distinct"):
            hitchin_coefficient_hamiltonians(points, 2, "SL")


def test_hitchin_coefficient_hamiltonians_rejects_empty_divisor():
    for n, form in ((2, "SL"), (3, "GL")):
        with pytest.raises(DivisorError, match="divisor must be nonempty"):
            hitchin_coefficient_hamiltonians([], n, form)


# -- r-matrix identity ---------------------------------------------------------


def lax_entries(alg, points, z):
    """The entries of the symbolic Lax matrix L(z) = sum_j X_j/(z - x_j),
    X_j the matrix of site j's generators, as linear Poisson polynomials."""
    n = alg.matrix_size
    return [
        [
            sum(
                (alg.generator(j, p, q).scaled(Fraction(1) / (z - x)) for j, x in enumerate(points)),
                PoissonPolynomial.zero(alg),
            )
            for q in range(n)
        ]
        for p in range(n)
    ]


def test_r_matrix_identity():
    """The Gaudin Lax matrix satisfies the linear r-matrix bracket
    (Babelon, Bernard and Talon, Introduction to Classical Integrable
    Systems, 2003, ch. 2-3):

        (w - z) {L_pq(z), L_rs(w)}
            = [p = s](L_rq(z) - L_rq(w)) - [q = r](L_ps(z) - L_ps(w)),

    for n = 1..3 and s = 1..4.  The sign is fixed first at n = 2 from the
    bracket itself: {x_00, x_01} = -x_01 on one site, so at s = 1, x_0 = 0,
    (w - z){L_00(z), L_01(w)} = -x_01 (w - z)/(z w), the right side above.
    Both sides times prod_j (z - x_j)(w - x_j) are polynomials of degree at
    most s in z and in w, so equality at the (s + 2)^2 integer nodes
    z, w = -2..s-1, none of them a marked point, proves the identity."""
    alg = LiePoissonAlgebra(2, 1)
    x00, x01 = alg.generator(0, 0, 0), alg.generator(0, 0, 1)
    assert bracket(x00, x01, alg).terms == (-x01).terms
    lz, lw = lax_entries(alg, [0], 2), lax_entries(alg, [0], 3)
    left = bracket(lz[0][0], lw[0][1], alg).scaled(3 - 2)
    assert left.terms == x01.scaled(Fraction(-1, 6)).terms == (lw[0][1] - lz[0][1]).terms
    marked = [Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(7, 3)]
    for n in range(1, 4):
        for s in range(1, 5):
            alg = LiePoissonAlgebra(n, s)
            points = marked[:s]
            zero = PoissonPolynomial.zero(alg)
            lax = {z: lax_entries(alg, points, z) for z in range(-2, s)}
            for z, lz in lax.items():
                for w, lw in lax.items():
                    for p, q, r, t in product(range(n), repeat=4):
                        left = bracket(lz[p][q], lw[r][t], alg).scaled(w - z)
                        right = (lz[r][q] - lw[r][q] if p == t else zero) - (
                            lz[p][t] - lw[p][t] if q == r else zero
                        )
                        assert left.terms == right.terms, (n, s, z, w, p, q, r, t)


# -- moment map ---------------------------------------------------------------


def test_moment_map_without_weights_is_identity():
    rng = random.Random(114)
    f = rnd_field(rng, 2, 3)
    m = moment_map(f)
    assert all(
        mat_eq(site, res) for site, res in zip(m.sites, f.residues)
    )


def test_moment_map_zero_weight_keeps_full_matrix():
    f = build_field([0], [[[1, 2], [3, -1]]], SL2, theta_data=[wt(0)])
    m = moment_map(f)
    assert mat_eq(m.sites[0], f.residues[0])


def test_moment_map_iwahori_projection():
    """h + e is in the Iwahori stalk and its coresidue is the diagonal part."""
    iwa = wt(Fraction(1, 4))
    f = build_field([0], [[[1, 1], [0, -1]]], SL2, theta_data=[iwa])
    m = moment_map(f)
    assert mat_eq(m.sites[0], H2)


def test_moment_map_explicit_data_overrides():
    """Weight data given per point: e is in the Iwahori stalk with a zero
    coresidue, and a point with no weight keeps its residue."""
    iwa = wt(Fraction(1, 4))
    f = build_field([0, 1], [E2, [[0, -1], [0, 0]]], SL2, theta_data=[iwa, None])
    m = moment_map(f)
    assert linalgq.is_zero_matrix(m.sites[0])
    assert mat_eq(m.sites[1], f.residues[1])


def test_moment_map_rejects_inadmissible_residue():
    iwa = wt(Fraction(1, 4))
    f = build_field([0], [F2], SL2, theta_data=[iwa])
    with pytest.raises(FiltrationError, match="jump"):
        moment_map(f)


def test_moment_map_shape_errors():
    with pytest.raises(ShapeError, match="sites must be a sequence"):
        MomentValue(sites=5)
    rng = random.Random(115)
    f = rnd_field(rng, 2, 2)
    with pytest.raises(ShapeError):
        build_field(f.points, f.residues, f.group, theta_data=[wt(0)])
    # An A2 theta, and a parahoric datum in place of its theta.
    for theta in (wt(0, 0), analyze_weight(A1, wt(0))):
        with pytest.raises(ShapeError, match="theta_data\\[0\\]"):
            build_field(f.points, f.residues, f.group, theta_data=[theta, None])
        # A field built without build_field's checks is refused by moment_map.
        with pytest.raises(ShapeError, match="point 0 does not match the 2x2"):
            moment_map(dataclasses.replace(f, theta_data=(theta, None)))


@st.composite
def wall_weights(draw):
    """A type-A weight datum of rank 1..3 drawn by its diagonal gaps
    t_i - t_(i+1) in {0, +-1, +-1/2, 1/3, -2/3}: ties (a gap of 0, or gaps
    summing to 0) and integer pairings on affine walls are both common.
    Theta's coroot coordinates are the partial sums t_0 + ... + t_i."""
    n = draw(st.integers(2, 4))
    gaps = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)]
    t = [Fraction(0)]
    for gap in draw(st.lists(st.sampled_from(gaps), min_size=n - 1, max_size=n - 1)):
        t.append(t[-1] - gap)
    mean = sum(t) / n
    t = [v - mean for v in t]
    return analyze_weight(build_root_system("A", n - 1), wt(*accumulate(t[:-1])))


@given(wall_weights(), st.lists(st.integers(-2, 2), min_size=16, max_size=16))
def test_weight_diagonal_rule_matches_root_data(datum, values):
    """The diagonal rule of moment_map, coadjoint_act and bivector_rank_at
    against the root data: a residue with one non-zero entry (p, q) is
    refused exactly when the jump of the root of E_pq is positive, with that
    jump in the message; the kept entries are the block of zero pairing
    (support.levi_site); the unipotent I + E_pq acts exactly when (p, q) is
    in the block; and the leaf rank is the whole-site block rank."""
    rs = datum.system
    n = rs.rank + 1
    group = GroupTag("A", rs.rank, "SL")
    block = set(levi_site(datum.theta))
    assert block == {
        (p, q) for p in range(n) for q in range(n)
        if p == q or pair(rs, datum.theta, entry_to_root(rs, p, q)) == 0
    }
    zero = MomentValue(sites=(linalgq.zeros(n),), data=(datum.theta,))
    stalk = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        stalk[p][p] = Fraction(p + 1 if p < n - 1 else -n * (n - 1) // 2)
    for p, q in [(p, q) for p in range(n) for q in range(n) if p != q]:
        residue = linalgq.zeros(n)
        residue[p][q] = Fraction(p + n * q + 1)
        f = build_field([0], [residue], group, theta_data=[datum.theta])
        jump = datum.jumps[entry_to_root(rs, p, q)]
        if jump > 0:
            message = f"residue 0 entry ({p},{q}) is outside the parahoric stalk (jump {jump} > 0)"
            with pytest.raises(FiltrationError, match=re.escape(message)):
                moment_map(f)
        else:
            stalk[p][q] = residue[p][q]
            assert moment_map(f).sites[0] == (residue if (p, q) in block else linalgq.zeros(n))
        g = linalgq.identity(n)
        g[p][q] = Fraction(1)
        if (p, q) in block:
            assert coadjoint_act([g], zero) == zero
        else:
            with pytest.raises(GroupError, match="block"):
                coadjoint_act([g], zero)
    kept = moment_map(build_field([0], [stalk], group, theta_data=[datum.theta])).sites[0]
    assert {(p, q) for p in range(n) for q in range(n) if kept[p][q]} == block
    xi = MomentValue(sites=([[Fraction(v) for v in values[p * n:(p + 1) * n]] for p in range(n)],),
                     data=(datum.theta,))
    assert bivector_rank_at(xi) == site_block_rank(xi)


# -- coadjoint action ---------------------------------------------------------


def test_coadjoint_identity_and_conjugation():
    m = MomentValue(sites=(H2,))
    out = coadjoint_act([linalgq.identity(2)], m)
    assert mat_eq(out.sites[0], H2)
    u = [[Fraction(1), Fraction(3)], [Fraction(0), Fraction(1)]]
    out = coadjoint_act([u], MomentValue(sites=(E2,)))
    assert mat_eq(out.sites[0], E2)


def test_coadjoint_acts_on_the_empty_site():
    """The 0x0 group element acts on a 0x0 site and gives the 0x0 site back,
    which leaf_invariants ranks 0, as it does before the action; linalgq's
    products accept operands with no rows."""
    m = MomentValue(sites=([],))
    out = coadjoint_act([[]], m)
    assert out.sites == ([],)
    assert leaf_invariants(out) == leaf_invariants(m)
    assert leaf_invariants(out).bivector_rank == 0
    assert linalgq.mat_mul([], []) == []
    assert linalgq.mat_mul([[]], []) == [[]]
    assert linalgq.mat_mul([[], []], []) == [[], []]


def test_coadjoint_respects_block_constraint():
    iwa = wt(Fraction(1, 4))
    m = MomentValue(sites=(H2,), data=(iwa,))
    g = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    out = coadjoint_act([g], m)
    assert mat_eq(out.sites[0], H2)
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
        assert mat_eq(once.sites[0], twice.sites[0])


# -- infinitesimal action ------------------------------------------------------


def test_infinitesimal_action_matches_symbolic_bracket():
    """Route one: matrix commutator.  Route two: Lie-Poisson bracket of the
    linear Hamiltonian tr(Y M) against each coordinate, evaluated at the
    residues.  The two differ by the fixed orientation sign only."""
    rng = random.Random(117)
    alg = LiePoissonAlgebra(2, 1)
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
                assert evaluate(flow, [x]) == -comm[a][b]


def test_infinitesimal_action_is_exp_derivative():
    """First-order term of the coadjoint action of exp(t y) for 2x2 nilpotent
    y is the commutator [y, x]: the error after removing t [y, x] is exactly
    quadratic, so one Richardson step recovers it with no truncation slack."""
    rng = random.Random(118)
    for _ in range(10):
        y = strictly_upper(rng, 2)
        x = rnd_matrix(rng, 2)
        m = MomentValue(sites=(x,))

        def diff_quotient(t: Fraction):
            conj = coadjoint_act([nilpotent_exp(mat_scale(y, t))], m).sites[0]
            return mat_scale(linalgq.mat_sub(conj, x), 1 / t)

        d1 = diff_quotient(Fraction(1, 100))
        d2 = diff_quotient(Fraction(1, 200))
        extrap = linalgq.mat_sub(mat_scale(d2, Fraction(2)), d1)
        assert mat_eq(extrap, linalgq.commutator(y, x))


def test_nilpotent_exp():
    rng = random.Random(119)
    y = strictly_upper(rng, 3)
    ours = nilpotent_exp(y)
    theirs = matrix_to_sympy(y).exp()
    assert matrix_to_sympy(ours) == theirs


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


def _bivector_points(rng, sizes, data):
    """Random and degenerate points (zero, scalar, nilpotent, rank one) with
    one matrix per site of the given sizes and the weight data of its
    sites."""

    def point(sites):
        return MomentValue(sites=tuple(sites), data=data)

    yield point(rnd_matrix(rng, n) for n in sizes)
    yield point(linalgq.zeros(n) for n in sizes)
    yield point(mat_scale(linalgq.identity(n), 3) for n in sizes)
    yield point(strictly_upper(rng, n) for n in sizes)
    rank_one = []
    for n in sizes:
        u = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        rank_one.append([[a * b for b in v] for a in u])
    yield point(rank_one)


def test_bivector_rank_blocks_match_full_matrix():
    """The per-class ranks sum to the rank of the whole bivector and to the
    Bareiss ranks of the whole site blocks, with each Levi site read off the
    weight data of the point; the weights include ties (classes {0, 2} on
    A2, and {0, 2}, {1, 3} on A3)."""
    rng = random.Random(123)
    ranks = set()
    for sizes, data in bivector_shapes():
        for xi in _bivector_points(rng, sizes, data):
            got = bivector_rank_at(xi)
            assert got == reference_bivector_rank(xi) == site_block_rank(xi)
            assert leaf_invariants(xi).bivector_rank == got
            ranks.add(got)
    assert len(ranks) >= 5


def _conjugated(t, lower):
    """L t L^-1 for the unipotent lower-triangular L with the given entries
    below the diagonal."""
    b = len(t)
    l_mat = [[Fraction(int(i == j) if j >= i else lower[i][j]) for j in range(b)] for i in range(b)]
    return linalgq.mat_mul(linalgq.mat_mul(l_mat, t), linalgq.inverse(l_mat))


@st.composite
def class_blocks(draw):
    """(kind, x): a b x b matrix, b = 1..5, of one kind, conjugated by an
    integer unipotent L.  Dense and distinct-diagonal matrices and a single
    nilpotent Jordan block are regular; scalar matrices, repeated blocks
    R + R (+ c), several Jordan blocks and rank one are derogatory for most
    b >= 2."""
    b = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["dense", "scalar", "repeated", "jordan", "diagonal", "rank_one"]))
    ints = st.integers(-3, 3)
    t = [[0] * b for _ in range(b)]
    if kind == "dense":
        t = draw(st.lists(st.lists(ints, min_size=b, max_size=b), min_size=b, max_size=b))
    elif kind == "scalar":
        c = draw(ints)
        t = [[c if i == j else 0 for j in range(b)] for i in range(b)]
    elif kind == "repeated":
        h = b // 2
        r = draw(st.lists(st.lists(ints, min_size=h, max_size=h), min_size=h, max_size=h))
        for i in range(2 * h):
            for j in range(2 * h):
                if i // h == j // h:
                    t[i][j] = r[i % h][j % h]
        if b % 2:
            t[b - 1][b - 1] = draw(ints)
    elif kind == "jordan":
        cuts = draw(st.sets(st.integers(1, b - 1))) if b > 1 else set()
        for i in range(b - 1):
            if i + 1 not in cuts:
                t[i][i + 1] = 1
    elif kind == "diagonal":
        ds = draw(st.lists(st.integers(-9, 9), min_size=b, max_size=b, unique=True))
        t = [[ds[i] if i == j else 0 for j in range(b)] for i in range(b)]
    else:
        u = draw(st.lists(ints, min_size=b, max_size=b))
        v = draw(st.lists(ints, min_size=b, max_size=b))
        t = [[x * y for y in v] for x in u]
    lower = draw(st.lists(st.lists(st.integers(-2, 2), min_size=b, max_size=b), min_size=b, max_size=b))
    return kind, _conjugated([[Fraction(v) for v in row] for row in t], lower)


@given(class_blocks())
def test_class_rank_matches_whole_bivector(kind_x):
    """On one full site, the certificate (or its fallback) gives the rank of
    the whole bivector by sympy and the Bareiss rank of the whole block."""
    _, x = kind_x
    xi = MomentValue(sites=(x,))
    expected = reference_bivector_rank(xi)
    assert bivector_rank_at(xi) == expected == site_block_rank(xi)


def _diag(*entries):
    return [[Fraction(v if i == j else 0) for j, _ in enumerate(entries)] for i, v in enumerate(entries)]


def test_derogatory_block_reaches_the_fallback(monkeypatch):
    """A regular block is certified by Krylov matrices (b x b ranks only); a
    derogatory one, with no cyclic vector, takes the b^2 x b^2 Bareiss rank."""
    sizes = []
    rank = linalgq.rank
    monkeypatch.setattr(linalgq, "rank", lambda a: sizes.append(len(a)) or rank(a))
    jordan = [[Fraction(int(q == p + 1)) for q in range(4)] for p in range(4)]
    assert bivector_rank_at(MomentValue(sites=(jordan, _diag(1, -1)))) == 12 + 2
    assert max(sizes) == 4
    sizes.clear()
    assert bivector_rank_at(MomentValue(sites=(_diag(1, 1, 2, 2),))) == 16 - 8
    assert max(sizes) == 16


def test_leaf_fallback_cap():
    """Derogatory blocks are accepted up to LEAF_MAX_FALLBACK_BLOCK and
    refused past it; a regular block past it that no listed vector
    certifies is still ranked b^2 - b."""
    b = poisson.LEAF_MAX_FALLBACK_BLOCK
    h = b // 2
    start = time.perf_counter()
    xi = MomentValue(sites=(_diag(*[1] * h, *[2] * (b - h)),))
    assert bivector_rank_at(xi) == b * b - h * h - (b - h) ** 2
    assert time.perf_counter() - start < 5
    with pytest.raises(ShapeError, match=f"up to {b}x{b}, got a {b + 1}x{b + 1}"):
        bivector_rank_at(MomentValue(sites=(_diag(*[1] * h, *[2] * (b + 1 - h)),)))
    # diag(A, 5, 6, ...), A = [[1, -1], [1, -1]] nilpotent: regular, but
    # A(1, 1) = 0 and each e_i stays in one block, so no vector tried is cyclic.
    x = _diag(0, 0, *range(5, b + 4))
    x[0][:2], x[1][:2] = [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(-1)]
    assert bivector_rank_at(MomentValue(sites=(x,))) == (b + 1) ** 2 - (b + 1)


def test_large_regular_sites_skip_the_fallback():
    """Three random 18 x 18 sites are certified regular well within a
    second (the whole-block Bareiss rank takes about 10 s per site)."""
    rng = random.Random(18)
    xi = MomentValue(sites=tuple(rnd_matrix(rng, 18) for _ in range(3)))
    start = time.perf_counter()
    assert bivector_rank_at(xi) == 3 * (18 * 18 - 18)
    assert time.perf_counter() - start < 1


def test_moment_value_refuses_data_of_another_length():
    """Weight data of another length than the sites, and a site that is not
    square (one row of two entries, or ragged rows), are refused when the
    value is built, so no reader meets a bare IndexError or a wrong rank."""
    ident = linalgq.identity(2)
    calls = (bivector_rank_at, leaf_invariants, lambda m: coadjoint_act([ident, ident], m))
    cases = [((H2, H2), data, "2 sites but") for data in ((None,), (None, None, None), ())]
    cases += [(([[1, 2]], H2), None, "site 0 is not square"),
              ((H2, [[1, 2], [3]]), (None, None), "site 1 is not square")]
    for sites, data, message in cases:
        for call in calls:
            with pytest.raises(ShapeError, match=message):
                call(MomentValue(sites=sites, data=data))
    xi = MomentValue(sites=(H2, H2), data=(None, wt(0)))
    assert bivector_rank_at(xi) == leaf_invariants(xi).bivector_rank == 4
    assert coadjoint_act([ident, ident], xi) == xi


def test_bivector_rank_rejects_mismatched_algebra():
    """A weight theta must have the matrix size of its point's site: the
    rank, the leaf and the level action all refuse an A2 theta on a 2x2
    site with the ShapeError of the weight diagonal (moment_map's own case
    is in test_moment_map_shape_errors)."""
    assert bivector_rank_at(MomentValue(sites=(H2, H2), data=(wt(0), None))) == 4
    xi = MomentValue(sites=(H2, H2), data=(wt(0), wt(0, 0)))
    ident = linalgq.identity(2)
    for call in (bivector_rank_at, leaf_invariants, lambda m: coadjoint_act([ident, ident], m)):
        with pytest.raises(ShapeError, match="point 1 does not match the 2x2") as err:
            call(xi)
        assert err.value.kind == "shape"


def test_leaf_invariants_examples():
    leaf = leaf_invariants(MomentValue(sites=(H2,)))
    assert leaf.site_invariants == ((Fraction(0), Fraction(-1)),)
    assert leaf.bivector_rank == 2
    leaf_e = leaf_invariants(MomentValue(sites=(E2,)))
    assert leaf_e.site_invariants == ((Fraction(0), Fraction(0)),)
    assert leaf_e.bivector_rank == 2
    leaf_0 = leaf_invariants(MomentValue(sites=(linalgq.zeros(2),)))
    assert leaf_0.bivector_rank == 0


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


def test_quotient_diagram_zero_field():
    f = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    report = quotient_diagram_check(f)
    assert report.all_equal
    assert all(row.residue_route == 0 for row in report.rows)


def test_quotient_diagram_with_weights():
    iwa = wt(Fraction(1, 4))
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
        theta = wt(*([Fraction(1, 4)] * (n - 1)))
        ups = []
        for _ in range(s - 1):
            m = strictly_upper(rng, n)
            for p in range(n - 1):
                m[p][p] = Fraction(rng.randint(-2, 2))
            m[n - 1][n - 1] = -sum(m[p][p] for p in range(n - 1))
            ups.append(m)
        f = build_field(
            range(s), with_sum_zero(ups), GroupTag("A", n - 1, "SL"),
            theta_data=[theta] * (s - 1) + [wt(*([0] * (n - 1)))],
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
