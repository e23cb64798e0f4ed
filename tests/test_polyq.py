import random
from fractions import Fraction

import pytest
import sympy

from logahoric import polyq
from support import coeffs_to_sympy, rnd_fraction


def test_trim_and_degree():
    assert polyq.poly([1, 2, 0, 0]) == [Fraction(1), Fraction(2)]
    assert polyq.degree([]) == -1
    assert polyq.degree([Fraction(3)]) == 0
    assert polyq.degree(polyq.poly([0, 0, 5])) == 2
    assert polyq.is_zero(polyq.poly([0, 0]))


def test_arithmetic_matches_sympy():
    """Add, multiply and divmod agree with sympy on random rational polys."""
    rng = random.Random(101)
    z = sympy.Symbol("z")
    for _ in range(40):
        a = [rnd_fraction(rng) for _ in range(rng.randint(0, 5))]
        b = [rnd_fraction(rng) for _ in range(rng.randint(1, 5))]
        pa, pb = polyq.poly(a), polyq.poly(b)
        sa, sb = coeffs_to_sympy(pa, z), coeffs_to_sympy(pb, z)
        assert coeffs_to_sympy(polyq.add(pa, pb), z) == sympy.expand(sa + sb)
        assert coeffs_to_sympy(polyq.mul(pa, pb), z) == sympy.expand(sa * sb)
        if not polyq.is_zero(pb):
            q, r = polyq.divmod_(pa, pb)
            qq, rr = sympy.div(sa, sb, z)
            assert coeffs_to_sympy(q, z) == sympy.expand(qq)
            assert coeffs_to_sympy(r, z) == sympy.expand(rr)


def test_evaluate_horner():
    rng = random.Random(33)
    for _ in range(25):
        p = polyq.poly([rnd_fraction(rng) for _ in range(rng.randint(0, 6))])
        at = rnd_fraction(rng)
        direct = sum((c * at**k for k, c in enumerate(p)), Fraction(0))
        assert polyq.evaluate(p, at) == direct


def test_derivative():
    p = polyq.poly([5, 3, 0, 2])
    assert polyq.derivative(p) == [Fraction(3), Fraction(0), Fraction(6)]
    assert polyq.derivative([Fraction(7)]) == []


def test_gcd_and_squarefree():
    # (z-1)^2 (z+2) has gcd (z-1) with its derivative
    p = polyq.mul(polyq.from_roots([1, 1]), polyq.from_roots([-2]))
    g = polyq.gcd(p, polyq.derivative(p))
    assert g == polyq.from_roots([1])
    assert not polyq.is_squarefree(p)
    assert polyq.is_squarefree(polyq.from_roots([0, 1, 2]))
    assert polyq.is_squarefree([Fraction(4)])


def test_gcd_matches_sympy():
    """Degree 20-30 products of random rational factors, some repeated:
    the monic gcd with a second product and with the derivative agrees with
    sympy, and so does the squarefree verdict."""
    rng = random.Random(107)
    z = sympy.Symbol("z")

    def factor():
        lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        return polyq.poly([rnd_fraction(rng) for _ in range(rng.randint(1, 3))] + [lead])

    def monic_sympy(expr):
        return sympy.Poly(expr, z).monic().as_expr()

    verdicts = set()
    for trial in range(8):
        shared = [factor() for _ in range(rng.randint(1, 3))]
        p = polyq.poly([1])
        q = polyq.poly([1])
        for fac in shared:
            p = polyq.mul(p, fac)
            q = polyq.mul(q, fac)
        while polyq.degree(p) < 20:
            fac = factor()
            p = polyq.mul(p, fac)
            if trial % 2 and rng.random() < 0.4:
                p = polyq.mul(p, fac)  # a repeated factor
        while polyq.degree(q) < 12:
            q = polyq.mul(q, factor())
        assert 20 <= polyq.degree(p) <= 30
        sp, sq = coeffs_to_sympy(p, z), coeffs_to_sympy(q, z)
        g = polyq.gcd(p, q)
        assert g[-1] == 1
        assert sympy.expand(coeffs_to_sympy(g, z) - monic_sympy(sympy.gcd(sp, sq))) == 0
        dp = polyq.derivative(p)
        gd = sympy.gcd(sp, sympy.diff(sp, z))
        assert sympy.expand(
            coeffs_to_sympy(polyq.gcd(p, dp), z) - monic_sympy(gd)
        ) == 0
        squarefree = sympy.degree(gd, z) == 0
        assert polyq.is_squarefree(p) == squarefree
        verdicts.add(squarefree)
    assert verdicts == {True, False}


def test_interpolate_matches_sympy():
    """Interpolation through random rational points agrees with sympy and
    evaluates back to the sampled values."""
    rng = random.Random(10)
    z = sympy.Symbol("z")
    for _ in range(20):
        xs = list({rnd_fraction(rng) for _ in range(rng.randint(1, 7))})
        ys = [rnd_fraction(rng) for _ in xs]
        ours = polyq.interpolate(xs, ys)
        assert polyq.degree(ours) < len(xs)
        assert [polyq.evaluate(ours, x) for x in xs] == ys
        theirs = sympy.interpolate(
            [(sympy.Rational(x.numerator, x.denominator),
              sympy.Rational(y.numerator, y.denominator)) for x, y in zip(xs, ys)],
            z,
        )
        assert coeffs_to_sympy(ours, z) == sympy.expand(theirs)


def test_interpolate_edge_cases():
    assert polyq.interpolate([Fraction(5, 3)], [Fraction(-2)]) == [Fraction(-2)]
    assert polyq.interpolate([0, 1, 2], [0, 0, 0]) == []
    # 1/2, 3/2, 5/2 on the line 2z - 1: the degree drops below len(xs) - 1.
    half = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    assert polyq.interpolate(half, [0, 2, 4]) == [Fraction(-1), Fraction(2)]
    basis = polyq.lagrange_basis(half)
    for k, lk in enumerate(basis):
        assert [polyq.evaluate(lk, x) for x in half] == [int(j == k) for j in range(3)]


def test_resultant_matches_sympy():
    rng = random.Random(7)
    z = sympy.Symbol("z")
    for _ in range(20):
        a = polyq.poly([rnd_fraction(rng) for _ in range(rng.randint(2, 5))])
        b = polyq.poly([rnd_fraction(rng) for _ in range(rng.randint(2, 5))])
        if polyq.degree(a) < 1 or polyq.degree(b) < 1:
            continue
        ours = polyq.resultant(a, b)
        theirs = sympy.resultant(coeffs_to_sympy(a, z), coeffs_to_sympy(b, z), z)
        assert sympy.Rational(ours.numerator, ours.denominator) == theirs


def test_discriminant_matches_sympy():
    rng = random.Random(8)
    z = sympy.Symbol("z")
    for _ in range(20):
        p = polyq.poly([rnd_fraction(rng) for _ in range(rng.randint(3, 6))])
        if polyq.degree(p) < 2:
            continue
        ours = polyq.discriminant(p)
        theirs = sympy.discriminant(coeffs_to_sympy(p, z), z)
        assert sympy.Rational(ours.numerator, ours.denominator) == theirs


def test_discriminant_rejects_constants():
    with pytest.raises(ArithmeticError):
        polyq.discriminant([Fraction(3)])


def test_from_roots_and_to_string():
    p = polyq.from_roots([0, 1])
    assert p == [Fraction(0), Fraction(-1), Fraction(1)]
    assert polyq.to_string(p) == "-1*z + z^2"
    assert polyq.to_string([]) == "0"
