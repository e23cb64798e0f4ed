import math
import random
from fractions import Fraction

import pytest
import sympy

from logahoric import polyq
from support import coeffs_to_sympy, rnd_fraction, squarefree_oracles, to_string


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


def test_squarefree_certificate_edge_cases():
    """Reductions modulo the certificate's prime that mislead in both
    directions: the fallback keeps every verdict exact."""
    ell = polyq.MODULUS
    cases = [
        # squarefree over Q, but reduces to z^2
        (polyq.from_roots([0, ell]), True),
        # (ell z + 1)^2 z is not squarefree, but reduces to the squarefree z:
        # only the leading-coefficient test sends it to the fallback
        (polyq.mul(polyq.mul(polyq.poly([1, ell]), polyq.poly([1, ell])), [0, 1]), False),
        (polyq.mul(polyq.poly([1, ell]), polyq.poly([0, 1])), True),
        # the same through denominators: (z + 1/ell)^2 and z^2 + 1/ell
        (polyq.from_roots([Fraction(-1, ell)] * 2), False),
        (polyq.poly([Fraction(1, ell), 0, 1]), True),
        # a square factor that survives the reduction
        (polyq.mul(polyq.from_roots([3, 3]), polyq.poly([1, 2, 5])), False),
        (polyq.from_roots([Fraction(1, 2), Fraction(-7, 3), 11]), True),
    ]
    for p, expected in cases:
        assert polyq.is_squarefree(p) == expected
        assert squarefree_oracles(p) == (expected, expected)


def test_squarefree_certificate_decides_without_fallback(monkeypatch):
    """A squarefree polynomial whose reduction stays squarefree is decided
    by the certificate alone; the misleading reductions reach the gcd."""
    rng = random.Random(109)
    ell = polyq.MODULUS

    def no_gcd(p, q):
        raise AssertionError("fallback reached")

    checked = []
    for _ in range(10):
        roots = {rnd_fraction(rng, -50, 50, 9) for _ in range(rng.randint(2, 40))}
        p = polyq.scale(polyq.from_roots(roots), rnd_fraction(rng, 1, 5))
        checked.append(p)
    monkeypatch.setattr(polyq, "gcd", no_gcd)
    assert all(polyq.is_squarefree(p) for p in checked)
    for p in (polyq.from_roots([0, ell]), polyq.from_roots([2, 2]), polyq.poly([1, 0, ell])):
        with pytest.raises(AssertionError, match="fallback reached"):
            polyq.is_squarefree(p)


def test_interpolate_matches_sympy():
    """Interpolation on the nodes 0..N agrees with sympy and evaluates back
    to the sampled values."""
    rng = random.Random(10)
    z = sympy.Symbol("z")
    for _ in range(20):
        ys = [rnd_fraction(rng) for _ in range(rng.randint(1, 7))]
        ours = polyq.interpolate(ys)
        assert polyq.degree(ours) < len(ys)
        assert [polyq.evaluate(ours, t) for t in range(len(ys))] == ys
        theirs = sympy.interpolate(
            [(t, sympy.Rational(y.numerator, y.denominator)) for t, y in enumerate(ys)],
            z,
        )
        assert coeffs_to_sympy(ours, z) == sympy.expand(theirs)


def test_interpolate_large_values():
    """N up to 100 with values of a few hundred bits, like the spectral
    discriminants: the interpolant has degree <= N and evaluates back to
    every sample, which pins it down uniquely; up to N = 20 it also equals
    sympy's interpolant."""
    rng = random.Random(11)
    z = sympy.Symbol("z")

    def big():
        return Fraction(rng.randint(-(2**300), 2**300), rng.randint(1, 2**200))

    for top in (0, 1, 2, 7, 20, 60, 100):
        ys = [big() for _ in range(top + 1)]
        ours = polyq.interpolate(ys)
        assert polyq.degree(ours) <= top
        # Evaluate back in ints over the interpolant's common denominator
        # (tens of thousands of bits here, where Fraction Horner crawls).
        den = math.lcm(*(c.denominator for c in ours))
        cleared = [c.numerator * (den // c.denominator) for c in ours]
        for t, y in enumerate(ys):
            acc = 0
            for c in reversed(cleared):
                acc = acc * t + c
            assert Fraction(acc, den) == y
        if top <= 20:
            theirs = sympy.interpolate(
                [(t, sympy.Rational(y.numerator, y.denominator)) for t, y in enumerate(ys)],
                z,
            )
            assert coeffs_to_sympy(ours, z) == sympy.expand(theirs)
    # A degree-100 polynomial with large coefficients comes back exactly,
    # also from more samples than it needs.
    p = polyq.poly([big() for _ in range(101)])
    assert polyq.interpolate([polyq.evaluate(p, t) for t in range(101)]) == p
    assert polyq.interpolate([polyq.evaluate(p, t) for t in range(150)]) == p


def test_interpolate_edge_cases():
    assert polyq.interpolate([]) == []
    assert polyq.interpolate([Fraction(-2)]) == [Fraction(-2)]
    assert polyq.interpolate([0, 0, 0]) == []
    # The line 2z - 1 at 0, 1, 2: the degree drops below len(ys) - 1.
    assert polyq.interpolate([-1, 1, 3]) == [Fraction(-1), Fraction(2)]
    # Lagrange basis polynomials are the interpolants of unit vectors.
    for top in (0, 1, 4, 9):
        for k in range(top + 1):
            lk = polyq.interpolate([int(t == k) for t in range(top + 1)])
            assert polyq.degree(lk) == top
            assert [polyq.evaluate(lk, t) for t in range(top + 1)] == [
                int(t == k) for t in range(top + 1)
            ]


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
    assert to_string(p) == "-1*z + z^2"
    assert to_string([]) == "0"
