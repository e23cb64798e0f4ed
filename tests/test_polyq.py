import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from logahoric import linalgq, polyq
from support import (
    coeffs_to_sympy,
    poly,
    rnd_fraction,
    squarefree_oracles,
    sympy_to_coeffs,
    to_string,
)


def test_trim_and_degree():
    assert poly([1, 2, 0, 0]) == [Fraction(1), Fraction(2)]
    assert polyq.degree([]) == -1
    assert polyq.degree([Fraction(3)]) == 0
    assert polyq.degree(poly([0, 0, 5])) == 2
    assert poly([0, 0]) == []


def test_evaluate_horner():
    rng = random.Random(33)
    for _ in range(25):
        p = poly([rnd_fraction(rng) for _ in range(rng.randint(0, 6))])
        at = rnd_fraction(rng)
        direct = sum((c * at**k for k, c in enumerate(p)), Fraction(0))
        assert polyq.evaluate(p, at) == direct


def test_derivative():
    p = poly([5, 3, 0, 2])
    assert polyq.derivative(p) == [Fraction(3), Fraction(0), Fraction(6)]
    assert polyq.derivative([Fraction(7)]) == []


def _gcd_degrees(p, q):
    """The degree of gcd(p, q) from polyq._gcd_degree over Q and over
    GF(MODULUS), on p and q cleared to ints."""
    ell = polyq.MODULUS
    a, b = linalgq.integer_form(p)[1], linalgq.integer_form(q)[1]
    return (
        polyq._gcd_degree(a, b),
        polyq._gcd_degree(polyq.trim([c % ell for c in a]), polyq.trim([c % ell for c in b]), ell),
    )


def _sympy_gcd_degree(e, f, z):
    return sympy.degree(sympy.gcd(e, f), z)


def test_gcd_and_squarefree():
    # (z-1)^2 (z+2) has gcd (z-1) with its derivative
    z = sympy.Symbol("z")
    e = (z - 1) ** 2 * (z + 2)
    p = sympy_to_coeffs(e, z)
    assert _sympy_gcd_degree(e, sympy.diff(e, z), z) == 1
    assert _gcd_degrees(p, polyq.derivative(p)) == (1, 1)
    assert _gcd_degrees(p, sympy_to_coeffs(z - 1, z)) == (1, 1)
    assert _gcd_degrees(p, sympy_to_coeffs(z + 5, z)) == (0, 0)
    assert _gcd_degrees(p, []) == (3, 3)
    assert not polyq.is_squarefree(p)
    assert polyq.is_squarefree(sympy_to_coeffs(z * (z - 1) * (z - 2), z))
    assert polyq.is_squarefree([Fraction(4)])


def test_gcd_matches_sympy():
    """Degree 20-30 products of random rational factors, some repeated:
    the gcd degree with a second product and with the derivative, over Q
    and over GF(MODULUS), agrees with sympy, and so does the squarefree
    verdict."""
    rng = random.Random(107)
    z = sympy.Symbol("z")

    def factor():
        lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        return coeffs_to_sympy([rnd_fraction(rng) for _ in range(rng.randint(1, 3))] + [lead], z)

    verdicts = set()
    for trial in range(8):
        shared = [factor() for _ in range(rng.randint(1, 3))]
        sp = sq = sympy.Integer(1)
        for fac in shared:
            sp *= fac
            sq *= fac
        while sympy.degree(sp, z) < 20:
            fac = factor()
            sp *= fac
            if trial % 2 and rng.random() < 0.4:
                sp *= fac  # a repeated factor
        while sympy.degree(sq, z) < 12:
            sq *= factor()
        p, q = sympy_to_coeffs(sp, z), sympy_to_coeffs(sq, z)
        assert 20 <= polyq.degree(p) <= 30
        shared_degree = _sympy_gcd_degree(sp, sq, z)
        assert _gcd_degrees(p, q) == (shared_degree, shared_degree)
        own_degree = _sympy_gcd_degree(sp, sympy.diff(sp, z), z)
        assert _gcd_degrees(p, polyq.derivative(p)) == (own_degree, own_degree)
        squarefree = own_degree == 0
        assert polyq.is_squarefree(p) == squarefree
        verdicts.add(squarefree)
    assert verdicts == {True, False}


def test_squarefree_certificate_edge_cases():
    """Reductions modulo the certificate's prime that mislead in both
    directions: the fallback keeps every verdict exact."""
    ell = polyq.MODULUS
    z = sympy.Symbol("z")
    cases = [
        # squarefree over Q, but reduces to z^2
        (z * (z - ell), True),
        # (ell z + 1)^2 z is not squarefree, but reduces to the squarefree z:
        # only the leading-coefficient test sends it to the fallback
        ((ell * z + 1) ** 2 * z, False),
        ((ell * z + 1) * z, True),
        # the same through denominators: (z + 1/ell)^2 and z^2 + 1/ell
        ((z + sympy.Rational(1, ell)) ** 2, False),
        (z**2 + sympy.Rational(1, ell), True),
        # a square factor that survives the reduction
        ((z - 3) ** 2 * (5 * z**2 + 2 * z + 1), False),
        ((z - sympy.Rational(1, 2)) * (z + sympy.Rational(7, 3)) * (z - 11), True),
    ]
    for expr, expected in cases:
        p = sympy_to_coeffs(expr, z)
        assert polyq.is_squarefree(p) == expected
        assert squarefree_oracles(p) == (expected, expected)


def test_squarefree_certificate_decides_without_fallback(monkeypatch):
    """A squarefree polynomial whose reduction stays squarefree is decided
    by the certificate alone; the misleading reductions reach the gcd over
    Q."""
    rng = random.Random(109)
    ell = polyq.MODULUS
    z = sympy.Symbol("z")

    body = polyq._gcd_degree

    def no_gcd_over_q(a, b, modulus=0):
        if not modulus:
            raise AssertionError("fallback reached")
        return body(a, b, modulus)

    checked = []
    for _ in range(10):
        roots = {rnd_fraction(rng, -50, 50, 9) for _ in range(rng.randint(2, 40))}
        lead = rnd_fraction(rng, 1, 5)
        checked.append(sympy_to_coeffs(lead * sympy.prod([z - r for r in roots]), z))
    monkeypatch.setattr(polyq, "_gcd_degree", no_gcd_over_q)
    assert all(polyq.is_squarefree(p) for p in checked)
    for expr in (z * (z - ell), (z - 2) ** 2, ell * z**2 + 1):
        with pytest.raises(AssertionError, match="fallback reached"):
            polyq.is_squarefree(sympy_to_coeffs(expr, z))


def test_exact_route_when_the_prime_divides_the_lead(monkeypatch):
    """With MODULUS a prime that divides the leading coefficient of the
    cleared polynomial, the certificate is skipped and the gcd over Q alone
    decides: squarefree inputs, integer and rational, and square-factor
    ones, each against sympy."""
    z = sympy.Symbol("z")
    body = polyq._gcd_degree
    calls = []

    def spy(a, b, modulus=0):
        calls.append(modulus)
        return body(a, b, modulus)

    monkeypatch.setattr(polyq, "_gcd_degree", spy)
    monkeypatch.setattr(polyq, "MODULUS", 7)
    cases = [
        (7 * (z - 1) * (z + 2) * (z - 5), True),
        ((z - sympy.Rational(1, 7)) * (z + 2) * (3 * z**2 + z + 1), True),
        (14 * z**5 + 3 * z**2 - z + 9, True),
        (7 * (z - 1) ** 2 * (z + 2), False),
        ((z - sympy.Rational(1, 7)) ** 3 * (2 * z + 1), False),
    ]
    for expr, expected in cases:
        calls.clear()
        p = sympy_to_coeffs(sympy.expand(expr), z)
        assert linalgq.integer_form(p)[1][-1] % 7 == 0
        assert polyq.is_squarefree(p) == expected
        assert calls == [0]
        assert squarefree_oracles(p) == (expected, expected)


def test_interpolate_matches_sympy():
    """Interpolation on the nodes 0..N of rational values, cleared to ints
    over one denominator, agrees with sympy and evaluates back to the
    sampled values."""
    rng = random.Random(10)
    z = sympy.Symbol("z")
    for _ in range(20):
        ys = [rnd_fraction(rng) for _ in range(rng.randint(1, 7))]
        ours = _interpolant(*_cleared(ys))
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
        cleared, den = polyq.interpolate(*_cleared(ys))
        assert len(cleared) <= top + 1 and all(type(c) is int for c in cleared)
        # Evaluate back in ints over the interpolant's one denominator
        # (tens of thousands of bits here, where Fraction Horner crawls).
        ours = [Fraction(c, den) for c in cleared]
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
    p = poly([big() for _ in range(101)])
    assert _interpolant(*_cleared([polyq.evaluate(p, t) for t in range(101)])) == p
    assert _interpolant(*_cleared([polyq.evaluate(p, t) for t in range(150)])) == p


def _cleared(ys):
    """(ints, den) with ys[t] = ints[t]/den: interpolate's arguments."""
    den, ints = linalgq.integer_form(ys)
    return ints, den


def _interpolant(ys, den):
    """The coefficients of polyq.interpolate(ys, den), its ints over its
    one denominator, as Fractions."""
    ints, total = polyq.interpolate(ys, den)
    return [Fraction(c, total) for c in ints]


def test_interpolate_edge_cases():
    # Int coefficients over N! den, trimmed.
    assert polyq.interpolate([], 1) == ([], 1)
    assert polyq.interpolate([-2], 1) == ([-2], 1)
    assert polyq.interpolate([0, 0, 0], 5) == ([], 10)
    # The line 2z - 1 at 0, 1, 2: the degree drops below len(ys) - 1.
    assert _interpolant([-1, 1, 3], 1) == [Fraction(-1), Fraction(2)]
    # Over the denominator 6: (2z - 1)/6, as the ints -2, 4 over 2! * 6.
    assert polyq.interpolate([-1, 1, 3], 6) == ([-2, 4], 12)
    assert _interpolant([-1, 1, 3], 6) == [Fraction(-1, 6), Fraction(1, 3)]
    # Lagrange basis polynomials are the interpolants of unit vectors.
    for top in (0, 1, 4, 9):
        for k in range(top + 1):
            lk = _interpolant([int(t == k) for t in range(top + 1)], 1)
            assert polyq.degree(lk) == top
            assert [polyq.evaluate(lk, t) for t in range(top + 1)] == [
                int(t == k) for t in range(top + 1)
            ]


def test_discriminant_matches_sympy():
    """A rational p = P/den, cleared by integer_form: the int disc(P) over
    den^(2d-2) is sympy's disc(p), and so is discriminant(p) itself, a
    Fraction."""
    rng = random.Random(8)
    z = sympy.Symbol("z")
    for _ in range(20):
        p = poly([rnd_fraction(rng) for _ in range(rng.randint(3, 6))])
        d = polyq.degree(p)
        if d < 2:
            continue
        den, a = linalgq.integer_form(p)
        ours = polyq.discriminant(a)
        theirs = sympy.discriminant(coeffs_to_sympy(p, z), z)
        assert type(ours) is int
        assert sympy.Rational(ours, den ** (2 * d - 2)) == theirs
        assert polyq.discriminant(p) == Fraction(ours, den ** (2 * d - 2))
        assert type(polyq.discriminant(p)) is Fraction


def test_int_discriminants_of_seeded_polynomials_match_sympy():
    """200 seeded int polynomials: degree 1 (disc 1), lead +-1, a large lead
    and repeated roots (disc 0).  discriminant divides an int by
    lead^((d-1)(d-2)); each value equals sympy's, so the division is exact
    and never truncates."""
    rng = random.Random(200)
    z = sympy.Symbol("z")
    leads = {
        "unit": lambda: rng.choice([-1, 1]),
        "large": lambda: rng.choice([-1, 1]) * rng.randint(10**15, 10**30),
        "any": lambda: rng.choice([-9, -4, 2, 6, 9]),
    }
    cases = [[rng.randint(-50, 50), rng.choice([-7, -1, 1, 3, 10**12])] for _ in range(25)]
    for lead in leads.values():
        for _ in range(50):
            cases.append([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [lead()])
    for _ in range(25):
        # (r1 z + r0)^2 times an int factor of degree 0..4: a repeated root.
        root = coeffs_to_sympy([rng.randint(-6, 6), rng.choice([-3, -1, 1, 2, 5])], z)
        rest = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.choice([-2, 1, 7])]
        square = sympy.Poly(root**2 * coeffs_to_sympy(rest, z), z)
        cases.append([int(c) for c in square.all_coeffs()[::-1]])
    assert len(cases) == 200
    for a in cases:
        ours = polyq.discriminant(a)
        assert type(ours) is int
        assert ours == sympy.discriminant(coeffs_to_sympy(a, z), z)
        if len(a) == 2:
            assert ours == 1
    assert all(polyq.discriminant(a) == 0 for a in cases[-25:])


def _sylvester_resultant(a, b):
    """Res(a, b) as the determinant of the Sylvester matrix, in sympy.  (The
    oracle is built here because sympy 1.14's `resultant` returns Res(b, a)
    when deg a < deg b, which differs in sign when deg a * deg b is odd.)"""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det()


def test_int_coefficients_are_exact():
    """The discriminant of an int coefficient list is an exact int."""
    # (z + 1)^2 (z + 3): a double root, so the discriminant is exactly 0.
    disc = polyq.discriminant([3, 7, 5, 1])
    assert disc == 0 and type(disc) is int
    rng = random.Random(9)
    z = sympy.Symbol("z")
    for _ in range(20):
        a = polyq.trim([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        if polyq.degree(a) < 2:
            continue
        disc = polyq.discriminant(a)
        assert type(disc) is int and disc == sympy.discriminant(coeffs_to_sympy(a, z), z)


def test_discriminant_matches_sylvester_resultant():
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p')/lc(p), with the resultant a
    Sylvester determinant, on int and rational p of degree 1..7, monic or
    not, and on p with repeated roots, whose discriminant is exactly 0.
    Each p = P/den is cleared by integer_form, and the int disc(P) is
    compared as disc(P)/den^(2d-2)."""
    rng = random.Random(12)
    z = sympy.Symbol("z")
    cases = []
    for d in range(1, 8):
        for _ in range(3):
            cases.append([rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-3, 1, 2, 5])])
            cases.append([rnd_fraction(rng) for _ in range(d)] + [rnd_fraction(rng, 1, 4)])
        cases.append([rng.randint(-9, 9) for _ in range(d)] + [1])
    for d in range(2, 8):
        # (z - r)^2 times a random factor of degree d - 2.
        root = coeffs_to_sympy([-rnd_fraction(rng), 1], z)
        rest = coeffs_to_sympy([rnd_fraction(rng) for _ in range(d - 2)] + [Fraction(3, 2)], z)
        cases.append(sympy_to_coeffs(sympy.expand(root**2 * rest), z))
    for p in cases:
        d = polyq.degree(p)
        den, a = linalgq.integer_form(p)
        ours = polyq.discriminant(a)
        assert type(ours) is int
        q = poly(p)
        res = _sylvester_resultant(q, polyq.derivative(q))
        assert Fraction(ours, den ** (2 * d - 2)) == (-1) ** (d * (d - 1) // 2) * res / q[-1]
    assert all(polyq.discriminant(linalgq.integer_form(p)[1]) == 0 for p in cases[-6:])


def test_discriminant_of_z_cubed_minus_one_needs_a_row_swap(monkeypatch):
    """z^3 - 1: the power sums of the cube roots of unity give the Hankel
    matrix [[3, 0, 0], [0, 0, 3], [0, 3, 0]], whose second pivot column is
    zero in its first remaining row, and the discriminant -27."""
    real, seen = linalgq.det, []

    def det(m):
        seen.append([list(row) for row in m])
        return real(m)

    monkeypatch.setattr(linalgq, "det", det)
    assert polyq.discriminant([-1, 0, 0, 1]) == -27
    assert seen == [[[3, 0, 0], [0, 0, 3], [0, 3, 0]]]
    assert polyq.discriminant([Fraction(-1, 2), 0, 0, Fraction(1, 2)]) == Fraction(-27, 16)


@given(st.integers(-(2**300), 2**300), st.integers(2, 70))
def test_digits_read_back_the_value(v, beta):
    """Balanced base-2^beta digits sum back to v, each in
    [-2^(beta-1), 2^(beta-1)), with no zero last digit."""
    ds = polyq.digits(v, beta)
    assert sum(d << (beta * i) for i, d in enumerate(ds)) == v
    assert all(-(1 << beta - 1) <= d < 1 << beta - 1 for d in ds)
    assert not ds or ds[-1]


def test_digits_refuses_a_base_below_4():
    """beta < 2 would leave no digit above 0 for a positive value, so the
    read would never end: it is refused up front."""
    for beta in (1, 0, -3):
        with pytest.raises(ValueError, match="beta >= 2"):
            polyq.digits(5, beta)
    assert polyq.digits(5, 2) == [1, 1]


@given(st.integers(1, 2**80), st.data())
def test_kronecker_beta_is_the_least_exact_base(bound, data):
    """Every int polynomial with coefficients at most bound in size, the
    extremes -bound and bound among them, is read back by digits from its
    value at 2^kronecker_beta(bound); one bit less does not read the
    constant bound back."""
    beta = polyq.kronecker_beta(bound)
    coeffs = data.draw(st.lists(st.sampled_from([-bound, bound]) | st.integers(-bound, bound),
                                max_size=6))
    polyq.trim(coeffs)
    assert polyq.digits(sum(c << beta * i for i, c in enumerate(coeffs)), beta) == coeffs
    if beta > 2:
        assert polyq.digits(bound, beta - 1) != [bound]


def test_discriminant_rejects_constants():
    for constant in ([3], [Fraction(3)]):
        with pytest.raises(ArithmeticError):
            polyq.discriminant(constant)


def test_from_roots_and_to_string():
    z = sympy.Symbol("z")
    p = sympy_to_coeffs(z * (z - 1), z)
    assert p == [Fraction(0), Fraction(-1), Fraction(1)]
    assert to_string(p) == "-1*z + z^2"
    assert to_string([]) == "0"
