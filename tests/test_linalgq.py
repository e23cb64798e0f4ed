import random
from fractions import Fraction

import pytest
import sympy

from logahoric import linalgq, polyq
from support import coeffs_to_sympy, matrix_to_sympy, rnd_matrix


def test_det_and_rank_match_sympy():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n)
        sm = matrix_to_sympy(m)
        d = linalgq.det(m)
        assert sympy.Rational(d.numerator, d.denominator) == sm.det()
        assert linalgq.rank(m) == sm.rank()


def test_inverse_and_singular():
    rng = random.Random(12)
    found = 0
    while found < 10:
        m = rnd_matrix(rng, 3)
        if linalgq.det(m) == 0:
            continue
        found += 1
        inv = linalgq.inverse(m)
        assert linalgq.mat_eq(linalgq.mat_mul(m, inv), linalgq.identity(3))
    # The 3x3 has no pivot in its middle column but has one in the last.
    for singular in ([[1, 2], [2, 4]], [[1, 2, 0], [2, 4, 0], [0, 0, 1]]):
        with pytest.raises(ArithmeticError):
            linalgq.inverse(linalgq.mat(singular))


def test_nullspace_is_right_kernel():
    rng = random.Random(13)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        basis = linalgq.nullspace(m)
        sm = matrix_to_sympy(m) if rows else None
        assert len(basis) == cols - linalgq.rank(m)
        for v in basis:
            image = [
                sum((m[i][j] * v[j] for j in range(cols)), Fraction(0))
                for i in range(rows)
            ]
            assert all(x == 0 for x in image)
        if sm is not None:
            assert len(basis) == len(sm.nullspace())
    zero = linalgq.zeros(2, 3)
    assert linalgq.rank(zero) == 0
    assert linalgq.nullspace(zero) == linalgq.identity(3)


def test_char_coeffs_match_sympy_charpoly():
    """Faddeev-LeVerrier output equals sympy's characteristic polynomial."""
    rng = random.Random(14)
    lam = sympy.Symbol("lam")
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n)
        cs = linalgq.char_coeffs(m)
        ours = coeffs_to_sympy(cs, lam)
        theirs = matrix_to_sympy(m).charpoly(lam).as_expr()
        assert sympy.expand(ours - theirs) == 0


def test_invariant_values_trace_and_det():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n)
        vals = linalgq.invariant_values(m)
        assert vals[0] == linalgq.trace(m)
        assert vals[-1] == linalgq.det(m)


def test_poly_ring_det():
    # det over Q[z] of [[z, 1], [0, z]] is z^2
    z = polyq.poly([0, 1])
    one = polyq.poly([1])
    m = [[z, one], [[], z]]
    assert linalgq.det(m, linalgq.POLY_RING) == polyq.poly([0, 0, 1])


def test_commutator_and_trace_identities():
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randint(2, 4)
        a, b = rnd_matrix(rng, n), rnd_matrix(rng, n)
        assert linalgq.trace(linalgq.commutator(a, b)) == 0
        assert linalgq.mat_eq(
            linalgq.commutator(a, b),
            linalgq.mat_scale(linalgq.commutator(b, a), Fraction(-1)),
        )
