import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from logahoric import linalgq, polyq
from support import coeffs_to_sympy, matrix_to_sympy, rnd_fraction, rnd_matrix


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
    # Plain ints are converted, not divided as floats.
    inv = linalgq.inverse([[3, 1], [1, 1]])
    assert inv == [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    assert all(type(x) is Fraction for row in inv for x in row)


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
    # Plain ints are converted, not divided as floats.
    basis = linalgq.nullspace([[1, 3]])
    assert basis == [[Fraction(-3), Fraction(1)]]
    assert all(type(x) is Fraction for v in basis for x in v)


def _sympy_rank(m):
    return matrix_to_sympy(m).rank() if m and m[0] else 0


def _check_rank(m):
    """rank equals sympy's, satisfies rank-nullity with nullspace and is
    unchanged by transposition; returns it."""
    r = linalgq.rank(m)
    cols = len(m[0]) if m else 0
    assert r == _sympy_rank(m)
    assert r + len(linalgq.nullspace(m)) == cols
    assert linalgq.rank([list(col) for col in zip(*m)]) == r
    return r


def test_rank_matches_sympy_and_nullity():
    rng = random.Random(21)
    seen = set()
    for _ in range(120):
        rows, cols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        # A product through an inner dimension caps the rank at inner.
        left = [[rnd_fraction(rng, -3, 3, 5) for _ in range(inner)] for _ in range(rows)]
        right = [[rnd_fraction(rng, -3, 3, 7) for _ in range(cols)] for _ in range(inner)]
        m = [
            [
                sum((lrow[t] * right[t][j] for t in range(inner)), Fraction(0))
                for j in range(cols)
            ]
            for lrow in left
        ]
        edit = rng.randrange(5)
        if edit == 0 and rows > 1:
            m[-1] = list(m[0])  # duplicate row
        elif edit == 1 and rows > 1:
            m[-1] = [x * Fraction(-7, 3) for x in m[0]]  # proportional row
        elif edit == 2:
            m[rng.randrange(rows)] = [Fraction(0)] * cols  # zero row
        elif edit == 3:
            c = rng.randrange(cols)
            for row in m:
                row[c] = Fraction(0)  # zero column
        r = _check_rank(m)
        assert r <= min(inner, rows, cols)
        seen.add(r)
    assert seen == {0, 1, 2, 3, 4}


def test_rank_edge_cases():
    assert linalgq.rank([]) == 0
    assert linalgq.rank([[]]) == 0
    assert linalgq.rank([[], []]) == 0
    assert linalgq.rank(linalgq.zeros(3, 5)) == 0
    assert _check_rank([[Fraction(0), Fraction(1, 3), Fraction(-2, 7)]]) == 1  # 1 x n
    assert _check_rank([[Fraction(0)], [Fraction(5, 2)], [Fraction(1)]]) == 1  # n x 1
    assert _check_rank([[Fraction(0)], [Fraction(0)]]) == 0
    # Mixed denominators within a row and across rows.
    m = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
        [Fraction(3, 2), Fraction(1), Fraction(3, 5)],
        [Fraction(1, 7), Fraction(-1, 9), Fraction(0)],
    ]
    assert _check_rank(m) == 2
    # A pivot-free leading column, then a skipped middle column.
    assert _check_rank([[0, 1, 2, 3], [0, 2, 4, 7], [0, 3, 6, 1]]) == 2
    assert linalgq.rank([[2, 4], [1, 2]]) == 1  # plain ints
    assert linalgq.rank(linalgq.identity(6)) == 6
    assert linalgq.integer_row([Fraction(1, 2), Fraction(-1, 3), 0, 2]) == [3, -2, 0, 12]
    assert linalgq.integer_row([]) == []


RATIONALS = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)


@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(RATIONALS, min_size=cols, max_size=cols), min_size=1, max_size=5
        )
    ),
    st.data(),
)
def test_rank_property_random_rationals(m, data):
    # Append a combination of existing rows: the rank must not move.
    r = _check_rank(m)
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(m), max_size=len(m)))
    combo = [
        sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0))
        for j in range(len(m[0]))
    ]
    assert _check_rank(m + [combo]) == r


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
