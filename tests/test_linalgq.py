import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from logahoric import linalgq, poisson
from logahoric.errors import ConfigError, ShapeError
from support import (
    coeffs_to_sympy,
    evaluate,
    fraction_matrix,
    mat_eq,
    mat_scale,
    matrix_to_sympy,
    rnd_fraction,
    rnd_invertible,
    rnd_matrix,
    site_invariant_polynomials,
    trace,
)


def _fractions(rows):
    """sympy rationals, row by row, as Fractions."""
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]


def _low_rank(rng, rows, cols, inner):
    """A random rational rows x cols matrix of rank at most inner."""
    left = [[rnd_fraction(rng, -3, 3, 5) for _ in range(inner)] for _ in range(rows)]
    right = [[rnd_fraction(rng, -3, 3, 7) for _ in range(cols)] for _ in range(inner)]
    return [
        [sum((lrow[t] * right[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
        for lrow in left
    ]


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
        assert mat_eq(linalgq.mat_mul(m, inv), linalgq.identity(3))
    # The 3x3 has no pivot in its middle column but has one in the last.
    for singular in ([[1, 2], [2, 4]], [[1, 2, 0], [2, 4, 0], [0, 0, 1]]):
        with pytest.raises(ArithmeticError):
            linalgq.inverse(fraction_matrix(singular))
    # Equal to sympy's inverse for n = 1..5; rank n - 1 is refused.
    for n in range(1, 6):
        for _ in range(4):
            m = rnd_invertible(rng, n)
            assert linalgq.inverse(m) == _fractions(matrix_to_sympy(m).inv().tolist())
            with pytest.raises(ArithmeticError):
                linalgq.inverse(_low_rank(rng, n, n, n - 1))
    assert linalgq.inverse([]) == []
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
            assert basis == _fractions(sm.nullspace())
    # Exactly sympy's basis on wide, tall, zero and rank-deficient rational
    # matrices.
    for rows, cols, inner in [
        (2, 5, 2), (1, 4, 1), (3, 6, 2), (5, 2, 2), (6, 3, 1), (4, 1, 1),
        (3, 3, 0), (2, 4, 0), (4, 4, 3), (5, 5, 2), (4, 6, 3),
    ]:
        for _ in range(4):
            m = _low_rank(rng, rows, cols, inner)
            assert linalgq.nullspace(m) == _fractions(matrix_to_sympy(m).nullspace())
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
        m = _low_rank(rng, rows, cols, inner)
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
    assert linalgq.integer_form([Fraction(1, 2), Fraction(-1, 3), 0, 2]) == (6, [3, -2, 0, 12])
    assert linalgq.integer_form([]) == (1, [])


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
    """The Berkowitz recursion equals sympy's characteristic polynomial,
    over Fractions and plain ints: Fractions in, Fractions out; ints in,
    ints out."""
    rng = random.Random(14)
    lam = sympy.Symbol("lam")
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n)
        cs = linalgq.char_coeffs(m)
        assert all(type(c) is Fraction for c in cs)
        ours = coeffs_to_sympy(cs, lam)
        theirs = matrix_to_sympy(m).charpoly(lam).as_expr()
        assert sympy.expand(ours - theirs) == 0
        # The same matrix with plain-int entries, scaled to clear denominators.
        ints = [[int(x * 6) for x in row] for row in m]
        cs = linalgq.char_coeffs(ints)
        assert all(type(c) is int for c in cs) and cs[-1] == 1
        assert type(linalgq.det(ints)) is int
        theirs = sympy.Matrix(ints).charpoly(lam).as_expr()
        assert sympy.expand(coeffs_to_sympy(cs, lam) - theirs) == 0
    assert linalgq.char_coeffs([]) == [1] and type(linalgq.char_coeffs([])[0]) is int
    assert linalgq.det([]) == 1


@st.composite
def char_matrices(draw, kinds=("dense", "nilpotent", "scalar", "repeated"), mixed=False):
    """(kind, matrix): an n x n matrix, n = 0..6, with all-int or all-Fraction
    entries, of one of kinds.  Nilpotent and repeated-eigenvalue matrices
    are a triangular T conjugated by an integer unipotent L, L T L^-1; a
    scalar matrix is c*I, a zero matrix 0.  With mixed, some Fraction
    matrices hold their integral entries as plain ints."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(kinds))
    ints = draw(st.booleans())
    mixed = mixed and not ints and draw(st.sampled_from([True, False]))
    entries = st.integers(-9, 9) if ints else RATIONALS
    zero = 0 if ints else Fraction(0)
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    if kind == "zero":
        return kind, _mixed([[zero] * n for _ in range(n)], mixed)
    if kind == "dense":
        return kind, _mixed(draw(square), mixed)
    if kind == "scalar":
        c = draw(entries)
        return kind, _mixed([[c if i == j else zero for j in range(n)] for i in range(n)], mixed)
    t = draw(square)
    diag = [zero] if kind == "nilpotent" else draw(st.lists(entries, min_size=1, max_size=2))
    for i in range(n):
        t[i][:i + 1] = [zero] * i + [diag[i % len(diag)]]
    lower = sympy.Matrix(n, n, lambda i, j: draw(st.integers(-2, 2)) if j < i else int(i == j))
    conj = lower * matrix_to_sympy([list(map(Fraction, row)) for row in t]) * lower.inv()
    return kind, _mixed([
        [int(x) if ints else Fraction(int(x.p), int(x.q)) for x in row] for row in conj.tolist()
    ], mixed)


def _ring(m):
    """int for a matrix of ints only (the empty one included), else Fraction:
    the type of every char_coeffs and det value of m."""
    return int if all(type(x) is int for row in m for x in row) else Fraction


def _mixed(m, mixed):
    """m, with each integral Fraction entry made a plain int when mixed."""
    if not mixed:
        return m
    return [[int(x) if x.denominator == 1 else x for x in row] for row in m]


@given(char_matrices())
def test_char_coeffs_property_against_sympy(kind_matrix):
    """char_coeffs equals sympy's charpoly on int and Fraction matrices of
    size 0..6, nilpotent, scalar and repeated-eigenvalue ones included; every
    coefficient is an int for an int matrix and a Fraction otherwise."""
    kind, m = kind_matrix
    n = len(m)
    cs = linalgq.char_coeffs(m)
    assert len(cs) == n + 1 and all(type(c) is _ring(m) for c in cs)
    if n:
        lam = sympy.Symbol("lam")
        sm = matrix_to_sympy([list(map(Fraction, row)) for row in m])
        theirs = sympy.Poly(sm.charpoly(lam).as_expr(), lam).all_coeffs()[::-1]
        assert cs == [Fraction(int(c.p), int(c.q)) for c in theirs]
    else:
        assert cs == [1]
    if kind == "nilpotent":
        assert cs == [0] * n + [1]
    if kind == "scalar" and n:
        c = Fraction(m[0][0])
        assert cs == [math.comb(n, k) * (-c) ** (n - k) for k in range(n + 1)]


@given(char_matrices(("dense", "nilpotent", "scalar", "repeated", "zero"), mixed=True))
def test_cleared_char_coeffs_det_inverse_against_sympy(kind_matrix):
    """On int, Fraction and mixed int/Fraction matrices of size 0..6 (zero,
    scalar, nilpotent and repeated-eigenvalue ones included), char_coeffs,
    det and inverse, which clear the matrix to ints first, equal sympy's
    charpoly, det and inverse: char_coeffs and det as ints for an int matrix
    and as Fractions otherwise, inverse as Fractions."""
    kind, m = kind_matrix
    n = len(m)
    sm = matrix_to_sympy([list(map(Fraction, row)) for row in m])
    cs = linalgq.char_coeffs(m)
    assert all(type(c) is _ring(m) for c in cs)
    lam = sympy.Symbol("lam")
    theirs = sympy.Poly(sm.charpoly(lam).as_expr(), lam).all_coeffs()[::-1] if n else [1]
    assert [sympy.Rational(c.numerator, c.denominator) for c in cs] == theirs
    d = linalgq.det(m)
    assert type(d) is _ring(m)
    if not n:
        assert d == 1 and linalgq.inverse(m) == []
    elif d == 0:
        assert sm.det() == 0
        with pytest.raises(ArithmeticError):
            linalgq.inverse(m)
    else:
        assert sympy.Rational(d.numerator, d.denominator) == sm.det()
        assert linalgq.inverse(m) == _fractions(sm.inv().tolist())
    if kind in ("zero", "nilpotent"):
        assert cs == [0] * n + [1]


@st.composite
def det_matrices(draw):
    """An n x n matrix, n = 0..6, of ints, of Fractions, or of both, drawn so
    that leading minors often vanish: either about half its entries zero,
    or the rows of an upper-triangular matrix with a non-zero diagonal in a
    drawn order, which needs a row swap for every order that moves a row."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    ints = st.integers(-9, 9)
    entry = {"int": ints, "fraction": RATIONALS, "mixed": st.one_of(ints, RATIONALS)}[kind]
    zero = 0 if kind == "int" else Fraction(0)
    sparse = st.one_of(st.just(zero), entry)
    if draw(st.booleans()):
        return [[draw(sparse) for _ in range(n)] for _ in range(n)]
    order = draw(st.permutations(range(n)))
    diagonal = entry.filter(bool)
    upper = [[draw(diagonal) if i == j else draw(sparse) if j > i else zero for j in range(n)]
             for i in range(n)]
    return [upper[i] for i in order]


@given(det_matrices())
@example([[0, 1], [1, 0]])
@example([[3, 0, 0], [0, 0, 3], [0, 3, 0]])
@example([[Fraction(0), 2, 0], [0, 0, Fraction(1, 2)], [Fraction(-3), 0, 0]])
def test_det_matches_sympy_through_row_swaps(m):
    """det equals sympy's det on int, Fraction and mixed matrices of size
    0..6, those with zero leading minors included, where the elimination
    picks pivots out of row order: an int for an int matrix (the empty one
    included), a Fraction otherwise, zero included."""
    d = linalgq.det(m)
    assert type(d) is _ring(m)
    theirs = matrix_to_sympy([list(map(Fraction, row)) for row in m]).det() if m else 1
    assert sympy.Rational(d.numerator, d.denominator) == theirs


def test_det_sign_follows_the_row_order():
    """Every row order of diag(2, ..., n + 1), n = 0..5, in ints and over a
    denominator 3: det is the diagonal product times the sign of the order."""
    for n in range(6):
        for order in itertools.permutations(range(n)):
            inversions = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
            value = (-1) ** inversions * math.factorial(n + 1)
            rows = [[(k + 2) * (j == k) for j in range(n)] for k in order]
            assert linalgq.det(rows) == value and type(linalgq.det(rows)) is int
            thirds = [[Fraction(x, 3) for x in row] for row in rows]
            assert linalgq.det(thirds) == Fraction(value, 3**n)


DECIMALS = "0123456789\u0663\u0966\uff17"  # with Arabic-Indic, Devanagari, fullwidth


@st.composite
def ratio_strings(draw):
    """Strings of the "[-]digits[/digits]" form, leading zeros, non-ASCII
    decimal digits and huge ints included (past 640 characters, and past
    int()'s default limit of 4300 digits)."""
    def digits():
        pad = draw(st.sampled_from(["", "", "0", "00", "0" * 700, "9" * 700, "9" * 5000]))
        return pad + draw(st.text(alphabet=DECIMALS, min_size=1, max_size=6))

    text = draw(st.sampled_from(["", "-"])) + digits()
    return text + "/" + digits() if draw(st.booleans()) else text


@given(st.one_of(
    ratio_strings(),
    st.text(alphabet="0123456789-+/ _.e\u0663\u00b2", max_size=8),
    st.integers(), RATIONALS, st.booleans(), st.floats(allow_nan=False), st.none(),
    st.lists(st.integers(), max_size=1),
))
@example("0")
@example("-0")
@example("0/7")
@example("-0/5")
@example("007/0021")
@example("3/0")
@example("-\u0663/\u0966\uff17")
@example("9" * 640)
@example("9" * 641)
def test_ratio_reads_what_rational_reads(value):
    """linalgq.ratio gives the int pair (p, q), q > 0, in lowest terms, of
    what linalgq.rational reads, and refuses what rational refuses with the
    same error and message, for both error classes."""
    for error in (ShapeError, ConfigError):
        try:
            expected = linalgq.rational(value, "x", error)
        except error as exc:
            with pytest.raises(error) as caught:
                linalgq.ratio(value, "x", error)
            assert str(caught.value) == str(exc)
        else:
            p, q = linalgq.ratio(value, "x", error)
            assert type(p) is int and type(q) is int and q > 0 and math.gcd(p, q) == 1
            assert Fraction(p, q) == expected


def test_rational_char_coeffs_run_on_ints(monkeypatch):
    """A matrix with Fraction entries reaches the Berkowitz body of
    char_coeffs, and the elimination of det, cleared to ints, once each;
    det runs no Berkowitz.  A matrix of Poisson polynomials is not numbers
    and raises TypeError in both."""
    seen = []
    body, echelon = linalgq._berkowitz, linalgq._echelon

    def spy(m):
        seen.append(("berkowitz", {type(x) for row in m for x in row}))
        return body(m)

    def echelon_spy(m):
        seen.append(("echelon", {type(x) for row in m for x in row}))
        return echelon(m)

    monkeypatch.setattr(linalgq, "_berkowitz", spy)
    monkeypatch.setattr(linalgq, "_echelon", echelon_spy)
    m = [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5)]]
    assert linalgq.char_coeffs(m) == [Fraction(5, 2) + 2, Fraction(-11, 2), 1]
    assert seen == [("berkowitz", {int})]
    assert linalgq.det(m) == Fraction(9, 2)
    assert seen == [("berkowitz", {int}), ("echelon", {int})]
    alg = poisson.LiePoissonAlgebra(1, 1)
    for route in (linalgq.char_coeffs, linalgq.det):
        with pytest.raises(TypeError):
            route([[alg.generator(0, 0, 0)]])


@pytest.mark.parametrize("bad", [0.1, True])
def test_matrix_functions_refuse_a_float_or_a_bool_entry(bad):
    """char_coeffs, det, rank, nullspace and inverse clear an entry that is
    neither an int nor a Fraction through linalgq.rational with TypeError,
    so a float is not taken at its binary value (det [[0.1]] once gave
    3602879701896397/36028797018963968) and a bool is not taken as 0 or 1
    (rank [[0.5, True]] once gave 1)."""
    m = [[2, 1], [bad, 1]]
    for route in (linalgq.char_coeffs, linalgq.det, linalgq.rank, linalgq.nullspace,
                  linalgq.inverse):
        with pytest.raises(TypeError, match="^matrix entry: "):
            route(m)


SITE_ALGEBRAS = [poisson.LiePoissonAlgebra(n, s) for n in range(1, 5) for s in (1, 2)]


@given(st.sampled_from(SITE_ALGEBRAS), st.integers(0, 2**32))
def test_site_invariant_polynomials_evaluate_to_invariant_values(alg, seed):
    """The principal-minor sums of a site's matrix of generators, evaluated
    at a seeded rational point, are the numeric invariant_values (Berkowitz)
    of the site's matrix there."""
    rng = random.Random(seed)
    n = alg.matrix_size
    point = [rnd_matrix(rng, n) for _ in range(alg.site_count)]
    for j in range(alg.site_count):
        invs = site_invariant_polynomials(alg, j)
        assert [evaluate(inv, point) for inv in invs] == linalgq.invariant_values(point[j])


def test_invariant_values_trace_and_det():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n)
        vals = linalgq.invariant_values(m)
        assert vals[0] == trace(m)
        assert vals[-1] == linalgq.det(m)


def test_commutator_and_trace_identities():
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randint(2, 4)
        a, b = rnd_matrix(rng, n), rnd_matrix(rng, n)
        assert trace(linalgq.commutator(a, b)) == 0
        assert mat_eq(
            linalgq.commutator(a, b),
            mat_scale(linalgq.commutator(b, a), Fraction(-1)),
        )
