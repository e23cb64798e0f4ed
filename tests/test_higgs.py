import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logahoric import higgs, linalgq, poisson, polyq
from logahoric.errors import (
    ConstraintError,
    DivisorError,
    ShapeError,
    TraceError,
    UnsupportedRealizationError,
)
from logahoric.higgs import (
    build_field,
    clear_denominators,
    gaudin_hamiltonians,
    gaudin_values,
    hitchin_map,
    quotient_diagram_check,
    residue_of_invariant,
    spectral_curve,
    spectral_genus,
)
from logahoric.rootsys import GroupTag, RationalCocharacter
from support import (
    E2,
    F2,
    H2,
    coeffs_to_sympy,
    evaluate,
    fraction_matrix,
    is_strongly_logarithmic_image,
    lax_value,
    make_traceless,
    mat_eq,
    mat_scale,
    matrix_to_sympy,
    poly,
    reference_char_coeff_polys,
    reference_gaudin_values,
    reference_hitchin_hamiltonians,
    reference_lax_matrix,
    reference_residue_invariants,
    rnd_field,
    rnd_fraction,
    rnd_invertible,
    rnd_matrix,
    rnd_points,
    squarefree_oracles,
    strictly_upper,
    sympy_to_coeffs,
    trace,
    with_sum_zero,
)

SL2 = GroupTag("A", 1, "SL")
GL2 = GroupTag("A", 1, "GL")


def efh_field():
    minus = [[Fraction(0), Fraction(-1)], [Fraction(-1), Fraction(0)]]
    return build_field([0, 1, 2], [E2, F2, minus], SL2)


def heh_field():
    third = [[Fraction(-1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    return build_field([0, 1, 2], [H2, E2, third], SL2)


# -- construction ------------------------------------------------------------


def test_build_field_examples():
    f = efh_field()
    assert f.regular_at_infinity
    g = build_field([0, 1], [H2, H2], SL2)
    assert not g.regular_at_infinity
    zero = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    assert zero.regular_at_infinity
    # a field stores its cleared form only: regularity is read from the
    # residues, not set by whoever builds the field
    assert [fl.name for fl in dataclasses.fields(higgs.LogHiggsField)] == [
        "group", "theta_data", "cleared"
    ]


def test_build_field_validation():
    with pytest.raises(DivisorError, match="nonempty"):
        build_field([], [], SL2)
    with pytest.raises(DivisorError, match="distinct"):
        build_field([0, 0], [E2, F2], SL2)
    with pytest.raises(TraceError, match=r"^residue 0 has trace 1; SL mode needs 0$"):
        build_field([0], [[[1, 0], [0, 0]]], SL2)
    # the trace is tested on the cleared ints and worded from the rationals
    with pytest.raises(TraceError, match=r"^residue 1 has trace 1/6; SL mode needs 0$"):
        build_field([0, 1], [[["1/3", 0], [0, "-1/3"]], [["1/2", 0], [0, "-1/3"]]], SL2)
    with pytest.raises(ShapeError):
        build_field([0, 1], [E2], SL2)
    # the same residue is fine for GL
    build_field([0], [[[1, 0], [0, 0]]], GL2)


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def residue_sums(draw):
    """(n, form, points, residues, regular): s - 1 rational residues (trace
    zero in SL mode) and a last one that is minus their sum, or that plus
    E_pq/m, which leaves the sum non-zero (p != q in SL mode)."""
    n = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5))
    form = "GL" if n == 1 else draw(st.sampled_from(["SL", "GL"]))
    points = draw(st.lists(RATIONALS, min_size=s, max_size=s, unique=True))
    mats = []
    for _ in range(s - 1):
        m = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(n)]
        mats.append(make_traceless(m) if form == "SL" else m)
    last = [[-sum((m[p][q] for m in mats), Fraction(0)) for q in range(n)] for p in range(n)]
    regular = draw(st.booleans())
    if not regular:
        p = draw(st.integers(0, n - 1))
        q = draw(st.integers(0, n - 1).filter(lambda q: form == "GL" or q != p))
        last[p][q] += Fraction(1, draw(st.integers(1, 7)))
    return n, form, points, mats + [last], regular


@given(residue_sums())
def test_regular_at_infinity_matches_fraction_sum(case):
    """The int residue-sum test gives the verdict of a plain Fraction sum of
    the residues, on a field from build_field and on one from the CLI's
    reads (field_from_read of linalgq.ratio pairs)."""
    n, form, points, residues, regular = case
    total = [
        [sum((m[p][q] for m in residues), Fraction(0)) for q in range(n)] for p in range(n)
    ]
    assert all(x == 0 for row in total for x in row) == regular
    group = GroupTag("A", n - 1, form)
    assert build_field(points, residues, group).regular_at_infinity == regular
    pairs = [[x.as_integer_ratio() for row in m for x in row] for m in residues]
    assert higgs.field_from_read(points, pairs, group).regular_at_infinity == regular


# -- polynomial Lax form -----------------------------------------------------


def test_clear_denominators_worked_example():
    a = clear_denominators(efh_field())
    # [[0, -2(z-1)], [-z, 0]]
    assert a.coeffs == ([[0, 2], [0, 0]], [[0, -2], [-1, 0]])
    assert a.degree == 1


def test_clear_denominators_two_point_constant():
    x = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(-2)]]
    neg = mat_scale(x, Fraction(-1))
    f = build_field([Fraction(1, 2), Fraction(5, 2)], [x, neg], SL2)
    a = clear_denominators(f)
    assert a.degree == 0
    assert mat_eq(a.coeffs[0], mat_scale(x, Fraction(-2)))


def test_degree_bound_random():
    """Zero residue sum caps deg A at s-2; breaking it restores s-1."""
    rng = random.Random(88)
    for _ in range(50):
        n = rng.randint(2, 3)
        s = rng.randint(2, 5)
        f = rnd_field(rng, n, s)
        assert clear_denominators(f).degree <= s - 2
        g = rnd_field(rng, n, s, sum_zero=False)
        if not g.regular_at_infinity:
            assert clear_denominators(g).degree == s - 1


def test_degree_bound_is_the_degree_of_a():
    """_degree_bound, the sample count of every interpolation, is the true
    degree of A on generic fields: s - 1 for s = 1..7 with a non-zero residue
    sum, s - 2 for s = 2..7 with a zero one.  A bound past the degree leaves
    every value the same and only costs samples, so no value test sees it."""
    rng = random.Random(87)
    shapes = [(s, False) for s in range(1, 8)] + [(s, True) for s in range(2, 8)]
    for n in (2, 3):
        for form in ("SL", "GL"):
            for s, sum_zero in shapes:
                f = rnd_field(rng, n, s, form=form, sum_zero=sum_zero)
                assert f.regular_at_infinity == sum_zero
                assert higgs._degree_bound(f) == clear_denominators(f).degree


def test_polynomial_matrix_evaluate_matches_field():
    rng = random.Random(89)
    for _ in range(20):
        f = rnd_field(rng, 2, rng.randint(2, 4))
        a = clear_denominators(f)
        z = Fraction(rng.randint(7, 12))
        prefactor = Fraction(1)
        for x in f.points:
            prefactor *= z - x
        value = linalgq.zeros(2)
        for k, m in enumerate(a.coeffs):
            value = linalgq.mat_add(value, mat_scale(m, z**k))
        assert mat_eq(value, mat_scale(lax_value(f, z), prefactor))


# -- Hitchin map --------------------------------------------------------------


def test_hitchin_map_worked_examples():
    image = hitchin_map(efh_field())
    assert image.degrees == (2,)
    assert image.ambient_dims == (3,)
    assert image.sections[0] == poly([0, 2, -2])

    image2 = hitchin_map(heh_field())
    # det A(z) = -4(z-1)^2
    assert image2.sections[0] == poly([-4, 8, -4])


def test_hitchin_map_gl_includes_trace():
    f = build_field([0, 1], [[[1, 0], [0, 0]], [[-1, 0], [0, 0]]], GL2)
    image = hitchin_map(f)
    assert image.degrees == (1, 2)
    a = clear_denominators(f)
    assert image.sections[0] == poly(m[0][0] + m[1][1] for m in a.coeffs)


def test_hitchin_map_zero_field():
    f = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    assert all(sec == [] for sec in hitchin_map(f).sections)


def test_hitchin_map_conjugation_invariant():
    rng = random.Random(90)
    for _ in range(15):
        n = rng.randint(2, 3)
        f = rnd_field(rng, n, rng.randint(2, 4))
        g = rnd_invertible(rng, n)
        ginv = linalgq.inverse(g)
        conj = [
            linalgq.mat_mul(g, linalgq.mat_mul(x, ginv)) for x in f.residues
        ]
        fc = build_field(f.points, conj, f.group)
        assert hitchin_map(fc).sections == hitchin_map(f).sections


@pytest.mark.parametrize("s", [1, 2])
def test_hitchin_and_diagram_check_at_one_and_two_points(s):
    """hitchin_map and quotient_diagram_check at s = 1 and 2, SL and GL,
    residue sum zero or not: each section is sympy's e_i of the symbolic
    A(z) and lies in its ambient space, and every diagram row has equal
    routes."""
    rng = random.Random(98 + s)
    z, lam = sympy.symbols("z lam")
    for n in (2, 3):
        for form in ("SL", "GL"):
            for sum_zero in (True, False):
                f = rnd_field(rng, n, s, form=form, sum_zero=sum_zero)
                image = hitchin_map(f)
                char = sympy.Poly(reference_lax_matrix(f, z).charpoly(lam).as_expr(), lam)
                assert image.degrees == tuple(higgs.invariant_degrees(f))
                for i, sec, dim in zip(image.degrees, image.sections, image.ambient_dims):
                    e_i = (-1) ** i * char.coeff_monomial(lam ** (n - i))
                    assert sec == sympy_to_coeffs(sympy.expand(e_i), z)
                    assert len(sec) <= dim
                report = quotient_diagram_check(f)
                assert len(report.rows) == s * len(image.degrees)
                assert all(row.residue_route == row.moment_route for row in report.rows)
                assert report.all_equal


def test_hitchin_ambient_dims_follow_regularity():
    """ambient_dims counts the polynomials of degree at most i*(s'-2), with
    s' = s + 1 when infinity is a pole, and is 0 when that bound is negative;
    every section lies in its ambient space."""
    f = build_field(
        [0, 1, 2], [[[1, 2], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [3, -1]]], SL2
    )
    image = hitchin_map(f)
    assert not f.regular_at_infinity
    assert polyq.degree(image.sections[0]) == 4 and image.ambient_dims == (5,)
    rng = random.Random(95)
    assert hitchin_map(rnd_field(rng, 3, 1)).ambient_dims == (0, 0)
    assert hitchin_map(rnd_field(rng, 2, 1, "GL", sum_zero=False)).ambient_dims == (1, 1)
    assert hitchin_map(rnd_field(rng, 3, 2)).ambient_dims == (1, 1)
    for _ in range(20):
        n, s = rng.randint(1, 4), rng.randint(1, 5)
        form = "GL" if n == 1 else rng.choice(["SL", "GL"])
        g = rnd_field(rng, n, s, form, sum_zero=rng.random() < 0.5)
        image = hitchin_map(g)
        top = s - 2 if g.regular_at_infinity else s - 1
        assert image.ambient_dims == tuple(max(i * top + 1, 0) for i in image.degrees)
        assert all(polyq.degree(c) < dim for c, dim in zip(image.sections, image.ambient_dims))


def test_hitchin_map_rejects_non_type_a():
    f = efh_field()
    bad = dataclasses.replace(f, group=GroupTag("B", 2, "SL"))
    with pytest.raises(UnsupportedRealizationError):
        hitchin_map(bad)
    with pytest.raises(UnsupportedRealizationError):
        spectral_curve(bad)


# -- Gaudin -------------------------------------------------------------------


def test_gaudin_worked_values():
    values = gaudin_values(efh_field())
    assert values == (Fraction(-1, 2), Fraction(2), Fraction(-3, 2))
    assert sum(values, Fraction(0)) == 0


def test_gaudin_requires_regularity():
    f = build_field([0, 1], [H2, H2], SL2)
    with pytest.raises(ConstraintError):
        gaudin_hamiltonians(f)
    with pytest.raises(ConstraintError, match="residue sum of zero"):
        gaudin_values(f)


def test_gaudin_zero_field():
    f = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    _, hams = gaudin_hamiltonians(f)
    assert [evaluate(h, f.residues) for h in hams] == [Fraction(0), Fraction(0)]
    assert gaudin_values(f) == (Fraction(0), Fraction(0))


def test_gaudin_generating_function_reconstruction():
    """1/2 <L(z),L(z)> re-expands from Casimir and Hamiltonian residues."""
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randint(2, 3)
        s = rng.randint(2, 4)
        f = rnd_field(rng, n, s)
        values = gaudin_values(f)
        for _ in range(10):
            z = Fraction(rng.randint(20, 60), rng.randint(1, 3))
            lz = lax_value(f, z)
            lhs = trace(linalgq.mat_mul(lz, lz)) / 2
            rhs = Fraction(0)
            for j in range(s):
                dz = z - f.points[j]
                cas = trace(linalgq.mat_mul(f.residues[j], f.residues[j])) / 2
                rhs += cas / dz**2 + values[j] / dz
            assert lhs == rhs


@given(
    st.integers(2, 4),
    st.integers(2, 6),
    st.sampled_from(["SL", "GL"]),
    st.sampled_from(["dense", "nilpotent", "repeated"]),
    st.integers(0, 2**32),
)
def test_gaudin_values_are_residues_of_the_hitchin_section(n, s, form, kind, seed):
    """gaudin_values against support.reference_gaudin_values, the residues
    of hitchin_map's quadratic section: SL and GL, n = 2..4, s = 2..6, dense,
    nilpotent and repeated-eigenvalue residues (shifted to trace zero in SL,
    which keeps the eigenvalue multiplicities), at points with denominators
    2 and 3."""
    rng = random.Random(seed)
    points = sorted(rng.sample(NON_INTEGER_POINTS, s))
    residues = _edge_residues(rng, n, kind, s - 1)
    if form == "SL":
        residues = [
            linalgq.mat_sub(m, mat_scale(linalgq.identity(n), trace(m) / n))
            for m in residues
        ]
    f = build_field(points, with_sum_zero(residues), GroupTag("A", n - 1, form))
    assert list(gaudin_values(f)) == reference_gaudin_values(f)


def test_gaudin_two_point_values_are_opposite():
    """At s = 2 the two values are opposite and, for X_1 = -X_2 with
    tr X_1^2 != 0, non-zero: tr(X_1 X_2)/(x_1 - x_2), by both routes."""
    for x, form, first in ((H2, "SL", Fraction(12, 7)), ([[1, 2], [0, 3]], "GL", Fraction(60, 7))):
        f = build_field(
            [Fraction(1, 2), Fraction(5, 3)], [x, mat_scale(x, -1)], GroupTag("A", 1, form)
        )
        assert gaudin_values(f) == (first, -first)
        assert reference_gaudin_values(f) == [first, -first]


# -- spectral curves ----------------------------------------------------------


def test_spectral_curve_worked_example():
    sc = spectral_curve(efh_field())
    # char_coeffs[0] is det(lambda*I - A) at lambda = 0, which is det A for 2x2
    assert sc.char_coeffs[0] == poly([0, 2, -2])
    assert sc.discriminant == poly([0, -8, 8])
    assert sc.is_squarefree
    assert sc.branch_count == 2
    assert sc.genus == 0


def test_spectral_curve_non_squarefree():
    sc = spectral_curve(heh_field())
    # disc = tr^2 - 4 det = 16(z-1)^2 has the double root z=1
    assert not sc.is_squarefree
    assert sc.genus is None


def test_spectral_discriminant_matches_sympy():
    """Interpolated discriminant, characteristic coefficients and invariant
    sections agree with sympy's in the lambda frame."""
    rng = random.Random(92)
    lam, z = sympy.symbols("lam z")

    def exact(coeffs):
        assert not coeffs or coeffs[-1] != 0  # trimmed
        return [sympy.Rational(c.numerator, c.denominator) for c in coeffs]

    def in_z(expr):
        expr = sympy.expand(expr)
        return [] if expr == 0 else sympy.Poly(expr, z).all_coeffs()[::-1]

    def check(f):
        n = f.matrix_size
        # A(z) = sum_j X_j prod_{k != j} (z - x_k), built in sympy.
        sa = sympy.zeros(n, n)
        for j, res in enumerate(f.residues):
            weight = sympy.prod([z - x for k, x in enumerate(f.points) if k != j])
            sa += matrix_to_sympy(res) * weight
        char = sympy.Poly(sa.charpoly(lam).as_expr(), lam)
        theirs = [in_z(char.coeff_monomial(lam**k)) for k in range(n + 1)]
        sc = spectral_curve(f)
        assert [exact(c) for c in sc.char_coeffs] == theirs
        h = hitchin_map(f)
        for i, section in zip(h.degrees, h.sections):
            assert exact(section) == in_z((-1) ** i * char.coeff_monomial(lam ** (n - i)))
        disc = sympy.discriminant(char.as_expr(), lam)
        assert exact(sc.discriminant) == in_z(disc)

    for _ in range(8):
        check(rnd_field(rng, rng.randint(2, 3), 3))
    # n = 4, s = 4, s = 2 (deg A = 0), fields not regular at infinity
    # (deg A = s - 1), GL, and n = 1.
    for n, s, form, sum_zero in [
        (4, 3, "SL", True),
        (4, 4, "SL", True),
        (2, 4, "SL", True),
        (3, 4, "SL", True),
        (2, 2, "SL", True),
        (3, 2, "GL", True),
        (2, 3, "SL", False),
        (3, 4, "SL", False),
        (2, 2, "GL", False),
        (2, 3, "GL", True),
        (3, 3, "GL", False),
        (4, 3, "GL", False),
        (1, 3, "GL", True),
        (1, 2, "GL", False),
    ]:
        check(rnd_field(rng, n, s, form=form, sum_zero=sum_zero))
    # The zero field (deg A = -1), and nilpotent residues, whose
    # characteristic coefficients and discriminant vanish identically.
    check(build_field([0, 1, 2], [linalgq.zeros(3)] * 3, GroupTag("A", 2, "SL")))
    for n, s in [(2, 3), (3, 4), (3, 2)]:
        ups = [strictly_upper(rng, n) for _ in range(s - 1)]
        last = linalgq.zeros(n)
        for u in ups:
            last = linalgq.mat_sub(last, u)
        f = build_field(range(s), ups + [last], GroupTag("A", n - 1, "SL"))
        check(f)
        assert all(c == [] for c in spectral_curve(f).char_coeffs[:n])
    # Regular at infinity with sum_j x_j X_j = 0 too, so deg A < s - 2 and
    # every polynomial in z is sampled past its true degree.
    for n, s in [(2, 4), (3, 5)]:
        xs = rnd_points(rng, s)
        head = [make_traceless(rnd_matrix(rng, n)) for _ in range(s - 2)]
        s0 = linalgq.zeros(n)
        s1 = linalgq.zeros(n)
        for x, m in zip(xs, head):
            s0 = linalgq.mat_add(s0, m)
            s1 = linalgq.mat_add(s1, mat_scale(m, x))
        # X_a + X_b = -s0 and a X_a + b X_b = -s1 at the last two points a, b.
        a, b = xs[-2:]
        xb = mat_scale(linalgq.mat_sub(mat_scale(s0, a), s1), 1 / (b - a))
        xa = linalgq.mat_sub(mat_scale(s0, Fraction(-1)), xb)
        f = build_field(xs, head + [xa, xb], GroupTag("A", n - 1, "SL"))
        assert clear_denominators(f).degree == s - 3
        check(f)


def test_squarefree_verdict_on_discriminants():
    """The certificate-first verdict of spectral_curve agrees with the
    Euclidean route and with sympy's squarefree factorization, on random
    fields and on fields built to have square factors in the discriminant:
    block-diagonal residues (a squared resultant factor), residues of the
    form a_j M + b_j I (A(z) = g(z) M + h(z) I), nilpotent residues and
    residues with repeated eigenvalues."""
    rng = random.Random(93)
    fields = []
    for _ in range(10):
        n, s = rng.randint(2, 4), rng.randint(3, 5)
        form = rng.choice(["SL", "GL"])
        fields.append(rnd_field(rng, n, s, form=form, sum_zero=rng.random() < 0.6))
    for n, s in [(3, 3), (3, 4), (4, 3), (4, 4)]:
        blocks = []
        for _ in range(s - 1):
            m = linalgq.zeros(n)
            for p in range(n):
                for q in range(n):
                    if (p < 2) == (q < 2):
                        m[p][q] = Fraction(rng.randint(-3, 3))
            blocks.append(m)
        fields.append(build_field(range(s), with_sum_zero(blocks), GroupTag("A", n - 1, "GL")))
    for n, s in [(2, 3), (3, 4)]:
        m = rnd_matrix(rng, n)
        mats = [
            linalgq.mat_add(
                mat_scale(m, Fraction(rng.randint(-3, 3))),
                mat_scale(linalgq.identity(n), Fraction(rng.randint(-3, 3))),
            )
            for _ in range(s)
        ]
        fields.append(build_field(range(s), mats, GroupTag("A", n - 1, "GL")))
    for n, s in [(2, 3), (3, 3), (3, 4)]:
        # Conjugates of strictly upper matrices: each residue is nilpotent,
        # but not all in one triangular frame.
        nil = []
        for _ in range(s - 1):
            g = rnd_invertible(rng, n)
            nil.append(
                linalgq.mat_mul(linalgq.mat_mul(g, strictly_upper(rng, n)), linalgq.inverse(g))
            )
        fields.append(build_field(range(s), with_sum_zero(nil), GroupTag("A", n - 1, "SL")))
        # Residues conjugate to a matrix with a 2x2 Jordan block: a repeated,
        # non-semisimple eigenvalue at every point.
        rep = []
        for _ in range(s):
            g = rnd_invertible(rng, n)
            jordan = linalgq.identity(n)
            for p in range(n):
                jordan[p][p] = Fraction(rng.randint(-2, 2))
            jordan[1][1] = jordan[0][0]
            jordan[0][1] = Fraction(1)
            rep.append(linalgq.mat_mul(linalgq.mat_mul(g, jordan), linalgq.inverse(g)))
        fields.append(build_field(range(s), rep, GroupTag("A", n - 1, "GL")))
    verdicts = []
    for f in fields:
        sc = spectral_curve(f)
        if sc.discriminant == []:
            assert not sc.is_squarefree
            continue
        assert sc.is_squarefree == polyq.is_squarefree(sc.discriminant)
        assert squarefree_oracles(sc.discriminant) == (sc.is_squarefree, sc.is_squarefree)
        verdicts.append(sc.is_squarefree)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 8


def _gcd_degree_spy(monkeypatch):
    """Record the modulus of every polyq._gcd_degree call (0 over Q)."""
    body = polyq._gcd_degree
    calls = []

    def spy(a, b, modulus=0):
        calls.append(modulus)
        return body(a, b, modulus)

    monkeypatch.setattr(polyq, "_gcd_degree", spy)
    return calls


def test_spectral_route_runs_without_polynomial_division(monkeypatch):
    """polyq.discriminant of an int list is an int and takes no gcd, and
    spectral_curve on generic
    fields, whose discriminant is squarefree so the modular certificate
    decides, calls polyq._gcd_degree only with the modulus: the gcd over Q,
    which divides remainders by their content, is not reached."""
    calls = _gcd_degree_spy(monkeypatch)
    rng = random.Random(96)
    for _ in range(30):
        p = poly([rnd_fraction(rng) for _ in range(rng.randint(2, 8))])
        if polyq.degree(p) >= 1:
            assert type(polyq.discriminant(linalgq.integer_form(p)[1])) is int
    assert calls == []
    for n, s, form in [(2, 3, "SL"), (2, 5, "GL"), (3, 4, "SL"), (3, 3, "GL"), (4, 3, "SL")]:
        assert spectral_curve(rnd_field(rng, n, s, form)).is_squarefree
    assert len(calls) == 5 and set(calls) == {polyq.MODULUS}


def test_square_factor_discriminant_takes_the_exact_route(monkeypatch):
    """A block-diagonal GL field (blocks 1 + 2, residue sum non-zero) has a
    discriminant with a squared resultant factor: the certificate fails,
    and the gcd over Q gives sympy's gcd degree and squarefree verdict."""
    rng = random.Random(97)
    residues = []
    for _ in range(4):
        m = linalgq.zeros(3)
        for p in range(3):
            for q in range(3):
                if (p < 1) == (q < 1):
                    m[p][q] = Fraction(rng.randint(-3, 3))
        residues.append(m)
    f = build_field(NON_INTEGER_POINTS[:4], residues, GroupTag("A", 2, "GL"))
    calls = _gcd_degree_spy(monkeypatch)
    disc = spectral_curve(f).discriminant
    assert not polyq.is_squarefree(disc)
    assert calls == [polyq.MODULUS, 0] * 2
    z = sympy.Symbol("z")
    expr = coeffs_to_sympy(disc, z)
    shared = sympy.degree(sympy.gcd(expr, sympy.diff(expr, z)), z)
    a = linalgq.integer_form(disc)[1]
    assert shared > 0 and polyq._gcd_degree(a, polyq.derivative(a)) == shared
    assert squarefree_oracles(disc) == (False, False)


def _edge_residues(rng, n, kind, count):
    """count random residues: dense, nilpotent (conjugates of strictly upper
    matrices) or with a repeated, non-semisimple eigenvalue (conjugates of a
    matrix with a 2x2 Jordan block)."""
    out = []
    for _ in range(count):
        if kind == "dense" or n == 1:
            out.append(rnd_matrix(rng, n))
            continue
        g = rnd_invertible(rng, n)
        if kind == "nilpotent":
            inner = strictly_upper(rng, n)
        else:
            inner = linalgq.zeros(n)
            for p in range(n):
                inner[p][p] = Fraction(rng.randint(-2, 2))
            inner[1][1], inner[0][1] = inner[0][0], Fraction(1)
        out.append(linalgq.mat_mul(linalgq.mat_mul(g, inner), linalgq.inverse(g)))
    return out


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["SL", "GL"]),
    st.sampled_from(["dense", "nilpotent", "repeated"]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_spectral_curve_property_against_sympy(n, s, form, kind, sum_zero, halves, seed):
    """spectral_curve against sympy's charpoly and discriminant of the
    symbolic A(z), at the edges: n = 1, s <= 2, nilpotent and
    repeated-eigenvalue residues, GL and SL, regular at infinity or not, and
    integer or non-integer points."""
    rng = random.Random(seed)
    form = "GL" if n == 1 else form
    pool = NON_INTEGER_POINTS if halves else [Fraction(k) for k in range(-9, 10)]
    points = sorted(rng.sample(pool, s))
    residues = _edge_residues(rng, n, kind, s - 1 if sum_zero else s)
    if form == "SL":
        residues = [make_traceless(m) for m in residues]
    if sum_zero:
        residues = with_sum_zero(residues) if residues else [linalgq.zeros(n)]
    f = build_field(points, residues, GroupTag("A", n - 1, form))
    z, lam = sympy.symbols("z lam")
    char = sympy.Poly(reference_lax_matrix(f, z).charpoly(lam).as_expr(), lam)
    disc = sympy_to_coeffs(sympy.discriminant(char.as_expr(), lam), z)
    sc = spectral_curve(f)
    assert list(sc.char_coeffs) == [
        sympy_to_coeffs(char.coeff_monomial(lam**k), z) for k in range(n + 1)
    ]
    assert sc.discriminant == disc
    assert all(type(c) is Fraction for c in sc.discriminant)
    assert sc.branch_count == max(len(disc) - 1, 0)
    if disc:
        assert squarefree_oracles(disc) == (sc.is_squarefree, sc.is_squarefree)
    else:
        assert not sc.is_squarefree
    genus = sc.branch_count // 2 - n + 1
    defined = sc.is_squarefree and sc.branch_count % 2 == 0 and genus >= 0
    assert sc.genus == (genus if defined else None)


def test_spectral_size_cap():
    """Shapes past the discriminant degree bound are refused before any
    work; the top of the size ladder (n = 5, s = 7, residue sum non-zero,
    bound 120) runs."""
    cap = higgs.SPECTRAL_MAX_DEGREE
    assert 120 <= cap < 140
    rng = random.Random(94)
    refused = [
        rnd_field(rng, 5, 8, form="GL", sum_zero=False),  # 20 * 7 = 140
        rnd_field(rng, 6, 7),  # 30 * 5 = 150
        rnd_field(rng, 4, 12, sum_zero=False),  # 12 * 11 = 132
        rnd_field(rng, 40, 3),  # 1560: would take hours
    ]
    for f in refused:
        with pytest.raises(ShapeError, match=f"at most {cap}"):
            spectral_curve(f)
    sc = spectral_curve(rnd_field(rng, 5, 7, form="GL", sum_zero=False))
    assert sc.is_squarefree and sc.branch_count == 120
    assert spectral_curve(rnd_field(rng, 4, 12)).branch_count == 120


def test_spectral_genus_closed_form():
    assert spectral_genus(2, 3) == 0
    assert spectral_genus(2, 4) == 1
    assert spectral_genus(3, 3) == 1
    assert spectral_genus(3, 4) == 4
    with pytest.raises(ValueError):
        spectral_genus(1, 3)
    with pytest.raises(ValueError):
        spectral_genus(2, 2)


def test_spectral_zero_field():
    f = build_field([0, 1, 2], [linalgq.zeros(2)] * 3, SL2)
    sc = spectral_curve(f)
    assert sc.discriminant == []
    assert not sc.is_squarefree
    assert sc.genus is None
    assert sc.branch_count == 0


# -- residues of invariants ---------------------------------------------------


def test_residue_of_invariant_worked_examples():
    assert residue_of_invariant(heh_field(), 0, 2) == -1
    assert residue_of_invariant(efh_field(), 0, 2) == 0
    f = build_field([0, 1], [[[1, 2], [0, 3]], [[0, -2], [0, 4]]], GL2)
    for j in range(2):
        assert residue_of_invariant(f, j, 1) == trace(f.residues[j])


def test_residue_of_invariant_matches_matrix_invariant():
    """The residue of each invariant equals support.reference_residue_invariants,
    sympy's invariants of the polynomial Lax matrix at the point, A(x_j),
    over w_j(x_j)^i: SL and GL, s = 1..4, residue sum zero or not, with
    dense, nilpotent and repeated-eigenvalue residues, and weighted fields
    (upper triangular residues, admissible for theta = (1/4, ..., 1/4),
    whose weight diagonal strictly decreases)."""
    rng = random.Random(93)
    for kind in ("dense", "nilpotent", "repeated", "weighted"):
        for s in (1, 2, 3, 4):
            for form in ("SL", "GL"):
                for sum_zero in (True, False):
                    n = rng.randint(2, 3)
                    count = s - 1 if sum_zero else s
                    if kind == "weighted":
                        residues = [strictly_upper(rng, n) for _ in range(count)]
                        for m in residues:
                            for p in range(n):
                                m[p][p] = Fraction(rng.randint(-2, 2))
                        thetas = [RationalCocharacter.of([Fraction(1, 4)] * (n - 1))] * s
                    else:
                        residues, thetas = _edge_residues(rng, n, kind, count), None
                    if form == "SL":
                        residues = [make_traceless(m) for m in residues]
                    if sum_zero:
                        residues = with_sum_zero(residues) if residues else [linalgq.zeros(n)]
                    points = sorted(rng.sample(NON_INTEGER_POINTS, s))
                    f = build_field(points, residues, GroupTag("A", n - 1, form), thetas)
                    for j in range(s):
                        want = reference_residue_invariants(f, j)
                        for i in higgs.invariant_degrees(f):
                            assert residue_of_invariant(f, j, i) == want[i - 1]


def test_residue_of_invariant_matches_all_points_route():
    """residue_of_invariant(f, j, i) is _residue_invariants(f)[j][i - 1] for
    every (j, i), on seeded SL and GL fields with s = 1..5, residue sum zero
    or not."""
    rng = random.Random(94)
    for s in (1, 1, 2, 2, 3, 4, 5):
        for form in ("SL", "GL"):
            f = rnd_field(rng, rng.randint(2, 4), s, form, sum_zero=rng.random() < 0.5)
            everywhere = higgs._residue_invariants(f)
            for j in range(s):
                for i in higgs.invariant_degrees(f):
                    assert residue_of_invariant(f, j, i) == everywhere[j][i - 1]


# Points with denominator 2 or 3, so the int sampler clears them over 6.
NON_INTEGER_POINTS = sorted(
    {Fraction(k, d) for k in range(-9, 10) for d in (2, 3)} - set(map(Fraction, range(-9, 10)))
)


def assert_packed_routes_match_sympy(f, tops):
    """clear_denominators and _char_coeff_polys(f, top) for each top equal
    the sympy reference: the entries of A(z), the c_k(z), and int values
    C_k(t d_x) = D^(n-k) c_k(t) at t = 0..top with C_n = 1."""
    n = f.matrix_size
    z = sympy.Symbol("z")
    lax = reference_lax_matrix(f, z)
    entries = [[sympy_to_coeffs(lax[p, q], z) for q in range(n)] for p in range(n)]
    top = max(len(e) for row in entries for e in row)
    assert clear_denominators(f).coeffs == tuple(
        [[e[k] if k < len(e) else 0 for e in row] for row in entries] for k in range(top)
    )
    ref_polys, ref_samples = reference_char_coeff_polys(f, max(tops))
    for top in tops:
        polys, big_d, chars = higgs._char_coeff_polys(f, top)
        assert polys == ref_polys
        assert len(chars) == top + 1 and all(cs[-1] == 1 for cs in chars)
        assert all(type(c) is int for cs in chars for c in cs)
        samples = [[Fraction(c, big_d ** (n - k)) for k, c in enumerate(cs)] for cs in chars]
        assert samples == ref_samples[:top + 1]


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from(["SL", "GL"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_int_sampler_matches_fraction_reference(n, s, form, sum_zero, seed):
    """clear_denominators, _char_coeff_polys (whose values are int
    characteristic coefficients, c_n = 1 included) and _residue_invariants,
    all taken in ints, equal the plain Fraction reference of tests/support.py
    on seeded fields with non-integer points, GL and SL, s <= 2 included.
    The values are checked up to N + 3, N = n(n-1) deg A: each is an int
    polynomial C_k read from the digits of one Berkowitz run on the Lax
    matrix packed at 2^beta, evaluated at t d_x."""
    rng = random.Random(seed)
    points = sorted(rng.sample(NON_INTEGER_POINTS, s))
    f = rnd_field(rng, n, s, "GL" if n == 1 else form, sum_zero=sum_zero, points=points)
    bound = n * (n - 1) * higgs._degree_bound(f)
    assert_packed_routes_match_sympy(f, (max(bound, n * higgs._degree_bound(f)), bound + 3))
    assert higgs._residue_invariants(f) == [reference_residue_invariants(f, j) for j in range(s)]


def test_packed_read_is_exact_at_one_power_of_two():
    """n = 1, s = 1, GL: A = (r) with r = +-2^m, so C_0 = -r and the bound
    prod(1 + r_p) = 1 + 2^m sits just above a power of two.  beta = m + 2
    reads both signs exactly; beta = m + 1 would misread c_0 = 2^m (r < 0)
    and the entry 2^m (r > 0) as balanced digits."""
    gl1 = GroupTag("A", 0, "GL")
    for m in range(1, 71):
        for r in (2**m, -(2**m)):
            f = build_field([Fraction(-1, 2)], [[[r]]], gl1)
            assert_packed_routes_match_sympy(f, (0, 2))
            assert higgs._char_coeff_polys(f, 0)[0] == [[Fraction(-r)], [Fraction(1)]]


# Negative points: every coefficient of every Lagrange weight is positive.
NEGATIVE_POINTS = sorted({Fraction(-k, d) for k in range(1, 19) for d in (1, 2, 3)})


def test_packed_read_is_exact_on_same_sign_fields():
    """Negative points and GL residues with positive entries, not regular
    at infinity: every coefficient of every w_j and of every entry of B(tau)
    is positive, so the 1-norm bounds behind beta (_packed) are met by the
    entries themselves, and the characteristic coefficients come close.
    Each field is checked against sympy for n = 1..4 and s = 1..6."""
    rng = random.Random(43)
    for n in range(1, 5):
        for s in range(1, 7):
            for _ in range(2 if n < 4 else 1):
                points = sorted(rng.sample(NEGATIVE_POINTS, s))
                residues = [
                    [[Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
                     for _ in range(n)]
                    for _ in range(s)
                ]
                f = build_field(points, residues, GroupTag("A", n - 1, "GL"))
                assert not f.regular_at_infinity
                assert_packed_routes_match_sympy(f, (n * higgs._degree_bound(f) + 1,))


def test_hitchin_hamiltonians_read_exactly_at_same_sign_points():
    """At negative points every coefficient of each weight product
    prod_r w_(j_r) is positive, and at -2^k the bound (max_j W_j)^i sits
    just above the constant term: the Hamiltonians read from the digits of
    one packed value equal those of the sampling route of tests/support.py."""
    rng = random.Random(44)
    cases = [[-(2**k), -c] for k in range(1, 10) for c in (1, 3)]
    cases += [sorted(rng.sample(NEGATIVE_POINTS, s)) for s in (2, 3, 4, 5, 6, 1)]
    for points in cases:
        for n in (2, 3):
            if len(points) > 3 and n == 3:
                continue
            for form in ("SL", "GL"):
                got = poisson.hitchin_coefficient_hamiltonians(points, n, form)
                assert got == reference_hitchin_hamiltonians(points, n, form)


def test_residue_of_invariant_index_errors():
    f = efh_field()
    with pytest.raises(IndexError):
        residue_of_invariant(f, 5, 2)
    with pytest.raises(IndexError):
        residue_of_invariant(f, 0, 3)


# -- strongly logarithmic -----------------------------------------------------


def test_strongly_logarithmic_cases():
    rng = random.Random(94)
    ups = [strictly_upper(rng, 2) for _ in range(2)]
    third = mat_scale(linalgq.mat_add(ups[0], ups[1]), Fraction(-1))
    nil = build_field([0, 1, 2], ups + [third], SL2)
    assert is_strongly_logarithmic_image(hitchin_map(nil), nil)

    f = heh_field()
    assert not is_strongly_logarithmic_image(hitchin_map(f), f)

    zero = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    assert is_strongly_logarithmic_image(hitchin_map(zero), zero)


@st.composite
def nilpotent_at_infinity_fields(draw):
    """(n, field): a field regular at infinity, n = 2..3, s = 3..5 points,
    SL or GL, whose leading Lax coefficient sum_j x_j X_j is nilpotent: a
    strictly upper triangular U conjugated by an integer unipotent L.  The
    first s - 2 residues are drawn; the last two are solved for from
    sum_j X_j = 0 and sum_j x_j X_j = L U L^-1."""
    n = draw(st.sampled_from([2, 2, 3]))
    s = draw(st.integers(3, 5 if n == 2 else 4))
    form = draw(st.sampled_from(["SL", "GL"]))
    xs = draw(st.lists(st.integers(-4, 4), min_size=s, max_size=s, unique=True))
    entry = st.integers(-3, 3)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    drawn = [fraction_matrix(draw(square)) for _ in range(s - 2)]
    if form == "SL":
        drawn = [make_traceless(m) for m in drawn]
    upper = [[draw(entry) if q > p else 0 for q in range(n)] for p in range(n)]
    lower = sympy.Matrix(n, n, lambda p, q: draw(st.integers(-2, 2)) if q < p else int(p == q))
    nil = (lower * sympy.Matrix(upper) * lower.inv()).tolist()
    nil = [[Fraction(int(v.p), int(v.q)) for v in row] for row in nil]
    r0 = [[sum(m[p][q] for m in drawn) for q in range(n)] for p in range(n)]
    r1 = [[sum(x * m[p][q] for x, m in zip(xs, drawn)) for q in range(n)] for p in range(n)]
    xa, xb = xs[-2:]
    last = [[(nil[p][q] - r1[p][q] + xa * r0[p][q]) / (xb - xa) for q in range(n)] for p in range(n)]
    before = [[-r0[p][q] - last[p][q] for q in range(n)] for p in range(n)]
    return n, build_field(xs, drawn + [before, last], GroupTag("A", n - 1, form))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nilpotent_at_infinity_fields())
def test_genus_counts_the_branch_point_at_infinity(case):
    """When sum_j x_j X_j is nilpotent, every eigenvalue of A(z)/z^(s-2)
    tends to 0 at infinity, so the discriminant, a form of degree
    N = n(n-1)(s-2) on P^1, has a root of order e >= n - 1 there: the affine
    discriminant falls short of N by e.  A genus is given only for e <= 1,
    so for n = 2, and there 2 genus = bivector_rank - 2(n^2 - 1), the
    Riemann-Hurwitz count of the eigenvalue curve against the generic leaf
    dimension, reduced by the diagonal action."""
    n, f = case
    big_n = n * (n - 1) * (f.site_count - 2)
    sc = spectral_curve(f)
    assert sc.branch_count <= big_n - (n - 1)
    if sc.genus is not None:
        assert n == 2 and sc.branch_count == big_n - 1 and sc.is_squarefree
        rank = poisson.bivector_rank_at(poisson.moment_map(f))
        assert 2 * sc.genus == rank - 2 * (n * n - 1)
