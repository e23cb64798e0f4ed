import random
from fractions import Fraction

import pytest
import sympy

from logahoric import higgs, linalgq, polyq
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
    hitchin_map,
    is_strongly_logarithmic_image,
    residue_of_invariant,
    spectral_curve,
    spectral_genus,
)
from logahoric.rootsys import GroupTag, trace_form
from support import (
    E2,
    F2,
    H2,
    coeffs_to_sympy,
    matrix_to_sympy,
    rnd_field,
    rnd_invertible,
    rnd_matrix,
    squarefree_oracles,
    strictly_upper,
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


def test_build_field_validation():
    with pytest.raises(DivisorError, match="nonempty"):
        build_field([], [], SL2)
    with pytest.raises(DivisorError, match="distinct"):
        build_field([0, 0], [E2, F2], SL2)
    with pytest.raises(TraceError):
        build_field([0], [[[1, 0], [0, 0]]], SL2)
    with pytest.raises(ShapeError):
        build_field([0, 1], [E2], SL2)
    # the same residue is fine for GL
    build_field([0], [[[1, 0], [0, 0]]], GL2)


def test_evaluate_at_pole_rejected():
    f = efh_field()
    with pytest.raises(DivisorError):
        f.evaluate(1)
    value = f.evaluate(3)
    expected = linalgq.mat_add(
        linalgq.mat_scale(E2, Fraction(1, 3)),
        linalgq.mat_add(
            linalgq.mat_scale(F2, Fraction(1, 2)),
            linalgq.mat_scale([[0, -1], [-1, 0]], Fraction(1, 1)),
        ),
    )
    assert linalgq.mat_eq(value, expected)


# -- polynomial Lax form -----------------------------------------------------


def test_clear_denominators_worked_example():
    a = clear_denominators(efh_field())
    entries = a.entries()
    # [[0, -2(z-1)], [-z, 0]]
    assert entries[0][0] == []
    assert entries[0][1] == polyq.poly([2, -2])
    assert entries[1][0] == polyq.poly([0, -1])
    assert entries[1][1] == []
    assert a.degree == 1


def test_clear_denominators_two_point_constant():
    x = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(-2)]]
    neg = linalgq.mat_scale(x, Fraction(-1))
    f = build_field([Fraction(1, 2), Fraction(5, 2)], [x, neg], SL2)
    a = clear_denominators(f)
    assert a.degree == 0
    assert linalgq.mat_eq(a.coeffs[0], linalgq.mat_scale(x, Fraction(-2)))


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


def test_polynomial_matrix_evaluate_matches_field():
    rng = random.Random(89)
    for _ in range(20):
        f = rnd_field(rng, 2, rng.randint(2, 4))
        a = clear_denominators(f)
        z = Fraction(rng.randint(7, 12))
        prefactor = Fraction(1)
        for x in f.points:
            prefactor *= z - x
        assert linalgq.mat_eq(
            a.evaluate(z), linalgq.mat_scale(f.evaluate(z), prefactor)
        )


# -- Hitchin map --------------------------------------------------------------


def test_hitchin_map_worked_examples():
    image = hitchin_map(efh_field())
    assert image.degrees == (2,)
    assert image.ambient_dims == (3,)
    assert image.sections[0] == polyq.poly([0, 2, -2])

    image2 = hitchin_map(heh_field())
    # det A(z) = -4(z-1)^2
    assert image2.sections[0] == polyq.poly([-4, 8, -4])


def test_hitchin_map_gl_includes_trace():
    f = build_field([0, 1], [[[1, 0], [0, 0]], [[-1, 0], [0, 0]]], GL2)
    image = hitchin_map(f)
    assert image.degrees == (1, 2)
    a = clear_denominators(f)
    tr = polyq.add(a.entries()[0][0], a.entries()[1][1])
    assert image.sections[0] == tr


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


def test_hitchin_map_rejects_non_type_a():
    f = efh_field()
    bad = higgs.LogHiggsField(
        points=f.points,
        residues=f.residues,
        group=GroupTag("B", 2, "SL"),
        theta_data=None,
        regular_at_infinity=True,
    )
    with pytest.raises(UnsupportedRealizationError):
        hitchin_map(bad)


# -- Gaudin -------------------------------------------------------------------


def test_gaudin_worked_values():
    data = gaudin_hamiltonians(efh_field())
    assert data.values == (Fraction(-1, 2), Fraction(2), Fraction(-3, 2))
    assert sum(data.values, Fraction(0)) == 0


def test_gaudin_requires_regularity():
    f = build_field([0, 1], [H2, H2], SL2)
    with pytest.raises(ConstraintError):
        gaudin_hamiltonians(f)


def test_gaudin_zero_field():
    f = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    assert gaudin_hamiltonians(f).values == (Fraction(0), Fraction(0))


def test_gaudin_generating_function_reconstruction():
    """1/2 <L(z),L(z)> re-expands from Casimir and Hamiltonian residues."""
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randint(2, 3)
        s = rng.randint(2, 4)
        f = rnd_field(rng, n, s)
        data = gaudin_hamiltonians(f)
        for _ in range(10):
            z = Fraction(rng.randint(20, 60), rng.randint(1, 3))
            lz = f.evaluate(z)
            lhs = trace_form(lz, lz) / 2
            rhs = Fraction(0)
            for j in range(s):
                dz = z - f.points[j]
                cas = trace_form(f.residues[j], f.residues[j]) / 2
                rhs += cas / dz**2 + data.values[j] / dz
            assert lhs == rhs


# -- spectral curves ----------------------------------------------------------


def test_spectral_curve_worked_example():
    sc = spectral_curve(efh_field())
    # char_coeffs[0] is det(lambda*I - A) at lambda = 0, which is det A for 2x2
    assert sc.char_coeffs[0] == polyq.poly([0, 2, -2])
    assert sc.discriminant == polyq.poly([0, -8, 8])
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
        assert all(polyq.is_zero(c) for c in spectral_curve(f).char_coeffs[:n])


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
                linalgq.mat_scale(m, Fraction(rng.randint(-3, 3))),
                linalgq.mat_scale(linalgq.identity(n), Fraction(rng.randint(-3, 3))),
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
        if polyq.is_zero(sc.discriminant):
            assert not sc.is_squarefree
            continue
        assert sc.is_squarefree == polyq.is_squarefree(sc.discriminant)
        assert squarefree_oracles(sc.discriminant) == (sc.is_squarefree, sc.is_squarefree)
        verdicts.append(sc.is_squarefree)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 8


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
    assert polyq.is_zero(sc.discriminant)
    assert not sc.is_squarefree
    assert sc.genus is None
    assert sc.branch_count == 0


# -- residues of invariants ---------------------------------------------------


def test_residue_of_invariant_worked_examples():
    assert residue_of_invariant(heh_field(), 0, 2) == -1
    assert residue_of_invariant(efh_field(), 0, 2) == 0
    f = build_field([0, 1], [[[1, 2], [0, 3]], [[0, -2], [0, 4]]], GL2)
    for j in range(2):
        assert residue_of_invariant(f, j, 1) == linalgq.trace(f.residues[j])


def test_residue_of_invariant_matches_matrix_invariant():
    """The polynomial-side limit equals the invariant of the bare residue."""
    rng = random.Random(93)
    for _ in range(30):
        n = rng.randint(2, 3)
        f = rnd_field(rng, n, rng.randint(2, 4))
        for j in range(f.site_count):
            vals = linalgq.invariant_values(f.residues[j])
            for i in higgs.invariant_degrees(f):
                assert residue_of_invariant(f, j, i) == vals[i - 1]


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
    third = linalgq.mat_scale(linalgq.mat_add(ups[0], ups[1]), Fraction(-1))
    nil = build_field([0, 1, 2], ups + [third], SL2)
    assert is_strongly_logarithmic_image(hitchin_map(nil), nil)

    f = heh_field()
    assert not is_strongly_logarithmic_image(hitchin_map(f), f)

    zero = build_field([0, 1], [linalgq.zeros(2)] * 2, SL2)
    assert is_strongly_logarithmic_image(hitchin_map(zero), zero)
