"""Shared helpers for the test suite: seeded random rationals, matrices and
fields, plus small conversion shims for the sympy cross-checks."""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from logahoric import linalgq
from logahoric.higgs import LogHiggsField, build_field
from logahoric.rootsys import GroupTag


def rnd_fraction(rng, lo=-4, hi=4, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rnd_matrix(rng, n: int, lo=-3, hi=3, max_den=3) -> List[List[Fraction]]:
    return [
        [rnd_fraction(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)
    ]


def make_traceless(m: List[List[Fraction]]) -> List[List[Fraction]]:
    out = [row[:] for row in m]
    out[-1][-1] -= linalgq.trace(out)
    return out


def rnd_points(rng, s: int) -> List[Fraction]:
    pool = sorted({Fraction(k, 2) for k in range(-12, 13)})
    return sorted(rng.sample(pool, s))


def rnd_field(
    rng,
    n: int,
    s: int,
    form: str = "SL",
    sum_zero: bool = True,
    points: Optional[Sequence[Fraction]] = None,
) -> LogHiggsField:
    """Random field with s distinct rational points and, by default, a zero
    residue sum (so it is regular at infinity)."""
    xs = list(points) if points is not None else rnd_points(rng, s)
    residues = [rnd_matrix(rng, n) for _ in range(s - 1)]
    if sum_zero:
        last = linalgq.zeros(n)
        for m in residues:
            last = linalgq.mat_sub(last, m)
        residues.append(last)
    else:
        residues.append(rnd_matrix(rng, n))
    if form == "SL":
        residues = [make_traceless(m) for m in residues]
    return build_field(xs, residues, GroupTag("A", n - 1, form))


def rnd_invertible(rng, n: int) -> List[List[Fraction]]:
    """Random invertible rational matrix, built as diagonal x lower x upper
    unipotent so invertibility never needs a retry loop."""
    diag = linalgq.zeros(n)
    for i in range(n):
        d = Fraction(0)
        while d == 0:
            d = rnd_fraction(rng, -3, 3, 2)
        diag[i][i] = d
    lower = linalgq.identity(n)
    upper = linalgq.identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rnd_fraction(rng, -2, 2, 2)
            upper[j][i] = rnd_fraction(rng, -2, 2, 2)
    return linalgq.mat_mul(diag, linalgq.mat_mul(lower, upper))


def strictly_upper(rng, n: int) -> List[List[Fraction]]:
    out = linalgq.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = rnd_fraction(rng, -3, 3, 2)
    return out


E2 = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
F2 = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
H2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]


def coeffs_to_sympy(coeffs, var):
    """Ascending rational coefficient list -> sympy expression in var."""
    import sympy

    expr = sympy.Integer(0)
    for k, c in enumerate(coeffs):
        expr += sympy.Rational(c.numerator, c.denominator) * var**k
    return expr


def matrix_to_sympy(m):
    import sympy

    return sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]
    )


def reference_bracket(f, g, alg):
    """The Lie-Poisson bracket by the partial-product route, kept as a test
    oracle: sum over generator pairs (a, b) on one site of
    (df/dx_a)(dg/dx_b) {x_a, x_b}, built from PoissonPolynomial products."""
    from logahoric.poisson import PoissonPolynomial

    acc = {}
    fvars = f.variables()
    gvars = g.variables()
    fparts = {a: f.partial(a) for a in fvars}
    gparts = {b: g.partial(b) for b in gvars}
    for a in fvars:
        ja = alg.site_of(a)
        offset = alg.offsets[ja]
        table = alg.sites[ja].bracket_table
        for b in gvars:
            if alg.site_of(b) != ja or a == b:
                continue
            row = table.get((a - offset, b - offset))
            if not row:
                continue
            prod = fparts[a] * gparts[b]
            if prod.is_zero:
                continue
            for c_local, coeff in row:
                gen_poly = PoissonPolynomial(
                    alg, ((((offset + c_local, 1),), Fraction(1)),)
                )
                for mono, cf in (prod * gen_poly).terms:
                    acc[mono] = acc.get(mono, Fraction(0)) + cf * coeff
    return PoissonPolynomial._from_dict(alg, acc)
