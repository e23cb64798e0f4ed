"""Shared helpers for the test suite: seeded random rationals, matrices and
fields, plus small conversion shims for the sympy cross-checks."""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from logahoric import linalgq, polyq
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


def with_sum_zero(mats):
    """The matrices followed by minus their sum, so the residues sum to zero."""
    last = linalgq.zeros(len(mats[0]))
    for m in mats:
        last = linalgq.mat_sub(last, m)
    return list(mats) + [last]


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


def to_string(p, var: str = "z") -> str:
    """Readable form of an ascending coefficient list, e.g. "-1*z + z^2"."""
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts)


def squarefree_oracles(p):
    """The squarefree verdicts on a non-zero polynomial of the Euclidean gcd
    over Q and of sympy's squarefree factorization."""
    import sympy

    z = sympy.Symbol("z")
    euclid = polyq.degree(polyq.gcd(p, polyq.derivative(p))) <= 0
    _, factors = sympy.sqf_list(coeffs_to_sympy(p, z), z)
    return euclid, all(mult == 1 for _, mult in factors)


def matrix_to_sympy(m):
    import sympy

    return sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]
    )


def reference_mul(f, g):
    """The product of two PoissonPolynomials by merging exponent dicts, kept
    as a test oracle: each pair of terms merges its monomials' exponents in
    a dict and sorts them back into a ((generator, exponent), ...) tuple."""
    from logahoric.poisson import PoissonPolynomial

    d = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            merged = dict(m1)
            for gen, e in m2:
                merged[gen] = merged.get(gen, 0) + e
            key = tuple(sorted(merged.items()))
            d[key] = d.get(key, Fraction(0)) + c1 * c2
    return PoissonPolynomial._from_dict(f.algebra, d)


def partial(f, gen: int):
    """d f / d x_gen of a PoissonPolynomial, term by term on its monomials."""
    from logahoric.poisson import PoissonPolynomial

    d = {}
    for mono, c in f.terms:
        md = dict(mono)
        e = md.get(gen)
        if not e:
            continue
        if e == 1:
            del md[gen]
        else:
            md[gen] = e - 1
        key = tuple(sorted(md.items()))
        d[key] = d.get(key, Fraction(0)) + c * e
    return PoissonPolynomial._from_dict(f.algebra, d)


def reference_bracket(f, g, alg):
    """The Lie-Poisson bracket by the partial-product route, kept as a test
    oracle: sum over generator pairs (a, b) on one site of
    (df/dx_a)(dg/dx_b) {x_a, x_b}, built from partial derivatives and
    reference_mul products."""
    from logahoric.poisson import PoissonPolynomial

    acc = {}
    fvars = f.variables()
    gvars = g.variables()
    fparts = {a: partial(f, a) for a in fvars}
    gparts = {b: partial(g, b) for b in gvars}
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
            prod = reference_mul(fparts[a], gparts[b])
            if prod.is_zero:
                continue
            for c_local, coeff in row:
                gen_poly = PoissonPolynomial(
                    alg, ((((offset + c_local, 1),), Fraction(1)),)
                )
                for mono, cf in reference_mul(prod, gen_poly).terms:
                    acc[mono] = acc.get(mono, Fraction(0)) + cf * coeff
    return PoissonPolynomial._from_dict(alg, acc)


def reference_rank2(split_degrees, flags=(), weights=(), points=None):
    """The rank-2 enumerator by the all-subsets route, kept as a test oracle:
    for each degree a and every subset of the incidence conditions, a
    Fraction nullspace of the subset's rows and a closure of every condition
    vanishing on it.  Inputs are taken as valid; returns
    (candidates, witness, total_weighted_degree, total_slope)."""
    from itertools import combinations

    from logahoric.parahoric import (
        VERDICT_BOUNDARY,
        VERDICT_FAIL,
        VERDICT_STABLE,
        Rank2Candidate,
        ReductionDatum,
        parahoric_degree,
    )

    a1, a2 = int(split_degrees[0]), int(split_degrees[1])
    m = len(flags)
    flag_dirs = [(Fraction(c), Fraction(d)) for c, d in flags]
    wpairs = [(Fraction(wf), Fraction(wo)) for wf, wo in weights]
    if points is None:
        xs = [Fraction(i) for i in range(m)]
    else:
        xs = [Fraction(x) for x in points]
    if a1 < a2:
        a1, a2 = a2, a1
        flag_dirs = [(d, c) for c, d in flag_dirs]
    total_degree = a1 + a2
    total_wd = Fraction(total_degree) + sum((wf + wo for wf, wo in wpairs), Fraction(0))
    total_slope = total_wd / 2

    degrees = sorted({a1} | {a2 - k for k in range(m + 1)}, reverse=True)
    found = {}
    for a in degrees:
        dim_p = a1 - a + 1
        dim_q = max(a2 - a + 1, 0)
        nvars = dim_p + dim_q

        def incidence_row(i):
            ci, di = flag_dirs[i]
            x = xs[i]
            return [di * x**k for k in range(dim_p)] + [-ci * x**k for k in range(dim_q)]

        for size in range(m + 1):
            for subset in combinations(range(m), size):
                rows = [incidence_row(i) for i in subset]
                if rows:
                    basis = linalgq.nullspace(rows)
                else:
                    basis = [
                        [Fraction(1 if t == s else 0) for t in range(nvars)]
                        for s in range(nvars)
                    ]
                if not basis:
                    continue
                forced = [
                    i
                    for i in range(m)
                    if i not in subset
                    and all(
                        sum(r * v for r, v in zip(incidence_row(i), b)) == 0
                        for b in basis
                    )
                ]
                actual = tuple(sorted(set(subset) | set(forced)))
                if (a, actual) in found:
                    continue
                pairings = tuple(
                    wpairs[i][0] if i in actual else wpairs[i][1] for i in range(m)
                )
                rd = ReductionDatum(a, 1, total_degree, 2, pairings)
                wd = parahoric_degree(rd)
                if wd > total_slope:
                    verdict = VERDICT_FAIL
                elif wd == total_slope:
                    verdict = VERDICT_BOUNDARY
                else:
                    verdict = VERDICT_STABLE
                found[(a, actual)] = Rank2Candidate(a, actual, rd, wd, verdict)

    candidates = tuple(
        sorted(found.values(), key=lambda c: (-c.weighted_degree, -c.degree, c.incidences))
    )
    return candidates, candidates[0], total_wd, total_slope


def reference_bivector_rank(xi, alg):
    """Rank of the Poisson bivector as one gen_count x gen_count Fraction
    matrix, kept as a test oracle: gen_count minus the dimension of its
    Gauss-Jordan nullspace."""
    size = alg.gen_count
    pi = linalgq.zeros(size)
    for j, site in enumerate(alg.sites):
        offset = alg.offsets[j]
        values = xi.sites[j]
        for (a, b), row in site.bracket_table.items():
            acc = Fraction(0)
            for c, coeff in row:
                p, q = site.entries[c]
                acc += coeff * values[p][q]
            pi[offset + a][offset + b] = acc
    return size - len(linalgq.nullspace(pi))
