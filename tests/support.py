"""Shared helpers for the test suite: seeded random rationals, matrices and
fields, plus small conversion shims for the sympy cross-checks."""

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import mul
from typing import List, Optional, Sequence, Tuple

from logahoric import linalgq, polyq
from logahoric.higgs import LogHiggsField, build_field
from logahoric.parahoric import loop_element
from logahoric.rootsys import GroupTag


def poly(coeffs) -> List[Fraction]:
    """A normalized coefficient list (no trailing zeros) from any iterable
    of rationals."""
    return polyq.trim([Fraction(c) for c in coeffs])


def mat_eq(a, b) -> bool:
    """Entrywise equality of two matrices given as lists of rows."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_scale(a, c) -> List[List[Fraction]]:
    """c*A entrywise, with c read as a Fraction."""
    c = Fraction(c)
    return [[x * c for x in row] for row in a]


def basis_matrix(n: int, p: int, q: int) -> List[List[Fraction]]:
    """The matrix unit E_pq (0-indexed) of size n."""
    out = linalgq.zeros(n)
    out[p][q] = Fraction(1)
    return out


def loop_zero(rs):
    """The zero element of the loop algebra of rs."""
    return loop_element(rs)


def loop_add(x, y):
    """x + y in the loop algebra of x, term by term."""
    torus = {}
    for k, coords in x.torus_terms + y.torus_terms:
        torus[k] = [a + b for a, b in zip(torus.get(k, [0] * len(coords)), coords)]
    roots = {}
    for r, k, c in x.root_terms + y.root_terms:
        roots[(r, k)] = roots.get((r, k), Fraction(0)) + c
    return loop_element(x.system, torus, roots)


def loop_sub(x, y):
    """x - y in the loop algebra: x plus y with every coefficient negated."""
    minus_y = loop_element(
        y.system,
        {k: [-a for a in coords] for k, coords in y.torus_terms},
        {(r, k): -v for r, k, v in y.root_terms},
    )
    return loop_add(x, minus_y)


def is_strongly_logarithmic_image(h, f) -> bool:
    """True when every invariant section of the Hitchin image h vanishes at
    every marked point of the field f."""
    return all(polyq.evaluate(sec, x) == 0 for sec in h.sections for x in f.points)


def lax_value(f: LogHiggsField, z) -> List[List[Fraction]]:
    """The Lax matrix L(z) = sum_j X_j/(z - x_j) of a field, away from its
    marked points."""
    out = linalgq.zeros(f.matrix_size)
    for x, res in zip(f.points, f.residues):
        out = linalgq.mat_add(out, mat_scale(res, 1 / (Fraction(z) - x)))
    return out


def nilpotent_exp(y) -> List[List[Fraction]]:
    """exp(Y) of a nilpotent matrix: the finite sum of Y^k/k! for k < n."""
    n = len(y)
    power = out = linalgq.identity(n)
    fact = 1
    for k in range(1, n):
        power = linalgq.mat_mul(power, y)
        fact *= k
        out = linalgq.mat_add(out, mat_scale(power, Fraction(1, fact)))
    return out


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


def sympy_to_coeffs(expr, var):
    """sympy polynomial expression in var -> ascending Fraction coefficient
    list with no trailing zeros (the empty list for zero)."""
    import sympy

    coeffs = sympy.Poly(expr, var).all_coeffs()[::-1]
    return polyq.trim([Fraction(int(c.p), int(c.q)) for c in coeffs])


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
    """The squarefree verdicts on a non-zero polynomial of sympy's gcd(p, p')
    and of sympy's squarefree factorization."""
    import sympy

    z = sympy.Symbol("z")
    expr = coeffs_to_sympy(p, z)
    coprime = sympy.degree(sympy.gcd(expr, sympy.diff(expr, z)), z) <= 0
    _, factors = sympy.sqf_list(expr, z)
    return coprime, all(mult == 1 for _, mult in factors)


def matrix_to_sympy(m):
    import sympy

    return sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]
    )


def minor_sum_invariants(rows, zero) -> list:
    """e_1..e_n of the square matrix rows, kept as a test oracle for any
    entries with +, - and *: e_i is the sum of the principal i-minors, each
    by the Leibniz expansion over the permutations of its rows, starting
    from zero.  A different algorithm from linalgq's Berkowitz recursion."""
    n = len(rows)
    out = []
    for i in range(1, n + 1):
        e = zero
        for idx in combinations(range(n), i):
            for cols in permutations(idx):
                term = reduce(mul, (rows[r][c] for r, c in zip(idx, cols)))
                odd = sum(a > b for a, b in combinations(cols, 2)) % 2
                e = e - term if odd else e + term
        out.append(e)
    return out


def reference_hitchin_hamiltonians(points, n: int, form: str = "SL"):
    """(alg, hams) of poisson.hitchin_coefficient_hamiltonians by the
    sampling route, kept as a test oracle: the matrix of PoissonPolynomials
    d_x^(s-1) A(t) = sum_j w_j(t d_x) X_j is built at t = 0..n(s-1), its
    invariants are taken as sums of principal minors (minor_sum_invariants),
    and each monomial's series of values is interpolated over the
    denominator d_x^((s-1)i).  Inputs are taken as valid."""
    from logahoric.poisson import LiePoissonAlgebra, PoissonPolynomial

    dx, a = linalgq.integer_form(points)
    s = len(a)
    alg = LiePoissonAlgebra(n, s)
    gens = [
        [[alg.generator_index(j, p, q) for j in range(s)] for q in range(n)]
        for p in range(n)
    ]
    samples = []
    for t in range(n * (s - 1) + 1):
        ws = polyq.lagrange_weights(a, t * dx)
        # Site j's generators precede site j+1's, so each entry's terms come
        # sorted; a zero weight (tau a cleared point) leaves no term.
        at = [
            [PoissonPolynomial(alg, tuple((((g, 1),), w) for g, w in zip(gq, ws) if w))
             for gq in row]
            for row in gens
        ]
        samples.append(minor_sum_invariants(at, PoissonPolynomial.zero(alg)))
    hams = []
    for i in range(1 if form == "GL" else 2, n + 1):
        series = {}
        for t, es in enumerate(samples):
            for mono, c in es[i - 1].terms:
                series.setdefault(mono, [0] * len(samples))[t] = c
        coeffs = [{} for _ in samples]
        scale = dx ** ((s - 1) * i)
        for mono, ys in series.items():
            for d, c in enumerate(polyq.interpolate(ys, scale)):
                coeffs[d][mono] = c
        hams += [PoissonPolynomial._from_dict(alg, c) for c in coeffs if any(c.values())]
    return alg, tuple(hams)


def entry_of(alg, g) -> Tuple[int, int, int]:
    """(j, p, q) of generator g of a LiePoissonAlgebra on n x n sites, read
    off the documented index g = (j*n + p)*n + q."""
    n = alg.matrix_size
    rest, q = divmod(g, n)
    j, p = divmod(rest, n)
    return j, p, q


def evaluate(f, site_values) -> Fraction:
    """Value of a PoissonPolynomial at a point given as one matrix per site:
    each generator x_pq of site j reads site_values[j][p][q]."""
    total = Fraction(0)
    for mono, c in f.terms:
        for g, e in mono:
            j, p, q = entry_of(f.algebra, g)
            c *= Fraction(site_values[j][p][q]) ** e
        total += c
    return total


def site_invariant_polynomials(alg, j: int) -> tuple:
    """Characteristic-coefficient functions of site j's matrix of generators.

    Every one of these is a Casimir: it brackets to zero with each generator
    of the site, which the symbolic bracket verifies exactly in tests.  A
    site outside 0..site_count-1 raises AlgebraMismatchError.
    """
    from logahoric.poisson import PoissonPolynomial

    n = alg.matrix_size
    rows = [[alg.generator(j, p, q) for q in range(n)] for p in range(n)]
    return tuple(minor_sum_invariants(rows, PoissonPolynomial.zero(alg)))


def entries_of(t) -> Tuple[Tuple[int, int], ...]:
    """The entries (p, q), row-major, whose weight diagonal t has t_p == t_q:
    the block of zero pairing (the whole of gl_n for t = 0)."""
    n = len(t)
    return tuple((p, q) for p in range(n) for q in range(n) if t[p] == t[q])


def levi_site(theta) -> Tuple[Tuple[int, int], ...]:
    """Levi block of the weight theta at a point, in the type-A realization:
    the entries (p, q), row-major, whose weight diagonal t has t_p == t_q."""
    from logahoric.rootsys import cocharacter_to_diagonal

    return entries_of(cocharacter_to_diagonal(theta))


def variables(f) -> List[int]:
    """The sorted generator indices occurring in a PoissonPolynomial."""
    return sorted({g for mono, _ in f.terms for g, _ in mono})


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


def _matmul(x, y):
    return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]


@lru_cache(maxsize=None)
def commutator_constants(n: int, entries: Tuple[Tuple[int, int], ...]):
    """Structure constants of the site on these entries of gl_n, from matrix
    commutators of the trace-form dual basis, kept as a test oracle that
    shares no code with the library's bracket rule.

    Generator x_pq has dual basis vector E_qp, so {x_pq, x_rs}(M) =
    tr(M [E_qp, E_sr]) = sum over (i, k) of M[i][k] [E_qp, E_sr][k][i].
    Returns {(a, b): {(i, k): coefficient of x_ik}} over the local indices
    a, b of entries, with only the non-zero coefficients, keyed by matrix
    entry, so a bracket leaving the entry set shows as a foreign key.  The
    result is cached and shared by every caller, who must not change it.
    """

    def unit(i, k):
        return [[int((r, c) == (i, k)) for c in range(n)] for r in range(n)]

    duals = [unit(q, p) for p, q in entries]
    out = {}
    for a, ea in enumerate(duals):
        for b, eb in enumerate(duals):
            ab, ba = _matmul(ea, eb), _matmul(eb, ea)
            row = {
                (i, k): ab[k][i] - ba[k][i]
                for i in range(n)
                for k in range(n)
                if ab[k][i] != ba[k][i]
            }
            if row:
                out[(a, b)] = row
    return out


def reference_bracket(f, g, alg):
    """The Lie-Poisson bracket by the partial-product route, kept as a test
    oracle: sum over generator pairs (a, b) on one site of
    (df/dx_a)(dg/dx_b) {x_a, x_b}, built from partial derivatives,
    PoissonPolynomial products and the commutator_constants of the site."""
    from logahoric.poisson import PoissonPolynomial

    acc = {}
    fvars = variables(f)
    gvars = variables(g)
    fparts = {a: partial(f, a) for a in fvars}
    gparts = {b: partial(g, b) for b in gvars}
    n = alg.matrix_size
    entries = entries_of([0] * n)
    constants = commutator_constants(n, entries)
    for a in fvars:
        ja, pa, qa = entry_of(alg, a)
        for b in gvars:
            jb, pb, qb = entry_of(alg, b)
            if jb != ja or a == b:
                continue
            row = constants.get((entries.index((pa, qa)), entries.index((pb, qb))))
            if not row:
                continue
            prod = fparts[a] * gparts[b]
            if prod.is_zero:
                continue
            for (i, k), coeff in row.items():
                c = (ja * n + i) * n + k
                gen_poly = PoissonPolynomial(alg, ((((c, 1),), Fraction(1)),))
                for mono, cf in (prod * gen_poly).terms:
                    acc[mono] = acc.get(mono, Fraction(0)) + cf * coeff
    return PoissonPolynomial._from_dict(alg, acc)


def liouville_counts(hams, alg, point) -> Tuple[int, int]:
    """(independent functions, independent vector fields) of hams at the
    point P, one n x n matrix per site, kept as a test oracle for the
    Liouville count: the ranks, by linalgq.rank, of the exact gradients
    dH(P), taken from each Hamiltonian's terms, and of the Hamiltonian
    vector fields Pi(P) dH(P), with the bivector Pi(P) built from the
    commutator_constants of gl_n, sharing no code with the library's
    bracket."""
    n = alg.matrix_size
    entries = entries_of([0] * n)
    values = []
    for g in range(alg.gen_count):
        j, p, q = entry_of(alg, g)
        values.append(Fraction(point[j][p][q]))
    # pi[j]: (a, b) -> {x_a, x_b}(P) over the local indices of site j
    pi = [
        {
            ab: sum(coeff * Fraction(site[i][k]) for (i, k), coeff in row.items())
            for ab, row in commutator_constants(n, entries).items()
        }
        for site in point
    ]
    grads, fields = [], []
    for h in hams:
        grad = [Fraction(0)] * alg.gen_count
        for mono, c in h.terms:
            for g, e in mono:
                term = c * e * values[g] ** (e - 1)
                for other, e2 in mono:
                    if other != g:
                        term *= values[other] ** e2
                grad[g] += term
        field = [Fraction(0)] * alg.gen_count
        for j, site_pi in enumerate(pi):
            offset = j * len(entries)
            for (a, b), v in site_pi.items():
                field[offset + a] += v * grad[offset + b]
        grads.append(grad)
        fields.append(field)
    return linalgq.rank(grads), linalgq.rank(fields)


def reference_weight_datum(rs, theta):
    """(jumps, levi_roots, plus_grading, facet_class) of theta, root by root
    from the scalar pairing rootsys.pair: the jump ceil(-r(theta)), Levi
    roots those of integer pairing, the radical grading one above the jump
    on Levi roots, and the facet class from the Levi root count."""
    import math

    from logahoric.parahoric import FACET_HYPERSPECIAL, FACET_IWAHORI, FACET_PROPER
    from logahoric.rootsys import pair

    jumps, levi, plus = {}, [], {}
    for r in rs.roots:
        value = pair(rs, theta, r)
        jumps[r] = math.ceil(-value)
        integral = value.denominator == 1
        if integral:
            levi.append(r)
        plus[r] = jumps[r] + integral
    if len(levi) == len(rs.roots):
        facet = FACET_HYPERSPECIAL
    elif levi:
        facet = FACET_PROPER
    else:
        facet = FACET_IWAHORI
    return jumps, tuple(levi), plus, facet


def rank2_reduction(cand, split_degrees, weights):
    """The ReductionDatum of a rank-2 candidate, rebuilt from its degree and
    incidences and the input weight pairs (on-flag, off-flag): a line
    subbundle of degree cand.degree in the rank-2 bundle of degree
    a1 + a2, with the on-flag weight at each incidence and the off-flag
    weight at every other flag, and every weight among the bundle's
    total_pairings."""
    from logahoric.parahoric import ReductionDatum

    held = set(cand.incidences)
    pairings = [on if i in held else off for i, (on, off) in enumerate(weights)]
    every = [w for pair in weights for w in pair]
    return ReductionDatum(cand.degree, 1, sum(split_degrees), 2, pairings, every)


def reference_rank2(split_degrees, flags=(), weights=(), points=None):
    """The rank-2 enumerator by the all-subsets route, kept as a test oracle:
    for each degree a, the incidence rows over Q, each scaled to integers by
    its own denominator, and the closure of every subset of them whose
    kernel is not zero, from sympy's rank of every subset
    (reference_incidence_closures).  Inputs are taken as valid; returns
    (candidates, witness, total_weighted_degree, total_slope)."""
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
        rows = []
        for (c, d), x in zip(flag_dirs, xs):
            row = [d * x**k for k in range(dim_p)] + [-c * x**k for k in range(dim_q)]
            den = math.lcm(*(v.denominator for v in row))
            rows.append([int(v * den) for v in row])
        for actual in reference_incidence_closures(rows, nvars):
            pairings = tuple(wpairs[i][0] if i in actual else wpairs[i][1] for i in range(m))
            wd = parahoric_degree(ReductionDatum(a, 1, total_degree, 2, pairings))
            if wd > total_slope:
                verdict = VERDICT_FAIL
            elif wd == total_slope:
                verdict = VERDICT_BOUNDARY
            else:
                verdict = VERDICT_STABLE
            found[(a, actual)] = Rank2Candidate(a, actual, wd, verdict)

    candidates = tuple(
        sorted(found.values(), key=lambda c: (-c.weighted_degree, -c.degree, c.incidences))
    )
    return candidates, candidates[0], total_wd, total_slope


def reference_lax_matrix(f: LogHiggsField, z):
    """The polynomial Lax matrix A(z) = sum_j prod_{k != j}(z - x_k) X_j of a
    field as a sympy matrix, for a sympy symbol or rational z."""
    import sympy

    xs = [sympy.Rational(x.numerator, x.denominator) for x in f.points]
    total = sympy.zeros(f.matrix_size)
    for j, res in enumerate(f.residues):
        weight = sympy.prod([z - x for k, x in enumerate(xs) if k != j])
        total += weight * matrix_to_sympy(res)
    return total


def reference_char_coeff_polys(f: LogHiggsField, top: int):
    """The coefficients [c_0(z), ..., c_n(z)] of det(lambda*I - A(z)) as
    ascending Fraction lists, by sympy's charpoly of the symbolic A(z), and
    their values at t = 0..top: what higgs._char_coeff_polys(f, top)
    interpolates, and its int samples c_k(B) divided by D^(n-k)."""
    import sympy

    z, lam = sympy.symbols("z lam")
    n = f.matrix_size
    charpoly = sympy.Poly(reference_lax_matrix(f, z).charpoly(lam).as_expr(), lam)
    polys = [sympy_to_coeffs(charpoly.coeff_monomial(lam**k), z) for k in range(n + 1)]
    samples = [[polyq.evaluate(c, t) for c in polys] for t in range(top + 1)]
    return polys, samples


def reference_residue_invariants(f: LogHiggsField, j: int) -> List[Fraction]:
    """e_1..e_n of A(x_j), by sympy's charpoly, each e_i divided by
    w_j(x_j)^i with w_j(x_j) = prod_{k != j}(x_j - x_k)."""
    import sympy

    x = f.points[j]
    at = reference_lax_matrix(f, sympy.Rational(x.numerator, x.denominator))
    desc = at.charpoly(sympy.Symbol("lam")).all_coeffs()  # 1, a_1, ..., a_n
    w = Fraction(1)
    for k, y in enumerate(f.points):
        if k != j:
            w *= x - y
    return [
        Fraction(int(c.p), int(c.q)) * (-1) ** i / w**i for i, c in enumerate(desc[1:], 1)
    ]


def reference_gaudin_values(f: LogHiggsField) -> List[Fraction]:
    """The Gaudin values read off the Hitchin quadratic section, for a field
    regular at infinity.  With w = prod(z - x_k) and g = e_2 - e_1^2/2 from
    hitchin_map's sections e_i of A(z) (e_1 = 0 in SL), (1/2) tr L^2 is
    -g/w^2, so H_j = -Res_{x_j} g/w^2 = -(g' w_j - 2 g w_j')/w_j^3 at x_j,
    where w_j = prod_{k != j}(z - x_k) and w_j'/w_j = sum_{k != j} 1/(x_j - x_k)."""
    from logahoric.higgs import hitchin_map

    image = hitchin_map(f)
    sections = dict(zip(image.degrees, image.sections))
    e1, e2 = sections.get(1, []), sections[2]
    out = []
    for j, x in enumerate(f.points):
        gaps = [x - y for k, y in enumerate(f.points) if k != j]
        e1x, de1x = polyq.evaluate(e1, x), polyq.evaluate(polyq.derivative(e1), x)
        g = polyq.evaluate(e2, x) - e1x * e1x / 2
        dg = polyq.evaluate(polyq.derivative(e2), x) - e1x * de1x
        w = Fraction(1)
        for d in gaps:
            w *= d
        out.append(-(dg - 2 * g * sum(1 / d for d in gaps)) / (w * w))
    return out


def reference_bivector_rank(xi):
    """Rank of the Poisson bivector at a MomentValue as one matrix over every
    site's generators, kept as a test oracle: each site is the block whose
    entries cocharacter_to_diagonal's diagonal of the point's weight ties
    (the full site where there is none), its bivector is built from the
    commutator_constants of those entries, and the rank of the whole matrix
    is sympy's, independent of the site-by-site rule and linalgq.rank it
    checks."""
    import sympy

    from logahoric.rootsys import cocharacter_to_diagonal

    blocks = []
    for j, values in enumerate(xi.sites):
        theta = xi.data[j] if xi.data is not None else None
        n = len(values)
        t = [0] * n if theta is None else cocharacter_to_diagonal(theta)
        blocks.append((values, entries_of(t)))
    pi = sympy.zeros(sum(len(entries) for _, entries in blocks))
    offset = 0
    for values, entries in blocks:
        for (a, b), row in commutator_constants(len(values), entries).items():
            acc = Fraction(sum(coeff * values[i][k] for (i, k), coeff in row.items()))
            pi[offset + a, offset + b] = sympy.Rational(acc.numerator, acc.denominator)
        offset += len(entries)
    return pi.rank()


def site_block_rank(xi) -> int:
    """Rank of the Poisson bivector as the sum of linalgq.rank of each
    site's whole dim x dim block, pi_ab = [p == s] xi_rq - [q == r] xi_ps
    over the site's entries a = (p, q), b = (r, s), kept as a test oracle:
    no split into weight classes and no cyclic-vector certificate."""
    from logahoric import linalgq, poisson

    total = 0
    for j, values in enumerate(xi.sites):
        theta = xi.data[j] if xi.data is not None else None
        site = poisson.full_site(len(values)) if theta is None else levi_site(theta)
        total += linalgq.rank(
            [
                [
                    (values[r][q] if p == s else 0) - (values[p][s] if q == r else 0)
                    for r, s in site
                ]
                for p, q in site
            ]
        )
    return total


def reference_rank(rows, ncols: int) -> int:
    """Rank of integer rows of length ncols, by sympy's DomainMatrix over ZZ,
    independent of linalgq's elimination."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), ncols), ZZ).rank()


def reference_incidence_closures(rows, nvars: int):
    """The closed incidence sets of integer condition rows on nvars unknowns,
    by brute force, kept as a test oracle for parahoric._incidence_walk:
    the reference_rank of every subset of rows, and for each subset of rank
    below nvars, every row whose addition leaves that rank unchanged (every
    row in the span of the subset)."""
    m = len(rows)
    ranks = {
        subset: reference_rank([rows[k] for k in subset], nvars)
        for size in range(m + 1)
        for subset in combinations(range(m), size)
    }
    return {
        tuple(k for k in range(m) if ranks[tuple(sorted({*subset, k}))] == r)
        for subset, r in ranks.items()
        if r < nvars
    }
