"""Logarithmic Higgs fields on the line and their invariant data.

A field is a matrix-valued one-form sum(X_j/(z - x_j)) dz with exact
rational marked points and residues: the Gaudin Lax matrix L(z).
Multiplying by prod(z - x_k) clears denominators to the polynomial Lax
matrix A(z) = sum_j w_j(z) X_j, w_j(z) = prod_{k != j}(z - x_k); the
sum-zero rule on residues is exactly regularity at infinity and caps deg A
at s-2.

A field keeps one form (LogHiggsField.cleared): points x_k = a_k/d_x and
residues X_j = R_j/d_r in ints over one denominator each, made by the one
checked constructor field_from_read, which build_field and the CLI call
once they have read the numbers.  Every numeric route and derived value,
regularity at infinity included, reads that form.  With the int
polyq.lagrange_weights w_j of the a_k, B(tau) = sum_j w_j(tau) R_j is an
int polynomial matrix and A(z) = B(z d_x)/D, D = d_x^(s-1) d_r.  Every
polynomial in z made by products (the entries of A and its characteristic
coefficients) is read from one value at tau = 2^beta: the int matrix
B(2^beta), its Berkowitz coefficients, and one balanced-digit read
(polyq.digits) each, with beta set from a bound on the coefficients by
polyq.kronecker_beta so that the read is exact.  One Fraction is made per
coefficient.

Invariant sections are characteristic coefficients of A(z), signed so the
degree-i section is the i-th elementary symmetric function of eigenvalues.
The spectral data is the lambda-discriminant of det(lambda*I - A(z)),
interpolated in ints from its int values at t = 0..n(n-1) deg A
(spectral_curve).  The genus comes from Riemann-Hurwitz bookkeeping over
P^1: the discriminant, as a form of degree N = n(n-1) deg A, has deg(disc)
simple finite roots when the affine discriminant is squarefree, and a root
of order e = N - deg(disc) at infinity.  So genus = N/2 - n + 1 when the
affine discriminant is squarefree and e <= 1 (every branch point simple,
infinity included); it is left undefined for a square factor, for e >= 2
(the curve is singular over infinity), and for N < 2(n - 1), where the
formula goes negative.  branch_count and is_squarefree stay affine.

The Gaudin Hamiltonians H_j = sum_{k != j} tr(X_j X_k)/(x_j - x_k) come
as numbers from gaudin_values, and as symbolic forms in the Lie-Poisson
coordinates from gaudin_hamiltonians, for bracket checks.
quotient_diagram_check (here, above poisson in the one-way import order)
sets each point's _residue_invariants against its coresidue's invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import prod
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalgq, poisson, polyq
from .errors import ConstraintError, DivisorError, ShapeError, TraceError
from .linalgq import Matrix
from .polyq import Coeffs
from .rootsys import GroupTag, RationalCocharacter


@dataclass(frozen=True)
class LogHiggsField:
    """A field: its group, one weight (cocharacter theta or None) per point,
    and `cleared` = (d_x, a, d_r, rs), the points a_k/d_x and residues
    R_j/d_r, each R_j n*n ints row by row (field_from_read makes it).
    `points` and `residues` are Fraction views, made on first read."""

    group: GroupTag
    theta_data: Optional[Tuple[Optional[RationalCocharacter], ...]]
    cleared: Tuple[int, Tuple[int, ...], int, Tuple[Tuple[int, ...], ...]]

    @property
    def site_count(self) -> int:
        return len(self.cleared[1])

    @property
    def matrix_size(self) -> int:
        return self.group.matrix_size

    @cached_property
    def points(self) -> Tuple[Fraction, ...]:
        dx, a, _, _ = self.cleared
        return tuple(Fraction(x, dx) for x in a)

    @cached_property
    def residues(self) -> Tuple[Matrix, ...]:
        n, (_, _, dr, rs) = self.matrix_size, self.cleared
        return tuple([[Fraction(v, dr) for v in r[p:p + n]] for p in range(0, n * n, n)]
                     for r in rs)

    @cached_property
    def regular_at_infinity(self) -> bool:
        """Whether the residues sum to zero, read from the cleared R_j."""
        return not any(map(sum, zip(*self.cleared[3])))


def field_from_read(
    points: Sequence,
    residues: Sequence[Sequence],
    group: GroupTag,
    theta_data: Optional[Tuple[Optional[RationalCocharacter], ...]] = None,
) -> LogHiggsField:
    """The field of numbers build_field or the CLI has read, not read again
    (points, residues as n*n linalgq.ratio pairs row by row, checked thetas):
    a non-empty divisor of distinct points, one n*n residue per point, each
    tr R_j = 0 in SL mode; points and entries cleared by one integer_form each."""
    if not points:
        raise DivisorError("divisor must be nonempty")
    dx, a = linalgq.integer_form(points)
    if len(set(a)) != len(a):
        raise DivisorError("marked points must be pairwise distinct")
    if len(residues) != len(a):
        raise ShapeError(f"{len(a)} points but {len(residues)} residues")
    n = group.matrix_size
    for j, r in enumerate(residues):
        if len(r) != n * n:
            raise ShapeError(f"residue {j} must be {n}x{n} for {group.family}{group.rank}")
    dr, flat = linalgq.integer_form(chain.from_iterable(residues))
    rs = tuple(tuple(flat[i:i + n * n]) for i in range(0, len(flat), n * n))
    if group.form == "SL":
        for j, r in enumerate(rs):
            if sum(r[::n + 1]):
                raise TraceError(f"residue {j} has trace {Fraction(sum(r[::n + 1]), dr)}; "
                                 "SL mode needs 0")
    return LogHiggsField(group, theta_data, (dx, tuple(a), dr, rs))


def build_field(
    points: Sequence,
    residues: Sequence[Sequence[Sequence]],
    group: GroupTag,
    theta_data: Optional[Sequence[Optional[RationalCocharacter]]] = None,
) -> LogHiggsField:
    """Read marked points, residues (n x n each) and weights (one
    cocharacter theta or None per point, each with the group's rank of
    coroot coordinates) for field_from_read, which checks the rest: shapes
    are checked here, and every number is read by linalgq.rationals, the
    residue entries into int pairs (linalgq.ratio)."""
    if not linalgq.has_shape(points, None):
        raise ShapeError("points must be a sequence of rationals")
    xs = linalgq.rationals(points, "points")
    n = group.matrix_size
    if not linalgq.has_shape(residues, None):
        raise ShapeError("residues must be a sequence of matrices")
    mats = []
    for j, raw in enumerate(residues):
        if not linalgq.has_shape(raw, n, n):
            raise ShapeError(f"residue {j} must be {n}x{n} for {group.family}{group.rank}")
        mats.append([x for p, row in enumerate(raw)
                     for x in linalgq.rationals(row, f"residues[{j}][{p}]", read=linalgq.ratio)])
    if theta_data is not None:
        if not linalgq.has_shape(theta_data, len(xs)):
            raise ShapeError("theta_data must list one cocharacter per point")
        for j, theta in enumerate(theta_data):
            if theta is not None and not (isinstance(theta, RationalCocharacter)
                                          and linalgq.has_shape(theta.coeffs, group.rank)):
                raise ShapeError(f"theta_data[{j}] must be a cocharacter of {group.rank} "
                                 f"coordinates for {group.family}{group.rank}")
        theta_data = tuple(None if th is None else RationalCocharacter(tuple(linalgq.rationals(
            th.coeffs, f"theta_data[{j}]"))) for j, th in enumerate(theta_data))
    return field_from_read(xs, mats, group, theta_data)


@dataclass(frozen=True)
class PolynomialMatrix:
    """A(z) = sum A_k z^k, stored as coefficient matrices with no zero tail."""

    coeffs: Tuple[Matrix, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _packed(f: LogHiggsField) -> Tuple[int, int, List[List[int]]]:
    """(D, beta, B(2^beta)): A(z) = B(z d_x)/D, D = d_x^(s-1) d_r, packed
    at tau = 2^beta so that every int polynomial in tau that Berkowitz's
    division-free products make of B(tau), and every entry, is read back
    exactly by polyq.digits of its value there (Kronecker substitution).

    The bound.  Let |p| be the sum of the absolute coefficients of p, so
    |pq| <= |p| |q|.  |w_j| <= W_j = prod_(k != j)(1 + |a_k|)
    (polyq.weight_norms), so r_p = sum_q sum_j W_j |R_j[p][q]| bounds
    |B_pq(tau)| for every entry of row p.  C_k(tau) = c_k(B(tau)) is
    (-1)^(n-k) times the sum of the principal (n-k)-minors, and a minor on
    rows P expands into products of one entry from each row of P, so
    |C_k| <= e_(n-k)(r_0, ..., r_(n-1)) <= prod_p (1 + r_p), the bound
    that polyq.kronecker_beta turns into beta."""
    n = f.matrix_size
    dx, a, dr, rs = f.cleared
    entries = list(zip(*rs))  # R_j[p][q] over j, row by row
    norms = polyq.weight_norms(a)
    sizes = [sum(map(mul, norms, map(abs, e))) for e in entries]  # bounds on |B_pq|
    beta = polyq.kronecker_beta(prod(1 + sum(sizes[p:p + n]) for p in range(0, n * n, n)))
    ws = polyq.lagrange_weights(a, 1 << beta)
    packed = [sum(map(mul, ws, e)) for e in entries]
    return dx ** (f.site_count - 1) * dr, beta, [packed[p:p + n] for p in range(0, n * n, n)]


def _degree_bound(f: LogHiggsField) -> int:
    """Bound on deg A: s - 2 for fields regular at infinity, else s - 1."""
    return max(f.site_count - (2 if f.regular_at_infinity else 1), 0)


def clear_denominators(f: LogHiggsField) -> PolynomialMatrix:
    """The polynomial Lax matrix prod(z - x_k) * L(z) = B(z d_x)/D: the
    digits b_i of each entry of _packed's B(2^beta) give its coefficients
    b_i d_x^i / D."""
    big_d, beta, packed = _packed(f)
    entries = [[polyq.digits(b, beta) for b in row] for row in packed]
    width = max(len(e) for row in entries for e in row)
    scales = list(accumulate([f.cleared[0]] * width, mul, initial=1))  # d_x^i
    return PolynomialMatrix(
        coeffs=tuple(
            [[Fraction(e[k] * scales[k], big_d) if k < len(e) else Fraction(0) for e in row]
             for row in entries]
            for k in range(width)
        )
    )


def invariant_degrees(f: LogHiggsField) -> List[int]:
    n = f.matrix_size
    return list(range(1, n + 1)) if f.group.form == "GL" else list(range(2, n + 1))


def _char_coeff_polys(f: LogHiggsField, top: int) -> Tuple[List[Coeffs], int, List[List[int]]]:
    """[c_0(z), ..., c_n(z)] with det(lambda*I - A(z)) = sum c_k lambda^k,
    D, and [C_0(tau), ..., C_n(tau)] at tau = t d_x for t = 0..top, ints,
    where C_k(tau) = c_k(B(tau)) and B(t d_x) = D*A(t).  linalgq.char_coeffs
    runs once, on _packed's B(2^beta), and polyq.digits reads each C_k's
    int coefficients C_k,i from its value there.  As A(z) = B(z d_x)/D,
    c_k(z) has the coefficients C_k,i d_x^i / D^(n-k), one Fraction each;
    the values at t are C_k evaluated in ints."""
    n = f.matrix_size
    big_d, beta, packed = _packed(f)
    cs = [polyq.digits(c, beta) for c in linalgq.char_coeffs(packed)]
    width = max(map(len, cs))
    dx = f.cleared[0]
    scales = list(accumulate([dx] * width, mul, initial=1))  # d_x^i
    dens = [big_d ** (n - k) for k in range(n + 1)]
    polys = [[Fraction(c * x, den) for c, x in zip(ck, scales)] for ck, den in zip(cs, dens)]
    chars = []
    for t in range(top + 1):
        powers = list(accumulate([t * dx] * width, mul, initial=1))
        chars.append([sum(map(mul, ck, powers)) for ck in cs])
    return polys, big_d, chars


@dataclass(frozen=True)
class HitchinImage:
    degrees: Tuple[int, ...]
    sections: Tuple[Coeffs, ...]
    ambient_dims: Tuple[int, ...]


def hitchin_map(f: LogHiggsField) -> HitchinImage:
    """Invariant sections of the field: signed characteristic coefficients.

    Section i (one per fundamental invariant degree, the trace omitted in SL
    mode) is the i-th elementary symmetric function of the eigenvalues of
    A(z), a polynomial in z of degree at most i*(s'-2) with s' = s, or s + 1
    when infinity is a pole; its ambient dimension, the number of
    coefficients up to that degree, is max(i*(s'-2) + 1, 0).
    """
    n = f.matrix_size
    cs, _, _ = _char_coeff_polys(f, 0)
    s = f.site_count if f.regular_at_infinity else f.site_count + 1
    degrees = invariant_degrees(f)
    sections = tuple([-c for c in cs[n - i]] if i % 2 else cs[n - i] for i in degrees)
    ambient = tuple(max(i * (s - 2) + 1, 0) for i in degrees)
    return HitchinImage(degrees=tuple(degrees), sections=sections, ambient_dims=ambient)


@dataclass(frozen=True)
class SpectralCurveData:
    char_coeffs: Tuple[Coeffs, ...]
    discriminant: Coeffs
    is_squarefree: bool
    branch_count: int
    genus: Optional[int]


# Largest accepted bound n(n-1) deg A on the discriminant degree.  A
# discriminant with a square factor is decided by the gcd over Q of
# polyq._gcd_degree, whose cost grows steeply with the degree: for
# block-diagonal GL fields (n = 5, blocks 2 + 3, whose discriminant carries a
# squared resultant) it took 0.09 s at degree 60, 0.32 s at 80, 1.2 s at
# 100, 2.5-2.8 s at 120, 5.9 s at 140 and 13 s at 160 on a shared 2-CPU
# host.  120 is the bound of n = 5, s = 7 with a non-zero residue sum, the
# top of the size ladder.
SPECTRAL_MAX_DEGREE = 120


def spectral_curve(f: LogHiggsField) -> SpectralCurveData:
    """Eigenvalue-curve data of the polynomial Lax matrix.

    The discriminant is weighted-homogeneous of weight n(n-1) in the
    characteristic coefficients, and deg c_k <= (n-k) deg A, so its degree is
    at most N = n(n-1) deg A.  det(lambda*I - A(t)) is monic in lambda, so
    the discriminant of its coefficients at t is the value at t of the one
    over Q[z].  For t = 0..N it is the int Hankel discriminant
    (polyq.discriminant) of the monic int characteristic polynomial of
    B(t d_x) = D*A(t), evaluated from _char_coeff_polys' one Berkowitz run;
    B has D times the eigenvalues of A(t), so the values are interpolated in
    ints over D^(n(n-1)).  The int coefficients go to polyq.is_squarefree as
    they are, and one Fraction is made per coefficient.  The genus is
    N/2 - n + 1 when that test passes and N - deg(disc), the order of the
    root at infinity, is at most 1 (module docstring), else None.

    Shapes whose bound N, with deg A <= s - 2 for fields regular at infinity
    and s - 1 otherwise, exceeds SPECTRAL_MAX_DEGREE are refused with
    ShapeError before any work.
    """
    n = f.matrix_size
    deg = _degree_bound(f)
    bound = n * (n - 1) * deg
    if bound > SPECTRAL_MAX_DEGREE:
        raise ShapeError(
            f"spectral needs a discriminant degree bound n(n-1)*deg A of at most "
            f"{SPECTRAL_MAX_DEGREE}; n = {n} with {f.site_count} points gives {bound}"
        )
    cs, big_d, chars = _char_coeff_polys(f, bound)
    ints, den = polyq.interpolate(list(map(polyq.discriminant, chars)), big_d ** (n * (n - 1)))
    squarefree = bool(ints) and polyq.is_squarefree(ints)
    branch = max(len(ints) - 1, 0)
    genus: Optional[int] = None
    if squarefree and bound - branch <= 1 and bound >= 2 * (n - 1):
        genus = bound // 2 - n + 1
    return SpectralCurveData(
        char_coeffs=tuple(cs),
        discriminant=[Fraction(c, den) for c in ints],
        is_squarefree=squarefree,
        branch_count=branch,
        genus=genus,
    )


def spectral_genus(n: int, s: int) -> int:
    """Closed-form genus of the generic eigenvalue curve: branch points are
    the n(n-1)(s-2) simple discriminant roots, so the count is always even."""
    if n < 2 or s < 3:
        raise ValueError("spectral genus needs matrix size >= 2 and >= 3 points")
    # Even: n - 1 is even for odd n, and n(s - 2) - 2 is even for even n.
    return (n - 1) * (n * (s - 2) - 2) // 2


def _residue_invariants(f: LogHiggsField) -> List[List[Fraction]]:
    """Per marked point x_j, the leading coefficients of the invariants
    e_1..e_n of L(z) there: e_i(A(x_j)) / w_j(x_j)**i.  Every other Lagrange
    weight vanishes at x_j, so A(x_j) = w_j(x_j) X_j and this is
    e_i(X_j) = e_i(R_j) / d_r**i, linalgq.invariant_values of the cleared
    int residue R_j."""
    n = f.matrix_size
    _, _, dr, rs = f.cleared
    return [
        [Fraction(v, dr**i) for i, v in enumerate(
            linalgq.invariant_values([r[p:p + n] for p in range(0, n * n, n)]), 1)]
        for r in rs
    ]


def residue_of_invariant(f: LogHiggsField, j: int, i: int) -> Fraction:
    """Leading coefficient of invariant i of L(z) at the j-th marked point:
    in the local frame dz/(z - x_j), the degree-i invariant section of A(z)
    at x_j over w_j(x_j)**i, which is e_i(X_j) (_residue_invariants)."""
    if not 0 <= j < f.site_count:
        raise IndexError(f"point index {j} out of range 0..{f.site_count - 1}")
    degrees = invariant_degrees(f)
    if i not in degrees:
        raise IndexError(
            f"invariant degree {i} not available in {f.group.form} mode (choose from {degrees})"
        )
    return _residue_invariants(f)[j][i - 1]


def gaudin_values(f: LogHiggsField) -> Tuple[Fraction, ...]:
    """The quadratic Gaudin Hamiltonians at the marked points, as numbers.

    The value at point j is sum over k != j of tr(X_j X_k)/(x_j-x_k), the
    simple-pole coefficient of (1/2) tr L(z)^2 at x_j; the values always
    sum to zero.  Taken in ints: one trace tr(R_j R_k) of the cleared
    residues per unordered pair.  Raises ConstraintError unless the field
    is regular at infinity.
    """
    if not f.regular_at_infinity:
        raise ConstraintError("Hamiltonian extraction needs a residue sum of zero")
    s = f.site_count
    n = f.matrix_size
    dx, ax, dr, rs = f.cleared
    transposes = [[r[q * n + p] for p in range(n) for q in range(n)] for r in rs]
    values = [Fraction(0)] * s
    for j in range(s):
        for k in range(j + 1, s):
            # tr(X_j X_k)/(x_j - x_k) with x = ax/dx and X = R/dr: one int
            # trace tr(R_j R_k) per unordered pair, as tr(X_j X_k) = tr(X_k X_j)
            term = Fraction(sum(map(mul, rs[j], transposes[k])) * dx, dr * dr * (ax[j] - ax[k]))
            values[j] += term
            values[k] -= term
    return tuple(values)


# Largest n*s, matrix size times point count, that gaudin_hamiltonians
# accepts (the `involution` command's default family); larger shapes are
# refused (ShapeError) before the Hamiltonians are built.  On a shared 2-CPU
# host, building and checking at points 0..s-1 took 0.2 s at n*s = 64,
# 0.4-0.7 s and 25-35 MB peak RSS at 80 (n, s = 8, 10; 10, 8; 5, 16; 16, 5;
# 4, 20; 2, 40; 20, 4), 0.9 s at 96, 3-5 s at 128 and 12 s (130 MB) at 10, 20.
GAUDIN_INVOLUTION_MAX_SIZE = 80


def gaudin_hamiltonians(f: LogHiggsField) -> tuple:
    """(alg, hams), the shape of poisson.hitchin_coefficient_hamiltonians:
    the quadratic Hamiltonians of gaudin_values as abstract polynomials in
    the matrix-entry coordinates of LiePoissonAlgebra(n, s) (n^2 (s-1) terms
    each), for symbolic bracket checks.  Shapes with n*s past
    GAUDIN_INVOLUTION_MAX_SIZE raise ShapeError before any work, and fields
    not regular at infinity ConstraintError.
    """
    s = f.site_count
    n = f.matrix_size
    if n * s > GAUDIN_INVOLUTION_MAX_SIZE:
        raise ShapeError(
            f"Gaudin involution takes n*s at most {GAUDIN_INVOLUTION_MAX_SIZE}; "
            f"n = {n} with {s} points gives {n * s}"
        )
    if not f.regular_at_infinity:
        raise ConstraintError("Hamiltonian extraction needs a residue sum of zero")
    dx, ax, _, _ = f.cleared
    alg = poisson.LiePoissonAlgebra(n, s)
    gens = [
        [[alg.generator_index(j, p, q) for q in range(n)] for p in range(n)]
        for j in range(s)
    ]
    polys = []
    for j in range(s):
        terms: Dict[poisson.Monomial, Fraction] = {}
        for k in range(s):
            if k == j:
                continue
            c = Fraction(dx, ax[j] - ax[k])  # 1/(x_j - x_k)
            for p in range(n):
                for q in range(n):
                    # x_j[p][q] x_k[q][p]: a distinct monomial for each (k, p, q),
                    # its generators ascending because site j's precede site k's
                    a, b = (gens[j][p][q], 1), (gens[k][q][p], 1)
                    terms[(a, b) if j < k else (b, a)] = c
        polys.append(poisson.PoissonPolynomial._from_dict(alg, terms))
    return alg, tuple(polys)


@dataclass(frozen=True)
class DiagramRow:
    point: int
    degree: int
    residue_route: Fraction
    moment_route: Fraction

    @property
    def equal(self) -> bool:
        return self.residue_route == self.moment_route


@dataclass(frozen=True)
class DiagramReport:
    rows: Tuple[DiagramRow, ...]

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)


def quotient_diagram_check(f: LogHiggsField) -> DiagramReport:
    """Compare two routes to the invariant values over the divisor, exactly.

    Route one evaluates each invariant section of the field at a marked
    point in the polar frame, e_i(X_j) (_residue_invariants, from the
    cleared residues).  Route two applies the same invariant to that
    point's coresidue, with the field's own theta_data as the weights of
    poisson.moment_map, which makes a Fraction of each cleared residue
    entry it keeps.
    """
    mv = poisson.moment_map(f)
    degrees = invariant_degrees(f)
    rows = []
    for j, residue_vals in enumerate(_residue_invariants(f)):
        site_vals = linalgq.invariant_values(mv.sites[j])
        rows += [DiagramRow(j, i, residue_vals[i - 1], site_vals[i - 1]) for i in degrees]
    return DiagramReport(rows=tuple(rows))
