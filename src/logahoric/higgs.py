"""Logarithmic Higgs fields on the line and their invariant data.

A field is a matrix-valued one-form sum(X_j/(z - x_j)) dz with exact
rational marked points and residues.  Multiplying by P(z) = prod(z - x_j)
clears denominators to a polynomial Lax matrix A(z); the sum-zero rule on
residues is exactly regularity at infinity and caps deg A at s-2.

Invariant sections are characteristic coefficients of A(z), signed so the
degree-i section is the i-th elementary symmetric function of eigenvalues.
The spectral data is the lambda-discriminant of det(lambda*I - A(z)).
Both are sampled: the Fraction characteristic coefficients of A(t) are
taken at integer points t, the discriminant of each sample is that of a
monic polynomial over Q, and each polynomial in z is interpolated from its
values.  The genus comes from Riemann-Hurwitz bookkeeping:
genus = branch/2 - n + 1 where branch counts the (simple, finite)
discriminant roots.  The genus field is meaningful for connected
covers with no ramification over infinity, which is the generic situation;
it is left undefined whenever the discriminant fails to be squarefree or
has an odd number of roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalgq, polyq
from .errors import (
    ConstraintError,
    DivisorError,
    ShapeError,
    TraceError,
    UnsupportedRealizationError,
)
from .linalgq import Matrix
from .parahoric import ParahoricDatum
from .polyq import Coeffs
from .rootsys import GroupTag, trace_form


@dataclass(frozen=True)
class LogHiggsField:
    points: Tuple[Fraction, ...]
    residues: Tuple[Matrix, ...]
    group: GroupTag
    theta_data: Optional[Tuple[ParahoricDatum, ...]]
    regular_at_infinity: bool

    @property
    def site_count(self) -> int:
        return len(self.points)

    @property
    def matrix_size(self) -> int:
        return self.group.matrix_size

    def evaluate(self, z) -> Matrix:
        """Value of L(z) away from the marked points."""
        z = Fraction(z)
        if z in self.points:
            raise DivisorError(f"L(z) has a pole at z = {z}")
        out = linalgq.zeros(self.matrix_size)
        for x, res in zip(self.points, self.residues):
            out = linalgq.mat_add(out, linalgq.mat_scale(res, Fraction(1, 1) / (z - x)))
        return out


def build_field(
    points: Sequence,
    residues: Sequence[Sequence[Sequence]],
    group: GroupTag,
    theta_data: Optional[Sequence[ParahoricDatum]] = None,
) -> LogHiggsField:
    """Validate marked points and residues and flag regularity at infinity."""
    xs = [Fraction(x) for x in points]
    if not xs:
        raise DivisorError("divisor must be nonempty")
    if len(set(xs)) != len(xs):
        raise DivisorError("marked points must be pairwise distinct")
    n = group.matrix_size
    if len(residues) != len(xs):
        raise ShapeError(f"{len(xs)} points but {len(residues)} residues")
    mats = []
    for j, raw in enumerate(residues):
        m = linalgq.mat(raw)
        if len(m) != n or any(len(row) != n for row in m):
            raise ShapeError(f"residue {j} must be {n}x{n} for {group.family}{group.rank}")
        if group.form == "SL" and linalgq.trace(m) != 0:
            raise TraceError(f"residue {j} has trace {linalgq.trace(m)}; SL mode needs 0")
        mats.append(m)
    if theta_data is not None and len(theta_data) != len(xs):
        raise ShapeError("theta_data must list one parahoric datum per point")
    total = linalgq.zeros(n)
    for m in mats:
        total = linalgq.mat_add(total, m)
    return LogHiggsField(
        points=tuple(xs),
        residues=tuple(mats),
        group=group,
        theta_data=tuple(theta_data) if theta_data is not None else None,
        regular_at_infinity=linalgq.is_zero_matrix(total),
    )


@dataclass(frozen=True)
class PolynomialMatrix:
    """A(z) = sum A_k z^k, stored as coefficient matrices with no zero tail."""

    coeffs: Tuple[Matrix, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def entries(self) -> List[List[Coeffs]]:
        if not self.coeffs:
            return []
        n = len(self.coeffs[0])
        return [
            [polyq.trim([m[p][q] for m in self.coeffs]) for q in range(n)]
            for p in range(n)
        ]

    def evaluate(self, z) -> Matrix:
        z = Fraction(z)
        n = len(self.coeffs[0]) if self.coeffs else 0
        out = linalgq.zeros(n)
        power = Fraction(1)
        for m in self.coeffs:
            out = linalgq.mat_add(out, linalgq.mat_scale(m, power))
            power *= z
        return out


def _entry_polys(f: LogHiggsField) -> List[List[Coeffs]]:
    n = f.matrix_size
    basis = [
        polyq.from_roots([x for k, x in enumerate(f.points) if k != j])
        for j in range(f.site_count)
    ]
    out = [[polyq.poly([]) for _ in range(n)] for _ in range(n)]
    for j, res in enumerate(f.residues):
        for p in range(n):
            for q in range(n):
                if res[p][q]:
                    out[p][q] = polyq.add(out[p][q], polyq.scale(basis[j], res[p][q]))
    return out


def clear_denominators(f: LogHiggsField) -> PolynomialMatrix:
    """The polynomial Lax matrix prod(z - x_k) * L(z)."""
    entries = _entry_polys(f)
    n = f.matrix_size
    deg = max((polyq.degree(e) for row in entries for e in row), default=-1)
    coeffs = []
    for k in range(deg + 1):
        coeffs.append(
            [
                [entries[p][q][k] if k <= polyq.degree(entries[p][q]) else Fraction(0)
                 for q in range(n)]
                for p in range(n)
            ]
        )
    return PolynomialMatrix(coeffs=tuple(coeffs))


def invariant_degrees(f: LogHiggsField) -> List[int]:
    n = f.matrix_size
    return list(range(1, n + 1)) if f.group.form == "GL" else list(range(2, n + 1))


def _char_coeff_polys(
    f: LogHiggsField, spread: int
) -> Tuple[List[Coeffs], List[List[Fraction]]]:
    """[c_0(z), ..., c_n(z)] with det(lambda*I - A(z)) = sum c_k lambda^k,
    and the samples [c_0(t), ..., c_n(t)] at t = 0..spread*deg A.

    Each sample is the Fraction char_coeffs of A(t).  Since
    deg c_k <= (n - k) deg A, the first n*deg A + 1 samples determine every
    c_k, which is interpolated from them with one Lagrange basis; spread must
    be at least n.  A zero field counts as deg A = 0.
    """
    if f.group.family != "A":
        raise UnsupportedRealizationError("invariant sections need the type-A realization")
    entries = _entry_polys(f)
    deg = max([polyq.degree(e) for row in entries for e in row] + [0])
    samples = [
        linalgq.char_coeffs([[polyq.evaluate(e, t) for e in row] for row in entries])
        for t in range(spread * deg + 1)
    ]
    lagrange = polyq.lagrange_basis(range(f.matrix_size * deg + 1))
    polys = []
    for k in range(f.matrix_size + 1):
        c: Coeffs = []
        for basis, sample in zip(lagrange, samples):
            c = polyq.add(c, polyq.scale(basis, sample[k]))
        polys.append(c)
    return polys, samples


@dataclass(frozen=True)
class HitchinImage:
    degrees: Tuple[int, ...]
    sections: Tuple[Coeffs, ...]
    ambient_dims: Tuple[int, ...]


def hitchin_map(f: LogHiggsField) -> HitchinImage:
    """Invariant sections of the field: signed characteristic coefficients.

    Section i (one per fundamental invariant degree, the trace omitted in SL
    mode) is the i-th elementary symmetric function of the eigenvalues of
    A(z), a polynomial in z of degree at most i*(s-2) for fields regular at
    infinity.
    """
    n = f.matrix_size
    cs, _ = _char_coeff_polys(f, n)
    s = f.site_count
    degrees = invariant_degrees(f)
    sections = tuple(polyq.scale(cs[n - i], -1 if i % 2 else 1) for i in degrees)
    ambient = tuple(i * (s - 2) + 1 for i in degrees)
    return HitchinImage(degrees=tuple(degrees), sections=sections, ambient_dims=ambient)


@dataclass(frozen=True)
class SpectralCurveData:
    char_coeffs: Tuple[Coeffs, ...]
    discriminant: Coeffs
    is_squarefree: bool
    branch_count: int
    genus: Optional[int]


def spectral_curve(f: LogHiggsField) -> SpectralCurveData:
    """Eigenvalue-curve data of the polynomial Lax matrix.

    The discriminant is weighted-homogeneous of weight n(n-1) in the
    characteristic coefficients, and deg c_k <= (n-k) deg A, so its degree is
    at most N = n(n-1) deg A.  The characteristic coefficients of A(t) are
    sampled at t = 0..N: det(lambda*I - A(t)) is monic in lambda, so the
    discriminant of each sample is the value at t of the one over Q[z], and
    the N + 1 values are interpolated.  The first n deg A + 1 samples give the
    characteristic coefficients themselves.
    """
    n = f.matrix_size
    cs, samples = _char_coeff_polys(f, max(n * (n - 1), n))
    if n == 1:
        disc: Coeffs = [Fraction(1)]
    else:
        values = [polyq.discriminant(c) for c in samples]
        disc = polyq.interpolate(range(len(samples)), values)
    squarefree = not polyq.is_zero(disc) and polyq.is_squarefree(disc)
    branch = max(polyq.degree(disc), 0)
    genus: Optional[int] = None
    if squarefree and branch % 2 == 0:
        genus = branch // 2 - n + 1
    return SpectralCurveData(
        char_coeffs=tuple(cs),
        discriminant=disc,
        is_squarefree=squarefree,
        branch_count=branch,
        genus=genus,
    )


def spectral_genus(n: int, s: int) -> int:
    """Closed-form genus of the generic eigenvalue curve: branch points are
    the n(n-1)(s-2) simple discriminant roots, so the count is always even."""
    if n < 2 or s < 3:
        raise ValueError("spectral genus needs matrix size >= 2 and >= 3 points")
    num = (n - 1) * (n * (s - 2) - 2)
    assert num % 2 == 0
    return num // 2


def residue_of_invariant(f: LogHiggsField, j: int, i: int) -> Fraction:
    """Leading coefficient of invariant i of L(z) at the j-th marked point.

    In the local frame dz/(z - x_j) this is the value of the degree-i
    invariant section of A(z) at x_j divided by prod((x_j - x_k)**i).  The
    value is the degree-i invariant of the Fraction matrix A(x_j), so the
    limit is computed from the polynomial side only, with no reference to
    the residue matrix itself.
    """
    if not 0 <= j < f.site_count:
        raise IndexError(f"point index {j} out of range 0..{f.site_count - 1}")
    degrees = invariant_degrees(f)
    if i not in degrees:
        raise IndexError(
            f"invariant degree {i} not available in {f.group.form} mode (choose from {degrees})"
        )
    xj = f.points[j]
    at = [[polyq.evaluate(e, xj) for e in row] for row in _entry_polys(f)]
    denom = Fraction(1)
    for k, x in enumerate(f.points):
        if k != j:
            denom *= xj - x
    return linalgq.invariant_values(at)[i - 1] / denom**i


def is_strongly_logarithmic_image(h: HitchinImage, f: LogHiggsField) -> bool:
    """True when every invariant section vanishes at every marked point."""
    if len(h.sections) != len(h.degrees):
        raise ShapeError("malformed invariant data: one section per degree")
    return all(
        polyq.evaluate(sec, x) == 0 for sec in h.sections for x in f.points
    )


@dataclass(frozen=True)
class GaudinData:
    values: Tuple[Fraction, ...]
    polynomials: tuple
    algebra: object


def gaudin_hamiltonians(f: LogHiggsField) -> GaudinData:
    """Quadratic Hamiltonians at the marked points.

    The numeric value at point j is sum over k != j of tr(X_j X_k)/(x_j-x_k),
    the simple-pole coefficient of (1/2) tr L(z)^2 at x_j; the values always
    sum to zero.  Alongside the numbers the same expressions are returned as
    abstract quadratic polynomials in the matrix-entry coordinates of the
    site duals, ready for symbolic bracket checks.
    """
    if not f.regular_at_infinity:
        raise ConstraintError("Hamiltonian extraction needs a residue sum of zero")
    from . import poisson  # deferred: poisson imports this module at top level

    s = f.site_count
    n = f.matrix_size
    values = [Fraction(0)] * s
    for j in range(s):
        for k in range(j + 1, s):
            # tr(X_j X_k) = tr(X_k X_j): one trace per unordered pair
            term = trace_form(f.residues[j], f.residues[k]) / (
                f.points[j] - f.points[k]
            )
            values[j] += term
            values[k] -= term
    alg = poisson.matrix_poisson_algebra(n, s)
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
            c = Fraction(1) / (f.points[j] - f.points[k])
            for p in range(n):
                for q in range(n):
                    # x_j[p][q] x_k[q][p]: a distinct monomial for each (k, p, q),
                    # its generators ascending because site j's precede site k's
                    a, b = (gens[j][p][q], 1), (gens[k][q][p], 1)
                    terms[(a, b) if j < k else (b, a)] = c
        polys.append(poisson.PoissonPolynomial._from_dict(alg, terms))
    return GaudinData(values=tuple(values), polynomials=tuple(polys), algebra=alg)
