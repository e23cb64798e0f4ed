"""Lie-Poisson algebra of the site duals and the coresidue moment map.

Coordinates on the dual of a matrix Lie algebra are taken to be the matrix
entries themselves: the generator at (p, q) of site j is the function
M |-> M[p][q], whose trace-form dual basis vector is the matrix unit E_qp.
With this choice the Lie-Poisson bracket of two entry coordinates is

    {x_pq, x_rs} = [p == s] x_rq - [q == r] x_ps      (same site, else 0)

and invariant polynomials of a matrix agree literally with the same
polynomials in the entry coordinates, which removes any basis-translation
layer between the matrix side and the symbolic side.

Sites are either a full matrix algebra (weight zero) or the block
subalgebra cut out by a parahoric weight: entries (p, q) whose weight
diagonal satisfies t_p == t_q.  Block entry sets are closed under the
bracket rule above, and each site's structure constants are checked for
antisymmetry and the Jacobi identity when the site is first built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import higgs, linalgq, polyq
from .errors import (
    AlgebraMismatchError,
    ConstraintError,
    FiltrationError,
    GroupError,
    ShapeError,
)
from .higgs import LogHiggsField
from .linalgq import Matrix
from .parahoric import ParahoricDatum
from .rootsys import cocharacter_to_diagonal, entry_to_root

Monomial = Tuple[Tuple[int, int], ...]  # ((generator, exponent), ...) sorted


# ---------------------------------------------------------------------------
# Site algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteAlgebra:
    matrix_size: int
    entries: Tuple[Tuple[int, int], ...]
    labels: Tuple[str, ...]
    # (a, b) -> ((c, C_ab^c), ...) for the non-zero integer structure constants
    bracket_table: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]]
    form: Tuple[Tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)


_SITE_CACHE: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], SiteAlgebra] = {}


def _build_site(n: int, entries: Tuple[Tuple[int, int], ...]) -> SiteAlgebra:
    if (n, entries) in _SITE_CACHE:
        return _SITE_CACHE[(n, entries)]
    index = {e: a for a, e in enumerate(entries)}
    table: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
    for a, (p, q) in enumerate(entries):
        for b, (r, s) in enumerate(entries):
            acc: Dict[int, int] = {}
            if p == s:
                if (r, q) not in index:
                    raise ShapeError("entry set is not bracket-closed")
                acc[index[(r, q)]] = acc.get(index[(r, q)], 0) + 1
            if q == r:
                if (p, s) not in index:
                    raise ShapeError("entry set is not bracket-closed")
                acc[index[(p, s)]] = acc.get(index[(p, s)], 0) - 1
            row = tuple((c, v) for c, v in sorted(acc.items()) if v)
            if row:
                table[(a, b)] = row

    def tbl(a: int, b: int) -> Dict[int, int]:
        return dict(table.get((a, b), ()))

    def lb(a: int, comb: Dict[int, int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for b, cb in comb.items():
            for c, f in table.get((a, b), ()):
                out[c] = out.get(c, 0) + cb * f
        return {k: v for k, v in out.items() if v}

    dim = len(entries)
    for a in range(dim):
        for b in range(dim):
            anti = lb(a, {b: 1})
            flip = lb(b, {a: 1})
            if any(anti.get(k, 0) != -flip.get(k, 0) for k in set(anti) | set(flip)):
                raise ShapeError("bracket table is not antisymmetric")
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                total: Dict[int, int] = {}
                for part in (
                    lb(a, tbl(b, c)),
                    lb(b, tbl(c, a)),
                    lb(c, tbl(a, b)),
                ):
                    for k, v in part.items():
                        total[k] = total.get(k, 0) + v
                if any(v != 0 for v in total.values()):
                    raise ShapeError("Jacobi identity failed")

    form = [
        [
            Fraction(1) if (p == s2 and q == r2) else Fraction(0)
            for (r2, s2) in entries
        ]
        for (p, q) in entries
    ]
    site = SiteAlgebra(
        matrix_size=n,
        entries=entries,
        labels=tuple(f"x{p}{q}" for p, q in entries),
        bracket_table=table,
        form=tuple(tuple(row) for row in form),
    )
    _SITE_CACHE[(n, entries)] = site
    return site


def full_site(n: int) -> SiteAlgebra:
    entries = tuple((p, q) for p in range(n) for q in range(n))
    return _build_site(n, entries)


def levi_site(datum: ParahoricDatum) -> SiteAlgebra:
    """Block subalgebra of the weight at a point, in the type-A realization."""
    rs = datum.system
    n = rs.rank + 1
    t = cocharacter_to_diagonal(rs, datum.theta)
    entries = tuple(
        (p, q) for p in range(n) for q in range(n) if t[p] == t[q]
    )
    return _build_site(n, entries)


@dataclass(frozen=True)
class LiePoissonAlgebra:
    sites: Tuple[SiteAlgebra, ...]
    offsets: Tuple[int, ...]
    gen_count: int
    labels: Tuple[str, ...]
    gen_sites: Tuple[int, ...]  # site index of each generator

    def site_of(self, gen: int) -> int:
        """Index of the site that owns generator gen (a tuple lookup).

        Raises AlgebraMismatchError unless 0 <= gen < gen_count, so a
        negative index never wraps around to the last site.
        """
        if not 0 <= gen < self.gen_count:
            raise AlgebraMismatchError(f"generator {gen} out of range")
        return self.gen_sites[gen]

    def generator_index(self, j: int, p: int, q: int) -> int:
        """Index of site j's generator at matrix entry (p, q)."""
        try:
            local = self.sites[j].entries.index((p, q))
        except ValueError:
            raise AlgebraMismatchError(
                f"site {j} has no generator at entry ({p}, {q})"
            )
        return self.offsets[j] + local

    def generator(self, j: int, p: int, q: int) -> "PoissonPolynomial":
        gen = self.generator_index(j, p, q)
        return PoissonPolynomial(self, (((((gen, 1),)), Fraction(1)),))


def _assemble(sites: Sequence[SiteAlgebra]) -> LiePoissonAlgebra:
    offsets = []
    count = 0
    labels: List[str] = []
    gen_sites: List[int] = []
    for j, site in enumerate(sites):
        offsets.append(count)
        count += site.dim
        labels.extend(f"x{j}_{lbl[1:]}" for lbl in site.labels)
        gen_sites.extend([j] * site.dim)
    return LiePoissonAlgebra(
        sites=tuple(sites),
        offsets=tuple(offsets),
        gen_count=count,
        labels=tuple(labels),
        gen_sites=tuple(gen_sites),
    )


def matrix_poisson_algebra(n: int, site_count: int) -> LiePoissonAlgebra:
    """Product of site_count copies of the full matrix dual."""
    return _assemble([full_site(n)] * site_count)


def levi_poisson_algebra(data: Sequence[ParahoricDatum]) -> LiePoissonAlgebra:
    return _assemble([levi_site(d) for d in data])


# ---------------------------------------------------------------------------
# Polynomials in the coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonPolynomial:
    algebra: LiePoissonAlgebra
    terms: Tuple[Tuple[Monomial, Fraction], ...]

    @staticmethod
    def zero(alg: LiePoissonAlgebra) -> "PoissonPolynomial":
        return PoissonPolynomial(alg, ())

    @staticmethod
    def constant(alg: LiePoissonAlgebra, c) -> "PoissonPolynomial":
        c = Fraction(c)
        return PoissonPolynomial(alg, (((), c),) if c else ())

    @staticmethod
    def _from_dict(alg, d: Dict[Monomial, Fraction]) -> "PoissonPolynomial":
        return PoissonPolynomial(
            alg, tuple(sorted((m, c) for m, c in d.items() if c))
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> List[int]:
        seen = set()
        for mono, _ in self.terms:
            for g, _ in mono:
                seen.add(g)
        return sorted(seen)

    def _check_mate(self, other: "PoissonPolynomial") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("polynomials live over different algebras")

    def __add__(self, other: "PoissonPolynomial") -> "PoissonPolynomial":
        self._check_mate(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return PoissonPolynomial._from_dict(self.algebra, d)

    def __sub__(self, other: "PoissonPolynomial") -> "PoissonPolynomial":
        return self + (-other)

    def __neg__(self) -> "PoissonPolynomial":
        return PoissonPolynomial(self.algebra, tuple((m, -c) for m, c in self.terms))

    def scaled(self, c) -> "PoissonPolynomial":
        c = Fraction(c)
        if not c:
            return PoissonPolynomial.zero(self.algebra)
        return PoissonPolynomial(self.algebra, tuple((m, k * c) for m, k in self.terms))

    def __mul__(self, other) -> "PoissonPolynomial":
        """Product, on packed exponents.

        Each operand is packed at the width _width(deg self + deg other), so
        no product exponent can carry into the next generator's field, and
        cleared to integer coefficients; a product of monomials is then one
        int addition, and the result is divided by the two denominators once.
        Both operands must belong to self's algebra, with every generator in
        range (AlgebraMismatchError otherwise).
        """
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        _check_member(self, self.algebra)
        _check_member(other, self.algebra)
        width = _width(_degree(self) + _degree(other))
        fden, fterms = _pack(self, width)
        gden, gterms = _pack(other, width)
        acc: Dict[int, int] = {}
        get = acc.get
        for m1, k1 in fterms:
            for m2, k2 in gterms:
                m = m1 + m2
                acc[m] = get(m, 0) + k1 * k2
        return _unpack(self.algebra, acc, fden * gden, width)

    __rmul__ = __mul__

    def evaluate(self, site_values: Sequence[Matrix]) -> Fraction:
        alg = self.algebra
        total = Fraction(0)
        for mono, c in self.terms:
            term = c
            for g, e in mono:
                j = alg.site_of(g)
                p, q = alg.sites[j].entries[g - alg.offsets[j]]
                term *= Fraction(site_values[j][p][q]) ** e
            total += term
        return total

    def to_string(self) -> str:
        _check_member(self, self.algebra)
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.terms:
            factors = []
            for g, e in mono:
                lbl = self.algebra.labels[g]
                factors.append(lbl if e == 1 else f"{lbl}^{e}")
            body = "*".join(factors)
            if body:
                parts.append(f"{c}*{body}" if c != 1 else body)
            else:
                parts.append(str(c))
        return " + ".join(parts)


# A packed monomial is one int holding exponent e of generator g in bits
# [g*width, (g+1)*width); _width(bound) bits hold every exponent <= bound.


def _width(bound: int) -> int:
    """Bits per generator in a packed monomial whose exponents are <= bound."""
    return max(bound, 1).bit_length()


def _degree(pol: PoissonPolynomial) -> int:
    return max((sum(e for _, e in mono) for mono, _ in pol.terms), default=0)


def _pack(pol: PoissonPolynomial, width: int) -> Tuple[int, List[Tuple[int, int]]]:
    """pol cleared to integer coefficients, on packed monomials.

    Returns den, the lcm of the coefficient denominators, and one pair
    (packed m, k) for each term (k/den)*m of pol.
    """
    den = math.lcm(*(c.denominator for _, c in pol.terms))
    return den, [
        (sum(e << width * g for g, e in mono), c.numerator * (den // c.denominator))
        for mono, c in pol.terms
    ]


def _unpack(
    alg: LiePoissonAlgebra, acc: Dict[int, int], den: int, width: int
) -> PoissonPolynomial:
    """The polynomial sum of (k/den)*m over the packed (m, k) of acc.

    Only the non-zero k are unpacked, lowest set bit first, so each monomial
    comes out with its generators in ascending order.
    """
    mask = (1 << width) - 1
    terms = []
    for key, k in acc.items():
        if not k:
            continue
        mono = []
        while key:
            g = ((key & -key).bit_length() - 1) // width
            e = (key >> g * width) & mask
            mono.append((g, e))
            key -= e << g * width
        terms.append((tuple(mono), Fraction(k, den)))
    terms.sort()
    return PoissonPolynomial(alg, tuple(terms))


# site j -> local generator a -> [(k*e_a, packed m/x_a), ...]
Partials = Dict[int, Dict[int, List[Tuple[int, int]]]]


def _partials(
    pol: PoissonPolynomial, alg: LiePoissonAlgebra, width: int
) -> Tuple[int, Partials]:
    """pol packed at width and split by generator.

    Returns den, as in _pack, and the Partials of pol: one entry
    (k*e_a, m/x_a) for each term (k/den)*m of pol and each generator x_a of
    m, with e_a its exponent, so that d(pol)/dx_a is the sum of
    k*e_a*(m/x_a) over den.  Packed, m/x_a is m - (1 << width*a).
    """
    den, packed = _pack(pol, width)
    parts: Partials = {}
    for (mono, _), (m, k) in zip(pol.terms, packed):
        for gen, e in mono:
            j = alg.gen_sites[gen]
            site = parts.setdefault(j, {})
            site.setdefault(gen - alg.offsets[j], []).append(
                (k * e, m - (1 << width * gen))
            )
    return den, parts


def _check_member(pol: PoissonPolynomial, alg: LiePoissonAlgebra) -> None:
    if pol.algebra is not alg and pol.algebra != alg:
        raise AlgebraMismatchError("polynomial does not belong to this algebra")
    count = alg.gen_count
    for mono, _ in pol.terms:
        for gen, _ in mono:
            if not 0 <= gen < count:
                raise AlgebraMismatchError(f"foreign generator {gen}")


def _bracket_packed(
    fparts: Partials, gparts: Partials, alg: LiePoissonAlgebra, width: int
) -> Dict[int, int]:
    """{f, g} times the two denominators, as packed monomial -> int, from
    the Partials of f and g packed at width."""
    acc: Dict[int, int] = {}
    get = acc.get
    for j, f_site in fparts.items():
        g_site = gparts.get(j)
        if not g_site:
            continue
        offset = alg.offsets[j]
        table = alg.sites[j].bracket_table
        for a, f_list in f_site.items():
            for b, g_list in g_site.items():
                for c, coeff in table.get((a, b), ()):
                    xc = 1 << width * (offset + c)
                    for ka, ra in f_list:
                        m = ra + xc
                        k = ka * coeff
                        for kb, rb in g_list:
                            key = m + rb
                            acc[key] = get(key, 0) + k * kb
    return acc


def bracket(
    f: PoissonPolynomial, g: PoissonPolynomial, alg: LiePoissonAlgebra
) -> PoissonPolynomial:
    """Lie-Poisson bracket, extended to polynomials by the Leibniz rule.

    Computed term by term from the site structure constants:

        {f, g} = sum over terms c_f m_f of f and c_g m_g of g, and over
                 generators a of m_f and b != a of m_g on the same site, of
                 e_a e_b c_f c_g sum_c C_ab^c (m_f/x_a)(m_g/x_b) x_c

    with e_a, e_b the exponents of x_a, x_b and C_ab^c the site's
    bracket_table, which has no (a, a) row (C_aa^c = 0 by antisymmetry).
    Both operands must belong to alg (AlgebraMismatchError otherwise).
    Each is then cleared to integer coefficients over the lcm of its
    denominators and packed: every monomial becomes one int with width
    bits per generator, width = _width(deg f + deg g - 1), the degree bound
    of the result (and at least deg f and deg g), so that a product of
    monomials is one int addition and no exponent carries into the next
    generator's field.  The sum is taken in ints, and only its non-zero
    terms are unpacked and divided by the two denominators.
    """
    _check_member(f, alg)
    _check_member(g, alg)
    df, dg = _degree(f), _degree(g)
    width = _width(max(df + dg - 1, df, dg))
    fden, fparts = _partials(f, alg, width)
    gden, gparts = _partials(g, alg, width)
    acc = _bracket_packed(fparts, gparts, alg, width)
    return _unpack(alg, acc, fden * gden, width)


def site_casimir(alg: LiePoissonAlgebra, j: int) -> PoissonPolynomial:
    """Quadratic Casimir of site j: half the form-trace of the square."""
    site = alg.sites[j]
    out = PoissonPolynomial.zero(alg)
    for p, q in site.entries:
        out = out + (alg.generator(j, p, q) * alg.generator(j, q, p)).scaled(
            Fraction(1, 2)
        )
    return out


def site_invariant_polynomials(
    alg: LiePoissonAlgebra, j: int
) -> Tuple[PoissonPolynomial, ...]:
    """Characteristic-coefficient functions of site j's matrix of generators.

    Entries outside the site's block are filled with the zero polynomial.
    Every one of these is a Casimir: it brackets to zero with each generator
    of the site, which the symbolic bracket verifies exactly in tests.
    """
    site = alg.sites[j]
    n = site.matrix_size
    zero = PoissonPolynomial.zero(alg)
    present = set(site.entries)
    rows = [
        [alg.generator(j, p, q) if (p, q) in present else zero for q in range(n)]
        for p in range(n)
    ]
    cs = linalgq.char_coeffs(rows)
    out = []
    for i in range(1, n + 1):
        sign = Fraction(-1 if i % 2 else 1)
        out.append(cs[n - i].scaled(sign))
    return tuple(out)


# ---------------------------------------------------------------------------
# Involution verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionReport:
    pair_count: int
    nonzero_pairs: Tuple[Tuple[int, int, str], ...]

    @property
    def all_commute(self) -> bool:
        return not self.nonzero_pairs

    def to_json_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "all_commute": self.all_commute,
            "nonzero_pairs": [
                {"i": i, "j": j, "bracket": s} for i, j, s in self.nonzero_pairs
            ],
        }


def verify_involution(
    hams: Sequence[PoissonPolynomial], alg: LiePoissonAlgebra
) -> InvolutionReport:
    """Bracket every pair of Hamiltonians, in pair order, and list the pairs
    whose bracket is not identically zero.

    Each Hamiltonian is checked against alg (AlgebraMismatchError for another
    algebra or a foreign generator) and packed once, all at one width set by
    twice the largest degree D: _width(2D - 1) holds every exponent of every
    pairwise bracket.  Each pair then runs the packed kernel of bracket.
    """
    for ham in hams:
        _check_member(ham, alg)
    width = _width(2 * max(map(_degree, hams), default=0) - 1)
    parts = [_partials(ham, alg, width) for ham in hams]
    pairs = list(combinations(range(len(hams)), 2))
    nonzero = []
    for i, j in pairs:
        (fden, fparts), (gden, gparts) = parts[i], parts[j]
        acc = _bracket_packed(fparts, gparts, alg, width)
        value = _unpack(alg, acc, fden * gden, width)
        if not value.is_zero:
            nonzero.append((i, j, value.to_string()))
    return InvolutionReport(pair_count=len(pairs), nonzero_pairs=tuple(nonzero))


def hitchin_coefficient_hamiltonians(
    points: Sequence, n: int, form: str = "SL"
) -> Tuple[LiePoissonAlgebra, Tuple[PoissonPolynomial, ...]]:
    """Expand the invariant sections of a symbolic Lax matrix.

    The residues are matrices of coordinate generators, one full matrix site
    per marked point, so A(z) = prod(z - x_k) L(z) has degree s-1 and the
    degree-i invariant section has degree at most i(s-1) in z.  The
    characteristic coefficients of A(t) are taken at t = 0..n(s-1) and each
    z-coefficient is recovered from these samples with the Lagrange basis
    on those nodes (each L_k interpolated from a unit vector), summed in
    ints on the packed samples over one common denominator.
    Every non-zero z-coefficient of every section is returned as a
    polynomial Hamiltonian, by ascending degree i, then ascending power of z.
    """
    if form not in ("SL", "GL"):
        raise ShapeError(f"form must be SL or GL, got {form!r}")
    xs = [Fraction(x) for x in points]
    s = len(xs)
    alg = matrix_poisson_algebra(n, s)
    zero = PoissonPolynomial.zero(alg)
    basis = [
        polyq.from_roots([x for k, x in enumerate(xs) if k != j]) for j in range(s)
    ]
    ts = range(n * (s - 1) + 1)
    samples = []
    for t in ts:
        at = [[zero] * n for _ in range(n)]
        for j, b in enumerate(basis):
            w = polyq.evaluate(b, t)
            for p in range(n):
                for q in range(n):
                    at[p][q] = at[p][q] + alg.generator(j, p, q).scaled(w)
        samples.append(linalgq.char_coeffs(at))
    # Lagrange weights: the interpolant of the k-th unit vector is L_k.
    lagrange = [polyq.interpolate([int(t == k) for t in ts]) for k in ts]
    start = 1 if form == "GL" else 2
    hams: List[PoissonPolynomial] = []
    for i in range(start, n + 1):
        sign = -1 if i % 2 else 1
        width = _width(max(_degree(cs[n - i]) for cs in samples))
        packed = [_pack(cs[n - i], width) for cs in samples]
        for d in range(i * (s - 1) + 1):
            ws = [sign * lk[d] for lk in lagrange]
            den = math.lcm(*(w.denominator * pden for w, (pden, _) in zip(ws, packed)))
            acc: Dict[int, int] = {}
            for w, (pden, terms) in zip(ws, packed):
                scale = w.numerator * (den // (w.denominator * pden))
                if scale:
                    for m, k in terms:
                        acc[m] = acc.get(m, 0) + scale * k
            coeff = _unpack(alg, acc, den, width)
            if not coeff.is_zero:
                hams.append(coeff)
    return alg, tuple(hams)


# ---------------------------------------------------------------------------
# Moment map and level action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentValue:
    sites: Tuple[Matrix, ...]
    data: Optional[Tuple[Optional[ParahoricDatum], ...]] = None

    @property
    def site_count(self) -> int:
        return len(self.sites)


def _weight_diagonal(datum: ParahoricDatum) -> List[Fraction]:
    return cocharacter_to_diagonal(datum.system, datum.theta)


def moment_map(
    f: LogHiggsField, data: Optional[Sequence[Optional[ParahoricDatum]]] = None
) -> MomentValue:
    """Coresidues of the field: block projections of the residues.

    With no weight data every residue passes through unchanged.  A weight at
    a point first constrains the residue (the constant Laurent class must
    lie in the weight's parahoric stalk: entries in channels with positive
    jump must vanish) and then keeps only the block part, the entries whose
    weight diagonal values agree; the discarded part pairs to zero with the
    block subalgebra under the trace form.
    """
    if data is None:
        data = f.theta_data
    if data is not None and len(data) != f.site_count:
        raise ShapeError("one weight datum (or None) per marked point is required")
    n = f.matrix_size
    sites: List[Matrix] = []
    for j, res in enumerate(f.residues):
        datum = data[j] if data is not None else None
        if datum is None:
            sites.append(linalgq.copy(res))
            continue
        rs = datum.system
        if rs.family != "A" or rs.rank + 1 != n:
            raise ShapeError(
                f"weight datum at point {j} does not match the {n}x{n} realization"
            )
        t = _weight_diagonal(datum)
        for p in range(n):
            for q in range(n):
                if p != q and res[p][q] != 0:
                    r = entry_to_root(rs, p, q)
                    if datum.jumps[r] > 0:
                        raise FiltrationError(
                            f"residue {j} entry ({p},{q}) is outside the parahoric "
                            f"stalk (jump {datum.jumps[r]} > 0)"
                        )
        proj = linalgq.zeros(n)
        for p in range(n):
            for q in range(n):
                if t[p] == t[q]:
                    proj[p][q] = Fraction(res[p][q])
        sites.append(proj)
    return MomentValue(
        sites=tuple(sites),
        data=tuple(data) if data is not None else None,
    )


def _check_levi_group_element(g: Matrix, datum: Optional[ParahoricDatum], n: int):
    if len(g) != n or any(len(row) != n for row in g):
        raise ShapeError(f"group element must be {n}x{n}")
    if datum is not None:
        t = _weight_diagonal(datum)
        for p in range(n):
            for q in range(n):
                if t[p] != t[q] and g[p][q] != 0:
                    raise GroupError(
                        f"entry ({p},{q}) is outside the weight's block subgroup"
                    )
    try:
        return linalgq.inverse(g)
    except ArithmeticError:
        raise GroupError("group element is singular")


def coadjoint_act(gs: Sequence[Matrix], m: MomentValue) -> MomentValue:
    """Site-wise conjugation of the form-dual representatives."""
    if len(gs) != m.site_count:
        raise ShapeError("one group element per site is required")
    out = []
    for j, (g, site) in enumerate(zip(gs, m.sites)):
        n = len(site)
        datum = m.data[j] if m.data is not None else None
        g = linalgq.mat(g)
        ginv = _check_levi_group_element(g, datum, n)
        out.append(linalgq.mat_mul(linalgq.mat_mul(g, site), ginv))
    return MomentValue(sites=tuple(out), data=m.data)


def infinitesimal_action(
    directions: Sequence[Matrix], f: LogHiggsField
) -> LogHiggsField:
    """Residue variations [Y_j, X_j] of the site directions Y."""
    if len(directions) != f.site_count:
        raise ShapeError("one direction per marked point is required")
    n = f.matrix_size
    varied = []
    for j, y in enumerate(directions):
        y = linalgq.mat(y)
        if len(y) != n or any(len(row) != n for row in y):
            raise ShapeError(f"direction {j} must be {n}x{n}")
        if f.theta_data is not None and f.theta_data[j] is not None:
            t = _weight_diagonal(f.theta_data[j])
            for p in range(n):
                for q in range(n):
                    if t[p] != t[q] and y[p][q] != 0:
                        raise FiltrationError(
                            f"direction {j} entry ({p},{q}) is outside the Levi block"
                        )
        varied.append(linalgq.commutator(y, f.residues[j]))
    total = linalgq.zeros(n)
    for m in varied:
        total = linalgq.mat_add(total, m)
    return LogHiggsField(
        points=f.points,
        residues=tuple(varied),
        group=f.group,
        theta_data=None,
        regular_at_infinity=linalgq.is_zero_matrix(total),
    )


def nilpotent_exp(y: Matrix) -> Matrix:
    """Exact exponential of a nilpotent matrix (finite polynomial sum)."""
    n = len(y)
    power = linalgq.identity(n)
    out = linalgq.identity(n)
    fact = 1
    for k in range(1, n):
        power = linalgq.mat_mul(power, y)
        fact *= k
        out = linalgq.mat_add(out, linalgq.mat_scale(power, Fraction(1, fact)))
    check = linalgq.mat_mul(power, y)
    if not linalgq.is_zero_matrix(check):
        raise GroupError("matrix is not nilpotent; exact exponential unavailable")
    return out


# ---------------------------------------------------------------------------
# Leaves, ranks and the quotient diagram
# ---------------------------------------------------------------------------


def _algebra_for(m: MomentValue) -> LiePoissonAlgebra:
    sites = []
    for j, site in enumerate(m.sites):
        datum = m.data[j] if m.data is not None else None
        if datum is None:
            sites.append(full_site(len(site)))
        else:
            sites.append(levi_site(datum))
    return _assemble(sites)


def bivector_rank_at(
    xi: MomentValue, alg: Optional[LiePoissonAlgebra] = None
) -> int:
    """Rank of the Poisson bivector at the point: dimension of its leaf.

    Each site's bracket_table couples only that site's generators, so the
    bivector is block-diagonal and its rank is the sum of the ranks of the
    per-site dim x dim blocks pi_ab = sum_c C_ab^c xi_c.  An explicit alg
    must have one site per site of xi, of the same matrix size, or
    AlgebraMismatchError is raised.
    """
    alg = alg if alg is not None else _algebra_for(xi)
    if len(alg.sites) != len(xi.sites):
        raise AlgebraMismatchError(
            f"algebra has {len(alg.sites)} sites, the point has {len(xi.sites)}"
        )
    total = 0
    for j, (site, values) in enumerate(zip(alg.sites, xi.sites)):
        if len(values) != site.matrix_size:
            raise AlgebraMismatchError(
                f"site {j} has matrix size {site.matrix_size}, "
                f"the point's site {j} is {len(values)}x{len(values)}"
            )
        block = linalgq.zeros(site.dim)
        for (a, b), row in site.bracket_table.items():
            acc = Fraction(0)
            for c, coeff in row:
                p, q = site.entries[c]
                acc += coeff * values[p][q]
            block[a][b] = acc
        total += linalgq.rank(block)
    return total


@dataclass(frozen=True)
class LeafDescriptor:
    site_invariants: Tuple[Tuple[Fraction, ...], ...]
    bivector_rank: int

    def to_json_dict(self) -> dict:
        return {
            "site_invariants": [
                [str(v) for v in site] for site in self.site_invariants
            ],
            "bivector_rank": self.bivector_rank,
        }


def leaf_invariants(
    xi: MomentValue, alg: Optional[LiePoissonAlgebra] = None
) -> LeafDescriptor:
    """Conjugation-invariant coordinates of the leaf through the point."""
    invs = tuple(
        tuple(linalgq.invariant_values(site)) for site in xi.sites
    )
    return LeafDescriptor(
        site_invariants=invs,
        bivector_rank=bivector_rank_at(xi, alg),
    )


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

    def to_json_dict(self) -> dict:
        return {
            "all_equal": self.all_equal,
            "rows": [
                {
                    "point": r.point,
                    "degree": r.degree,
                    "residue_route": str(r.residue_route),
                    "moment_route": str(r.moment_route),
                    "equal": r.equal,
                }
                for r in self.rows
            ],
        }


def quotient_diagram_check(
    f: LogHiggsField, data: Optional[Sequence[Optional[ParahoricDatum]]] = None
) -> DiagramReport:
    """Compare two routes to the invariant values over the divisor.

    Route one evaluates each invariant section of the field at a marked
    point in the polar frame (a limit on the polynomial side); route two
    applies the same invariant to that point's coresidue.  The two are
    computed independently and compared exactly.  Route one evaluates the
    entry polynomials of A(z) once per point, for all degrees together.
    """
    mv = moment_map(f, data)
    degrees = higgs.invariant_degrees(f)
    entries = higgs._entry_polys(f)
    rows = []
    for j in range(f.site_count):
        residue_vals = higgs._residue_invariants(f, entries, j)
        site_vals = linalgq.invariant_values(mv.sites[j])
        for i in degrees:
            rows.append(
                DiagramRow(
                    point=j,
                    degree=i,
                    residue_route=residue_vals[i - 1],
                    moment_route=site_vals[i - 1],
                )
            )
    return DiagramReport(rows=tuple(rows))


def nilpotent_vanishing_check(x: Matrix) -> bool:
    """True for nilpotent input, in which case every nonconstant invariant
    value is checked to vanish (ConstraintError if one does not); False
    otherwise, with no check."""
    n = len(x)
    power = linalgq.copy(x)
    for _ in range(n - 1):
        power = linalgq.mat_mul(power, x)
    if not linalgq.is_zero_matrix(power):
        return False
    if any(v != 0 for v in linalgq.invariant_values(x)):
        raise ConstraintError("an invariant of a nilpotent matrix does not vanish")
    return True
