"""Lie-Poisson algebra of the site duals and the coresidue moment map.

Coordinates on the dual of a matrix Lie algebra are taken to be the matrix
entries themselves: the generator at (p, q) of site j is the function
M |-> M[p][q], whose trace-form dual basis vector is the matrix unit E_qp.
With this choice the Lie-Poisson bracket of two entry coordinates is

    {x_pq, x_rs} = [p == s] x_rq - [q == r] x_ps      (same site, else 0)

and invariant polynomials of a matrix agree literally with the same
polynomials in the entry coordinates, which removes any basis-translation
layer between the matrix side and the symbolic side.

The symbolic algebra is the product of s copies of gl_n*, one per marked
point, with generator (j*n + p)*n + q the entry (p, q) of site j, so every
lookup is integer arithmetic.  Only full sites are needed: a product of
restricted sites (each point's parabolic stalk or Levi block) breaks the
involution of the spectral invariants, since the paper's bracket comes by
reduction from the full product.  The rule is the only form of the bracket,
applied where it is used, with no table and no check at run time;
tests/test_poisson.py checks it against matrix commutators of the
trace-form dual basis (antisymmetry, Jacobi) on gl_n for n = 1..5.

A point's weight, its cocharacter theta, acts here only through its
diagonal t (_weight_diagonal), with t_p - t_q the pairing of theta with the
root of E_pq: the parahoric stalk is {t_p >= t_q}, the Levi block
{t_p == t_q}, the leaf classes those of equal t.
This zero-pairing block is not analyze_weight's levi_roots (integer pairing);
the two differ on affine walls: SL2 at theta = 1/2 is hyperspecial there,
with Levi roots +-alpha, but its site here is the diagonal (t = (1/2, -1/2)),
of leaf rank 0 at diag(1, -1), against 2 at theta = 0.

higgs builds on this module, and nothing here imports higgs: the quotient
diagram check, moment_map's coresidues against the field's residues, lives
there (higgs.quotient_diagram_check).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, permutations, product
from math import ceil, comb, gcd, isqrt, log, prod
from operator import itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalgq, polyq
from .errors import (
    AlgebraMismatchError,
    ConstraintError,
    DivisorError,
    FiltrationError,
    GroupError,
    ShapeError,
)
from .linalgq import Matrix
from .rootsys import RationalCocharacter, cocharacter_to_diagonal

Monomial = Tuple[Tuple[int, int], ...]  # ((generator, exponent), ...) sorted


# ---------------------------------------------------------------------------
# The product of the site duals
# ---------------------------------------------------------------------------


def full_site(n: int) -> Tuple[Tuple[int, int], ...]:
    """The entries (p, q) of gl_n in row-major order, the order of a site's
    generators."""
    return tuple((p, q) for p in range(n) for q in range(n))


@dataclass(frozen=True)
class LiePoissonAlgebra:
    """The product of site_count copies of gl_n*, n = matrix_size: generator
    (j*n + p)*n + q is the entry (p, q) of site j."""

    matrix_size: int
    site_count: int

    def __post_init__(self):
        for name in ("matrix_size", "site_count"):
            object.__setattr__(self, name, linalgq.integer(getattr(self, name), name))

    @property
    def gen_count(self) -> int:
        return self.matrix_size**2 * self.site_count

    def generator_index(self, j: int, p: int, q: int) -> int:
        """Index of site j's generator at matrix entry (p, q).

        Raises AlgebraMismatchError unless 0 <= j < site_count and
        0 <= p, q < matrix_size, so a negative index never wraps around.
        """
        n = self.matrix_size
        if not 0 <= j < self.site_count:
            raise AlgebraMismatchError(f"site {j} out of range")
        if not (0 <= p < n and 0 <= q < n):
            raise AlgebraMismatchError(
                f"site {j} has no generator at entry ({p}, {q})"
            )
        return (j * n + p) * n + q

    def generator(self, j: int, p: int, q: int) -> "PoissonPolynomial":
        gen = self.generator_index(j, p, q)
        return PoissonPolynomial(self, (((((gen, 1),)), Fraction(1)),))


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
        c = linalgq.rational(c, "c")
        return PoissonPolynomial(alg, (((), c),) if c else ())

    @staticmethod
    def _from_dict(alg, d: Dict[Monomial, Fraction]) -> "PoissonPolynomial":
        return PoissonPolynomial(
            alg, tuple(sorted((m, c) for m, c in d.items() if c))
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PoissonPolynomial") -> "PoissonPolynomial":
        """Sum; both operands must belong to self's algebra, with every
        generator in range (AlgebraMismatchError otherwise)."""
        _check_member(self, self.algebra)
        _check_member(other, self.algebra)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return PoissonPolynomial._from_dict(self.algebra, d)

    def __sub__(self, other: "PoissonPolynomial") -> "PoissonPolynomial":
        return self + (-other)

    def __neg__(self) -> "PoissonPolynomial":
        return PoissonPolynomial(self.algebra, tuple((m, -c) for m, c in self.terms))

    def scaled(self, c) -> "PoissonPolynomial":
        c = linalgq.rational(c, "c")
        if not c:
            return PoissonPolynomial.zero(self.algebra)
        return PoissonPolynomial(self.algebra, tuple((m, k * c) for m, k in self.terms))

    def __mul__(self, other) -> "PoissonPolynomial":
        """Product: each pair of terms merges its monomials' exponents in a
        dict, summed by monomial.  Both operands must belong to self's
        algebra, with every generator in range (AlgebraMismatchError
        otherwise)."""
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        _check_member(self, self.algebra)
        _check_member(other, self.algebra)
        d: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                merged = dict(m1)
                for g, e in m2:
                    merged[g] = merged.get(g, 0) + e
                key = tuple(sorted(merged.items()))
                d[key] = d.get(key, 0) + c1 * c2
        return PoissonPolynomial._from_dict(self.algebra, d)

    __rmul__ = __mul__

    def to_string(self) -> str:
        _check_member(self, self.algebra)
        if not self.terms:
            return "0"
        n = self.algebra.matrix_size
        parts = []
        for mono, c in self.terms:
            factors = []
            for g, e in mono:
                j, a = divmod(g, n * n)
                p, q = divmod(a, n)
                lbl = f"x{j}_{p}{q}"
                factors.append(lbl if e == 1 else f"{lbl}^{e}")
            body = "*".join(factors)
            if body:
                parts.append(f"{c}*{body}" if c != 1 else body)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def _primes(count: int) -> List[int]:
    """The first count primes, sieved up to Rosser's bound on the k-th prime,
    k(ln k + ln ln k) for k >= 6, or 15 > p_5 = 11.  A monomial prod x_g^e
    has the key prod p_g^e, p_g the g-th prime: a product of monomials is one
    product of keys, distinct by unique factorization at any degree."""
    limit = 15 if count < 6 else int(count * (log(count) + log(log(count))))
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), sieve))[:count]


# generator a -> {key of m/x_a: k*e_a, ...}
Partials = Dict[int, Dict[int, int]]


def _partials(pol: PoissonPolynomial, primes: List[int]) -> Tuple[int, List[int], Partials]:
    """pol cleared to integer coefficients, keyed by primes, split by generator.

    Returns den, the lcm of the coefficient denominators, the cleared
    coefficients ks, term by term, and the Partials of pol: the entry
    m/x_a: k*e_a under x_a for each term (k/den)*m of pol and each generator
    x_a of m, with e_a its exponent, so that d(pol)/dx_a is the sum of
    k*e_a*(m/x_a) over den.  Keyed, m/x_a is m // p_a.
    """
    den, ks = linalgq.integer_form(c for _, c in pol.terms)
    parts: Partials = {}
    for (mono, _), k in zip(pol.terms, ks):
        m = prod(primes[g] ** e for g, e in mono)
        for gen, e in mono:
            parts.setdefault(gen, {})[m // primes[gen]] = k * e
    return den, ks, parts


def _check_member(pol: PoissonPolynomial, alg: LiePoissonAlgebra) -> None:
    if pol.algebra is not alg and pol.algebra != alg:
        raise AlgebraMismatchError("polynomial does not belong to this algebra")
    count = alg.gen_count
    for mono, _ in pol.terms:
        for gen, _ in mono:
            if not 0 <= gen < count:
                raise AlgebraMismatchError(f"foreign generator {gen}")


def _partners(n: int) -> List[List[Tuple[int, int, int]]]:
    """For each entry a = p*n + q of an n x n site, its 2n partners (b, c,
    sign) by the rule {x_pq, x_rs} = [p == s] x_rq - [q == r] x_ps: x_rp
    gives +x_rq and x_qs gives -x_ps; b = a, whose two terms cancel, is out."""
    return [
        [(r * n + p, r * n + q, 1) for r in range(n) if r * n + p != a]
        + [(q * n + s, p * n + s, -1) for s in range(n) if q * n + s != a]
        for a, (p, q) in enumerate(full_site(n))
    ]


def _bracket_packed(
    fparts: Partials, gparts: Partials, partners: list, primes: List[int]
) -> Dict[int, int]:
    """{f, g} times the two denominators, as monomial key -> int, from the
    Partials of f and g and the _partners of the algebra's matrix size."""
    nn = len(partners)
    acc: Dict[int, int] = {}
    get = acc.get
    for a, f_terms in fparts.items():
        offset = a - a % nn
        for b, c, sign in partners[a - offset]:
            g_terms = gparts.get(offset + b)
            if g_terms is None:
                continue
            xc = primes[offset + c]
            for rb, kb in g_terms.items():
                m = rb * xc
                k = kb * sign
                for ra, ka in f_terms.items():
                    key = m * ra
                    acc[key] = get(key, 0) + ka * k
    return acc


def bracket(
    f: PoissonPolynomial, g: PoissonPolynomial, alg: LiePoissonAlgebra
) -> PoissonPolynomial:
    """Lie-Poisson bracket, extended to polynomials by the Leibniz rule.

    Computed term by term from the bracket of the generators:

        {f, g} = sum over terms c_f m_f of f and c_g m_g of g, and over
                 generators a of m_f and b != a of m_g on the same site, of
                 e_a e_b c_f c_g (m_f/x_a)(m_g/x_b) {x_a, x_b}

    with e_a, e_b the exponents of x_a, x_b and {x_a, x_b} the matrix-unit
    rule of the module docstring, applied directly by _bracket_packed (its
    structure constants are checked against matrix commutators on gl_n,
    n = 1..5, in tests/test_poisson.py).  This is the one pass of _brackets
    over (f, g); both must belong to alg (AlgebraMismatchError otherwise).
    """
    return next((value for _, _, value in _brackets((f, g), alg)), PoissonPolynomial.zero(alg))


def site_casimir(alg: LiePoissonAlgebra, j: int) -> PoissonPolynomial:
    """Quadratic Casimir of site j: half the form-trace of the square.
    A site outside 0..site_count-1 raises AlgebraMismatchError."""
    out = PoissonPolynomial.zero(alg)
    for p, q in full_site(alg.matrix_size):
        out = out + (alg.generator(j, p, q) * alg.generator(j, q, p)).scaled(
            Fraction(1, 2)
        )
    return out


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


def _sums_to_zero(
    hams: Sequence[PoissonPolynomial], parts: List[Tuple[int, List[int], Partials]]
) -> bool:
    """Whether the Hamiltonians sum to zero, decided exactly in ints: the
    cleared ks_i of parts[i] (_partials) times L/den_i, L the common
    denominator linalgq.integer_form finds from the pairs (1, den_i).  A
    probe first sums the last one's first monomial, found by bisection in
    each terms tuple (sorted by _from_dict); it can only answer no, so terms
    out of order cost the skip, never a wrong answer.  So does a monomial
    that is not a tuple, which can be neither ordered nor hashed."""
    _, shares = linalgq.integer_form((1, den) for den, _, _ in parts)
    cleared = [(ham.terms, ks, share) for ham, (_, ks, _), share in zip(hams, parts, shares)]
    try:
        if hams[-1].terms:
            mono, total = hams[-1].terms[0][0], 0
            for terms, ks, share in cleared:
                i = bisect_left(terms, mono, key=itemgetter(0))
                if i < len(terms) and terms[i][0] == mono:
                    total += ks[i] * share
            if total:
                return False
        sums: Dict[Monomial, int] = {}
        for terms, ks, share in cleared:
            for (mono, _), k in zip(terms, ks):
                sums[mono] = sums.get(mono, 0) + k * share
    except TypeError:
        return False
    return not any(sums.values())


def _brackets(hams: Sequence[PoissonPolynomial], alg: LiePoissonAlgebra):
    """Yield (i, j, {H_i, H_j}) for each pair i < j of hams whose bracket is
    not identically zero, by pass j, then by i.

    Each Hamiltonian is checked against alg (AlgebraMismatchError for another
    algebra or a foreign generator) and keyed once by generator primes
    (_primes, _partials).  Cleared, H_i is (1/den_i) times an int polynomial
    h_i.

    One pass of the kernel brackets H_j with all earlier Hamiltonians at
    once (Kronecker substitution in the Hamiltonian index; Harvey, J.
    Symbolic Comput. 44, 2009): its f side is S_j = sum over i < j of
    h_i 2^(beta i), each h_i's coefficients in their own beta-bit slot of
    one int, so slot i of each result coefficient is the int numerator of
    {H_i, H_j}.  The slots are read back as the balanced (signed)
    base-2^beta digits of polyq.digits and divided by den_i den_j.
    K Hamiltonians take K - 1 passes, not K(K - 1)/2.

    A family that sums to zero (_sums_to_zero; a Gaudin family does) skips
    its last pass, the largest, unless an earlier one yields a non-zero
    bracket: by bilinearity {H_i, H_(K-1)} = -(sum over l != i, l < K - 1
    of {H_i, H_l}), zero when every earlier bracket is.

    The read is exact.  Let |h| be the sum of |k| deg(m) over the terms k m
    of h.  A result term of {h_i, h_j} gets one contribution from each pair
    (a, b) of a generator a in a term of h_i and b in a term of h_j, of size
    at most |k_a e_a k_b e_b|: when both rules fire, b is the transpose of
    a != b and they give x_qq and -x_pp, two different monomials.  So every
    slot is at most |h_i| |h_j| <= M^2, M the largest |h|, the bound that
    polyq.kronecker_beta turns into beta.

    Only the non-zero slots are decoded, each key site by site in ascending
    order, so each monomial comes out with its generators ascending: the gcd
    of a key with a site's primes' product is one of them or is split by
    them.  The decode's prime index and site products are built on the first
    non-zero pass, so a commuting family decodes nothing.
    """
    for ham in hams:
        _check_member(ham, alg)
    primes = _primes(alg.gen_count)
    digits = polyq.digits
    parts = [_partials(ham, primes) for ham in hams]
    norm = max(
        (sum(abs(c) for ks in p.values() for c in ks.values()) for _, _, p in parts), default=0
    )
    beta = polyq.kronecker_beta(norm * norm)
    partners = _partners(alg.matrix_size)
    nn = alg.matrix_size**2
    index = sites = None
    batch: Partials = {}
    closes = len(hams) > 1 and _sums_to_zero(hams, parts)  # and no non-zero bracket yet
    for j in range(1, len(hams)):
        if closes and j == len(hams) - 1:
            return
        for gen, ks in parts[j - 1][2].items():
            into = batch.setdefault(gen, {})
            for r, c in ks.items():
                into[r] = into.get(r, 0) + (c << beta * (j - 1))
        gden, _, gparts = parts[j]
        acc = _bracket_packed(batch, gparts, partners, primes)
        slots: List[Dict[int, int]] = [{} for _ in range(j)]
        if any(acc.values()):
            for key, v in acc.items():
                for slot, d in zip(slots, digits(v, beta)):
                    if d:
                        slot[key] = d
        del acc  # one pass's sums at a time
        for i, slot in enumerate(slots):
            if not slot:
                continue
            closes = False
            if index is None:
                index = {p: g for g, p in enumerate(primes)}
                sites = [primes[o : o + nn] for o in range(0, len(primes), nn)]
                sites = [(prod(ps), ps) for ps in sites]
            den, terms = parts[i][0] * gden, []
            for key, k in slot.items():
                mono = []
                for whole, ps in sites:
                    if key == 1:
                        break
                    d = key if key in index else gcd(key, whole)  # a prime key is its last factor
                    if d > 1:
                        for p in (d,) if d in index else [p for p in ps if d % p == 0]:
                            e = 0
                            while not key % p:
                                key //= p
                                e += 1
                            mono.append((index[p], e))
                terms.append((tuple(mono), Fraction(k, den)))
            yield i, j, PoissonPolynomial(alg, tuple(sorted(terms)))


def verify_involution(
    hams: Sequence[PoissonPolynomial], alg: LiePoissonAlgebra
) -> InvolutionReport:
    """Bracket every pair of Hamiltonians (_brackets) and list, in pair
    order, the pairs whose bracket is not identically zero.  K Hamiltonians
    take one kernel pass each after the first, except the last of a family
    that sums to zero while the others commute: bilinearity decides it."""
    nonzero = sorted((i, j, value.to_string()) for i, j, value in _brackets(hams, alg))
    return InvolutionReport(pair_count=comb(len(hams), 2), nonzero_pairs=tuple(nonzero))


# Largest point count s that hitchin_coefficient_hamiltonians accepts per
# matrix size n (others are refused with ShapeError before any work).  Built
# and checked on a shared 2-CPU host: n = 2, s = 12 takes 0.2-0.3 s, n = 3,
# s = 4 0.5-1 s, n = 3, s = 5 3.3 s, and n = 4, s = 3 one minute and 206 MB.
HITCHIN_INVOLUTION_MAX_POINTS = {2: 12, 3: 4}


def hitchin_coefficient_hamiltonians(
    points: Sequence, n: int, form: str = "SL"
) -> Tuple[LiePoissonAlgebra, Tuple[PoissonPolynomial, ...]]:
    """Expand the invariant sections of a symbolic Lax matrix.

    The residues X_j are matrices of coordinate generators, one full site
    per point, so A(z) = sum_j w_j(z) X_j, w_j(z) = prod_(k != j)(z - x_k), and
    its degree-i section, the sum of its principal i-minors, is by Leibniz

        sum over rows R (|R| = i), sigma in Sym(R) and sites j: R -> 0..s-1
        of sgn(sigma) prod_r w_(j_r)(z) x^(j_r)_(r, sigma(r)).

    Each row occurs once in a triple (R, sigma, j), its site and column set
    by the triple, so the triples give distinct square-free monomials and
    nothing is accumulated: a monomial's z-coefficients are sgn(sigma) times
    those of prod_r w_(j_r).  With x_k = a_k/d_x and the int
    polyq.lagrange_weights w_j of the a_k, prod_r w_(j_r)(z) is
    P(z d_x)/d_x^((s-1)i) for the int product P(tau) of the w_(j_r)(tau),
    and the coefficients P_e of P are read by polyq.digits from its value
    at tau = 2^beta (Kronecker substitution): the z^e coefficient is
    P_e/d_x^((s-1)i-e).  As |w_j| <= W_j (polyq.weight_norms, with |p| the
    sum of the absolute coefficients of p), every P_e is at most
    (max_j W_j)^i in size, the bound that polyq.kronecker_beta turns into
    beta.  Every non-zero z-coefficient is a Hamiltonian, by ascending i,
    then power of z.  Non-rational points, a non-integer n or shapes past
    HITCHIN_INVOLUTION_MAX_POINTS raise ShapeError.
    """
    n = linalgq.integer(n, "n")
    limit = HITCHIN_INVOLUTION_MAX_POINTS.get(n)
    if limit is None:
        raise ShapeError(
            "Hitchin-coefficient involution takes matrix size n = "
            f"{min(HITCHIN_INVOLUTION_MAX_POINTS)}..{max(HITCHIN_INVOLUTION_MAX_POINTS)}"
            f", got {n}"
        )
    if not linalgq.has_shape(points, None):
        raise ShapeError("points must be a sequence of rationals")
    if len(points) > limit:
        raise ShapeError(
            f"Hitchin-coefficient involution takes at most {limit} points "
            f"for n = {n}, got {len(points)}"
        )
    if form not in ("SL", "GL"):
        raise ShapeError(f"form must be SL or GL, got {form!r}")
    dx, a = linalgq.integer_form(linalgq.rationals(points, "points"))
    if not a:
        raise DivisorError("divisor must be nonempty")
    if len(set(a)) != len(a):
        raise DivisorError("marked points must be pairwise distinct")
    s = len(a)
    alg = LiePoissonAlgebra(n, s)
    hams: List[PoissonPolynomial] = []
    norm = max(polyq.weight_norms(a))
    for i in range(1 if form == "GL" else 2, n + 1):
        beta = polyq.kronecker_beta(norm**i)
        ws = polyq.lagrange_weights(a, 1 << beta)
        dens = [dx**e for e in range((s - 1) * i, -1, -1)]  # d_x^((s-1)i-e)
        coeffs: List[Dict[Monomial, Fraction]] = [{} for _ in dens]
        for js in product(range(s), repeat=i):
            zs = [Fraction(c, d) for c, d in zip(polyq.digits(prod(ws[j] for j in js), beta), dens)]
            signed = (zs, [-c for c in zs])
            for rows, p in product(combinations(range(n), i), permutations(range(i))):
                gens = sorted((j * n + r) * n + rows[k] for j, r, k in zip(js, rows, p))
                mono = tuple((g, 1) for g in gens)
                odd = sum(x > y for x, y in combinations(p, 2)) % 2
                for d, c in enumerate(signed[odd]):
                    coeffs[d][mono] = c
        hams += [PoissonPolynomial._from_dict(alg, c) for c in coeffs if any(c.values())]
    return alg, tuple(hams)


# ---------------------------------------------------------------------------
# Moment map and level action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentValue:
    """One square matrix per site and, optionally, one weight, a cocharacter
    theta (or None), per site; sites or data that are not sequences, a site
    that is not square, a site entry that linalgq.rational refuses, or data
    of another length, raise ShapeError."""

    sites: Tuple[Matrix, ...]
    data: Optional[Tuple[Optional[RationalCocharacter], ...]] = None

    def __post_init__(self):
        if not linalgq.has_shape(self.sites, None):
            raise ShapeError("sites must be a sequence of square matrices")
        for j, site in enumerate(self.sites):
            if not (linalgq.has_shape(site, None) and linalgq.has_shape(site, None, len(site))):
                raise ShapeError(f"site {j} is not square")
        object.__setattr__(self, "sites", tuple(
            [linalgq.rationals(row, f"sites[{j}][{p}]") for p, row in enumerate(site)]
            for j, site in enumerate(self.sites)))
        if self.data is not None and not linalgq.has_shape(self.data, None):
            raise ShapeError("data must be a sequence of weight data")
        if self.data is not None and len(self.data) != len(self.sites):
            raise ShapeError(f"{len(self.sites)} sites but {len(self.data)} weight data")

    @property
    def site_count(self) -> int:
        return len(self.sites)


def _weight_diagonal(data: Optional[Sequence], j: int, n: int) -> List[Fraction]:
    """Weight diagonal t of the cocharacter theta at point j in the n x n
    realization, all int zeros (cheap to compare) where there is none; a
    weight that is not a cocharacter of n - 1 coordinates raises ShapeError.
    By the rule of the module docstring, t decides the stalk, the Levi block
    and the leaf classes at the point."""
    theta = data[j] if data is not None else None
    if theta is None:
        return [0] * n
    if not (isinstance(theta, RationalCocharacter) and linalgq.has_shape(theta.coeffs, n - 1)):
        raise ShapeError(f"weight at point {j} does not match the {n}x{n} realization")
    return cocharacter_to_diagonal(theta)


def moment_map(f) -> MomentValue:
    """Coresidues of the field f: block projections of the residues.  Only
    f's matrix_size, theta_data and cleared residues R_j/d_r are read.

    The weights are the field's own theta_data.  With none, every
    residue passes through unchanged.  A weight at a point first constrains
    the residue (the constant Laurent class must lie in the weight's
    parahoric stalk: entry (p, q) must vanish where t_p < t_q, the channels
    with jump ceil(t_q - t_p) > 0) and then keeps only the block part, the
    entries with t_p == t_q; the discarded part pairs to zero with the block
    subalgebra under the trace form.  The stalk test reads the ints, and
    each kept entry is one Fraction(v, d_r).
    """
    n = f.matrix_size
    _, _, dr, rs = f.cleared
    zero = Fraction(0)
    sites: List[Matrix] = []
    for j, r in enumerate(rs):
        t = _weight_diagonal(f.theta_data, j, n)
        for p in range(n):
            for q in range(n):
                if t[p] < t[q] and r[p * n + q]:
                    raise FiltrationError(
                        f"residue {j} entry ({p},{q}) is outside the parahoric "
                        f"stalk (jump {ceil(t[q] - t[p])} > 0)"
                    )
        sites.append([[Fraction(r[p * n + q], dr) if t[p] == t[q] else zero for q in range(n)]
                      for p in range(n)])
    return MomentValue(sites=tuple(sites), data=f.theta_data)


def coadjoint_act(gs: Sequence[Matrix], m: MomentValue) -> MomentValue:
    """Site-wise conjugation of the form-dual representatives by elements of
    the block subgroups {g_pq = 0 unless t_p == t_q} (GroupError otherwise)."""
    if not linalgq.has_shape(gs, m.site_count):
        raise ShapeError("one group element per site is required")
    out = []
    for j, (g, site) in enumerate(zip(gs, m.sites)):
        n = len(site)
        t = _weight_diagonal(m.data, j, n)
        if not linalgq.has_shape(g, n, n):
            raise ShapeError(f"group element must be {n}x{n}")
        g = [linalgq.rationals(row, f"gs[{j}][{p}]") for p, row in enumerate(g)]
        for p in range(n):
            for q in range(n):
                if t[p] != t[q] and g[p][q] != 0:
                    raise GroupError(
                        f"entry ({p},{q}) is outside the weight's block subgroup"
                    )
        try:
            ginv = linalgq.inverse(g)
        except ArithmeticError:
            raise GroupError("group element is singular")
        out.append(linalgq.mat_mul(linalgq.mat_mul(g, site), ginv))
    return MomentValue(sites=tuple(out), data=m.data)


# ---------------------------------------------------------------------------
# Leaves and ranks
# ---------------------------------------------------------------------------


# A class block with no cyclic vector among those bivector_rank_at tries
# takes the Bareiss rank of its b^2 x b^2 bivector block, whose cost grows
# steeply with b.  On derogatory blocks P (R + R) P^-1 (R a random b/2 x b/2
# matrix with entries in -3..3 and halves, P a product of two unitriangular
# matrices with entries in -2..2) it took 0.07 s at b = 8, 0.34 s at 10,
# 1.7 s at 12, 7.4 s at 14 and 23 s at 16 on a shared 2-CPU host;
# diag(1,...,1,2,...,2) takes 0.08 s at 12 and 0.38 s at 16.  Past this size
# a derogatory block is refused (ShapeError).
LEAF_MAX_FALLBACK_BLOCK = 12


def _class_rank(x: Matrix) -> int:
    """Rank of the gl_b bivector at the b x b matrix x: b^2 - dim C(x).

    If the Krylov matrix [v, xv, ..., x^(b-1) v] of some v has rank b, x is
    regular and its centralizer C(x) has dimension b (Gantmacher, The Theory
    of Matrices I, ch. VII-VIII), so the rank is b^2 - b.  The vectors tried
    are e_1..e_b, then the all-ones vector, as diag(1, -1) has no cyclic e_i;
    x is cleared to integers first, which scales each Krylov column.  When
    none of them is cyclic, blocks up to LEAF_MAX_FALLBACK_BLOCK take the
    Bareiss rank of the b^2 x b^2 bivector block, whose entry at row (p, q)
    and column (r, s) is [p == s] x_rq - [q == r] x_ps, the rule of the
    module docstring.  A larger one is still regular, with rank
    b^2 - b, when I, x, ..., x^(b-1) are independent (its minimal polynomial
    has degree b); otherwise it is derogatory and refused with ShapeError.
    """
    b = len(x)
    _, flat = linalgq.integer_form(v for row in x for v in row)
    m = [flat[i * b:(i + 1) * b] for i in range(b)]
    for v in [[int(i == k) for i in range(b)] for k in range(b)] + [[1] * b]:
        krylov = [v]
        for _ in range(b - 1):
            v = [sum(map(mul, row, v)) for row in m]
            krylov.append(v)
        if linalgq.rank(krylov) == b:
            return b * b - b
    if b > LEAF_MAX_FALLBACK_BLOCK:
        power, powers = linalgq.identity(b), []
        for _ in range(b):
            powers.append([v for row in power for v in row])
            power = linalgq.mat_mul(power, m)
        if linalgq.rank(powers) < b:
            raise ShapeError(
                f"leaf takes derogatory blocks up to {LEAF_MAX_FALLBACK_BLOCK}x"
                f"{LEAF_MAX_FALLBACK_BLOCK}, got a {b}x{b} one"
            )
        return b * b - b
    entries = full_site(b)
    return linalgq.rank(
        [
            [(x[r][q] if p == s else 0) - (x[p][s] if q == r else 0) for r, s in entries]
            for p, q in entries
        ]
    )


def bivector_rank_at(xi: MomentValue) -> int:
    """Rank of the Poisson bivector at the point: dimension of its leaf.

    Site j is the Levi block of the point's weight theta data[j], or the
    full matrix algebra of its size where there is none.  The bracket couples
    only the generators x_pq of one site with p and q in one index class of
    equal weight (the whole index range for a full site), so the bivector is
    block-diagonal over the classes, and on a class of size b it is the gl_b
    bivector at the b x b block of the site's matrix on that class; its rank
    is _class_rank of that block.  A weight of another realization than its
    point's site, or a derogatory class block larger than
    LEAF_MAX_FALLBACK_BLOCK, raises ShapeError.
    """
    total = 0
    for j, values in enumerate(xi.sites):
        t = _weight_diagonal(xi.data, j, len(values))
        classes: Dict[Fraction, List[int]] = {}
        for p, w in enumerate(t):
            classes.setdefault(w, []).append(p)
        for idx in classes.values():
            total += _class_rank([[values[p][q] for q in idx] for p in idx])
    return total


@dataclass(frozen=True)
class LeafDescriptor:
    site_invariants: Tuple[Tuple[Fraction, ...], ...]
    bivector_rank: int


def leaf_invariants(xi: MomentValue) -> LeafDescriptor:
    """Conjugation-invariant coordinates of the leaf through the point: the
    invariant values of each site and the bivector_rank_at the point."""
    invs = tuple(tuple(linalgq.invariant_values(site)) for site in xi.sites)
    return LeafDescriptor(site_invariants=invs, bivector_rank=bivector_rank_at(xi))


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
