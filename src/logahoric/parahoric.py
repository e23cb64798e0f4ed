"""Parahoric filtrations of the loop algebra attached to a rational weight.

A rational cocharacter theta assigns to every root channel r the jump
integer m_r(theta) = ceil(-r(theta)), the lowest z-exponent admitted in the
standard parahoric subalgebra.  Everything else in this module is derived
from one grading picture: give z^k in a root channel r the depth
k + r(theta), and z^k in the torus the depth k.  Then

    g_theta        = depth >= 0        (torus exp >= 0, channel exp >= m_r)
    g_theta_plus   = depth  > 0        (torus exp >= 1; channel exp >= m_r+1
                                        on Levi channels, >= m_r otherwise)
    g_theta_perp   = depth  > -1       (torus exp >= 0, channel exp >= -m_{-r})
    levi lift      = depth == 0 slice  (torus exp 0, Levi channel exp m_r)

Depths add under brackets, which is the whole content of the ideal and
decomposition properties checked in the tests.  The per-channel evaluation
map shifts the depth-zero slice to exponent zero and strips z, identifying
the lift with a flat reductive Lie algebra (a matrix algebra in type A).

The slope-stability helpers at the bottom work with weighted degrees of
sub-objects; the rank-2 enumerator is exhaustive on the projective line,
where every rank-2 bundle splits and line subbundles of a split bundle are
cut out by finite-dimensional linear systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from . import linalgq
from .errors import (
    DivisorError,
    FiltrationError,
    InvalidReductionError,
    NormalizationError,
    ShapeError,
    TraceError,
    UnsupportedRealizationError,
)
from .linalgq import Matrix
from .rootsys import (
    RationalCocharacter,
    Root,
    RootSystem,
    cocharacter_to_diagonal,
    entry_to_root,
    negate,
    root_to_entry,
)

MEMBER_PLUS = "in_g_theta_plus"
MEMBER_PARAHORIC = "in_g_theta"
MEMBER_PERP = "in_g_theta_perp"
MEMBER_NONE = "none"

FACET_HYPERSPECIAL = "hyperspecial"
FACET_IWAHORI = "Iwahori"
FACET_PROPER = "proper-parahoric"


@dataclass(frozen=True)
class ParahoricDatum:
    system: RootSystem
    theta: RationalCocharacter
    jumps: Dict[Root, int]
    levi_roots: Tuple[Root, ...]
    plus_grading: Dict[Root, int]
    facet_class: str


def analyze_weight(rs: RootSystem, theta: RationalCocharacter) -> ParahoricDatum:
    """Jump table, Levi root set, radical grading and facet class of theta.

    theta, read by linalgq.rationals and kept so in the datum, is cleared
    once by linalgq.integer_form to cs/den; u_j = sum_i cs_i * cartan[i][j]
    folds the Cartan matrix in, so each root's pairing r(theta) = (u . r)/den
    is one int dot product.  One divmod by den gives its floor q and
    remainder: the jump ceil(-r(theta)) is -q, and r is a Levi root exactly
    when the remainder is 0 (integer pairing).  rootsys.pair is the scalar
    reference.  theta of another coordinate count, or with a coordinate
    that is not a rational, raises ShapeError.
    """
    if not linalgq.has_shape(theta.coeffs, rs.rank):
        raise ShapeError(f"theta needs {rs.rank} coroot coordinates, the system rank")
    theta = RationalCocharacter(tuple(linalgq.rationals(theta.coeffs, "theta")))
    den, cs = linalgq.integer_form(theta.coeffs)
    u = [sum(map(mul, cs, col)) for col in zip(*rs.cartan_matrix)]
    jumps: Dict[Root, int] = {}
    levi: List[Root] = []
    plus: Dict[Root, int] = {}
    for r in rs.roots:
        q, rem = divmod(sum(map(mul, u, r)), den)
        jumps[r] = -q
        if rem:
            plus[r] = -q
        else:
            levi.append(r)
            plus[r] = 1 - q
    if len(levi) == len(rs.roots):
        facet = FACET_HYPERSPECIAL
    elif not levi:
        facet = FACET_IWAHORI
    else:
        facet = FACET_PROPER
    return ParahoricDatum(
        system=rs,
        theta=theta,
        jumps=jumps,
        levi_roots=tuple(levi),
        plus_grading=plus,
        facet_class=facet,
    )


# ---------------------------------------------------------------------------
# Loop-algebra elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopElement:
    """Finitely supported element of the loop algebra.

    torus_terms: sorted tuple of (z-exponent, coroot-basis coordinate tuple).
    root_terms:  sorted tuple of (root, z-exponent, coefficient).
    Zero coefficients never appear; construct through loop_element.
    """

    system: RootSystem
    torus_terms: Tuple[Tuple[int, Tuple[Fraction, ...]], ...]
    root_terms: Tuple[Tuple[Root, int, Fraction], ...]

    @property
    def is_zero(self) -> bool:
        return not self.torus_terms and not self.root_terms


def loop_element(
    rs: RootSystem,
    torus: Optional[Mapping[int, Sequence]] = None,
    roots: Optional[Mapping[Tuple[Sequence[int], int], object]] = None,
) -> LoopElement:
    """Canonical constructor; merges duplicates and drops zero terms."""
    torus_acc: Dict[int, List[Fraction]] = {}
    for k, coords in (torus or {}).items():
        coords = [Fraction(c) for c in coords]
        if len(coords) != rs.rank:
            raise ShapeError(f"torus coordinate vector must have length {rs.rank}")
        torus_acc[k] = coords
    root_acc: Dict[Tuple[Root, int], Fraction] = {}
    root_set = set(rs.roots)
    for (r, k), c in (roots or {}).items():
        r = tuple(r)
        if r not in root_set:
            raise ShapeError(f"{r} is not a root of {rs.family}{rs.rank}")
        c = Fraction(c)
        root_acc[(r, k)] = root_acc.get((r, k), Fraction(0)) + c
    return LoopElement(
        system=rs,
        torus_terms=tuple(
            (k, tuple(v))
            for k, v in sorted(torus_acc.items())
            if any(c != 0 for c in v)
        ),
        root_terms=tuple(
            sorted((r, k, c) for (r, k), c in root_acc.items() if c != 0)
        ),
    )


def _same_system(a: RootSystem, b: RootSystem) -> None:
    if a.family != b.family or a.rank != b.rank:
        raise ShapeError(f"mixed root systems: {a.family}{a.rank} vs {b.family}{b.rank}")


def loop_to_laurent(x: LoopElement) -> Dict[int, Matrix]:
    """Type-A realization: map exponent -> rational matrix coefficient."""
    rs = x.system
    if rs.family != "A":
        raise UnsupportedRealizationError("matrix realization exists for type A only")
    n = rs.rank + 1
    out: Dict[int, Matrix] = {}

    def coeff(k: int) -> Matrix:
        if k not in out:
            out[k] = linalgq.zeros(n)
        return out[k]

    for k, coords in x.torus_terms:
        diag = cocharacter_to_diagonal(RationalCocharacter(tuple(coords)))
        m = coeff(k)
        for i, t in enumerate(diag):
            m[i][i] += t
    for r, k, c in x.root_terms:
        p, q = root_to_entry(rs, r)
        coeff(k)[p][q] += c
    return {k: m for k, m in out.items() if not linalgq.is_zero_matrix(m)}


def laurent_to_loop(rs: RootSystem, coeffs: Mapping[int, Matrix]) -> LoopElement:
    """Inverse realization; requires traceless diagonal parts."""
    if rs.family != "A":
        raise UnsupportedRealizationError("matrix realization exists for type A only")
    n = rs.rank + 1
    torus: Dict[int, List[Fraction]] = {}
    roots: Dict[Tuple[Root, int], Fraction] = {}
    for k, m in coeffs.items():
        if not linalgq.has_shape(m, n, n):
            raise ShapeError(f"coefficient at z^{k} must be {n}x{n}")
        diag = [Fraction(m[i][i]) for i in range(n)]
        if sum(diag) != 0:
            raise TraceError("diagonal part must be traceless in the SL realization")
        coords = []
        running = Fraction(0)
        for i in range(rs.rank):
            running += diag[i]
            coords.append(running)
        torus[k] = coords
        for p in range(n):
            for q in range(n):
                if p != q and m[p][q]:
                    roots[(entry_to_root(rs, p, q), k)] = Fraction(m[p][q])
    return loop_element(rs, torus, roots)


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    """Lie bracket through the type-A matrix realization."""
    _same_system(x.system, y.system)
    ax = loop_to_laurent(x)
    ay = loop_to_laurent(y)
    out: Dict[int, Matrix] = {}
    for ka, ma in ax.items():
        for kb, mb in ay.items():
            c = linalgq.commutator(ma, mb)
            if ka + kb in out:
                out[ka + kb] = linalgq.mat_add(out[ka + kb], c)
            else:
                out[ka + kb] = c
    return laurent_to_loop(x.system, out)


# ---------------------------------------------------------------------------
# Membership and the Levi evaluation
# ---------------------------------------------------------------------------


def membership(x: LoopElement, d: ParahoricDatum) -> str:
    """Finest filtration level containing every term of x."""
    _same_system(x.system, d.system)
    in_plus = in_para = in_perp = True
    for k, _ in x.torus_terms:
        if k < 1:
            in_plus = False
        if k < 0:
            in_para = False
            in_perp = False
    for r, k, _ in x.root_terms:
        if k < d.plus_grading[r]:
            in_plus = False
        if k < d.jumps[r]:
            in_para = False
        if k < -d.jumps[negate(r)]:
            in_perp = False
    if in_plus:
        return MEMBER_PLUS
    if in_para:
        return MEMBER_PARAHORIC
    if in_perp:
        return MEMBER_PERP
    return MEMBER_NONE


def levi_project(x: LoopElement, d: ParahoricDatum) -> LoopElement:
    """Component of x in the lifted Levi slice.

    Keeps the exponent-zero torus part and, per Levi channel r, the term at
    the channel's bottom exponent jumps[r]; the discarded complement always
    lies in the pro-unipotent radical.
    """
    if membership(x, d) not in (MEMBER_PLUS, MEMBER_PARAHORIC):
        raise FiltrationError("element is not in the parahoric subalgebra")
    levi = set(d.levi_roots)
    torus = {k: list(coords) for k, coords in x.torus_terms if k == 0}
    roots = {
        (r, k): c
        for r, k, c in x.root_terms
        if r in levi and k == d.jumps[r]
    }
    return loop_element(x.system, torus, roots)


def levi_evaluate(x: LoopElement, d: ParahoricDatum) -> Matrix:
    """Per-channel evaluation of a Levi-slice element to a flat matrix.

    Each Levi channel is shifted from its bottom exponent to exponent zero
    and z is set to 1; torus coordinates pass through unchanged.  So the
    result is the sum of the Laurent coefficients of x (z = 1).  Only the
    type-A realization is available for the flat target.
    """
    rs = x.system
    if rs.family != "A":
        raise UnsupportedRealizationError("flat evaluation needs the type-A realization")
    if levi_project(x, d) != x:
        raise FiltrationError("element has a term outside the lifted Levi slice")
    out = linalgq.zeros(rs.rank + 1)
    for m in loop_to_laurent(x).values():
        out = linalgq.mat_add(out, m)
    return out


# ---------------------------------------------------------------------------
# Weighted degrees and slope stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionDatum:
    """A reduction (sub_*) of an ambient object (total_*), each with its
    degree, rank and marked-point pairings."""

    sub_degree: int
    sub_rank: int
    total_degree: int
    total_rank: int
    weight_pairings: Tuple[Fraction, ...] = ()
    total_pairings: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        """Degrees and ranks are kept as ints and pairings as Fractions; a
        degree or rank that is not an integer, or a pairing that is not a
        rational, raises InvalidReductionError."""
        for name in ("sub_degree", "sub_rank", "total_degree", "total_rank"):
            value = linalgq.integer(getattr(self, name), name, InvalidReductionError)
            object.__setattr__(self, name, value)
        for name in ("weight_pairings", "total_pairings"):
            values = linalgq.rationals(getattr(self, name), name, InvalidReductionError)
            object.__setattr__(self, name, tuple(map(Fraction, values)))


VERDICT_STABLE = "stable-pass"
VERDICT_BOUNDARY = "semistable-boundary"
VERDICT_FAIL = "fail"


def verdict(lhs, rhs) -> str:
    """The slope verdict of a reduction whose side lhs is set against the
    full object's side rhs: stable below, boundary at equality, fail above."""
    if lhs < rhs:
        return VERDICT_STABLE
    if lhs == rhs:
        return VERDICT_BOUNDARY
    return VERDICT_FAIL


def parahoric_degree(rd: ReductionDatum) -> Fraction:
    """Weighted degree: ordinary degree plus the marked-point pairings."""
    return Fraction(rd.sub_degree) + sum(rd.weight_pairings, Fraction(0))


def slope_test(rd: ReductionDatum) -> str:
    """Compare the weighted slope of a reduction against the full object,
    whose weighted degree is rd.total_degree plus rd.total_pairings."""
    if not 0 < rd.sub_rank < rd.total_rank:
        raise InvalidReductionError(
            f"sub_rank must lie strictly between 0 and {rd.total_rank}, got {rd.sub_rank}"
        )
    total_deg = rd.total_degree + sum(rd.total_pairings, Fraction(0))
    return verdict(parahoric_degree(rd) / rd.sub_rank, total_deg / rd.total_rank)


class Rank2Candidate(NamedTuple):
    """A line subbundle of degree `degree` meeting the flags `incidences`.

    Its ReductionDatum would be (degree, 1, a1 + a2, 2) with the on-flag
    weight at each incidence and the off-flag weight elsewhere, and every
    weight among its total_pairings; the enumerator keeps only its weighted
    degree and verdict, which candidates of equal weighted degree share
    (one Fraction object each).  A named tuple, as a report holds up to
    m*2^m of them: it is built in half a frozen dataclass's time.
    """

    degree: int
    incidences: Tuple[int, ...]
    weighted_degree: Fraction
    verdict: str


@dataclass(frozen=True)
class Rank2Report:
    verdict: str
    witness: Rank2Candidate
    total_weighted_degree: Fraction
    total_slope: Fraction
    candidates: Tuple[Rank2Candidate, ...] = field(repr=False)


# A rank-2 report lists one candidate per closed incidence set, so it grows
# like 2^m in the flag count m.  At points 0..m-1 with directions (1, i + 1)
# and split degrees (1, 0), `stability` takes 0.015 s in process at m = 8
# (1,788 candidates, 0.4 MB of JSON) and 0.10 s at m = 10 (8,188, 1.8 MB) on
# a shared 2-CPU host; m = 12 gives over 40k.  Past this many flags
# rank2_semistability refuses the input (ShapeError) before any work.
RANK2_MAX_FLAGS = 10

# A row of degree a2 - k holds the powers x^0..x^(gap + k) of its point, so
# the integer elimination grows faster than linearly in the gap.  Rows free
# at one degree are free at every lower one, so 10 flags (1, i + 1) at points
# 0..9 take one rank check: 0.008 s at gap 32 and 0.016 s at gap 400, and
# 0.08 s at gap 32 at points (i + 1)/p over the first ten primes.  Rows kept
# dependent by flags (1, 0) take the walk: with seven of the ten 0.26 s at
# gap 32, with five 6.4 s at gap 400 (shared 2-CPU host).  Past this gap
# rank2_semistability refuses the input (ShapeError).
RANK2_MAX_GAP = 32


def _incidence_walk(rows: List[List[int]], nvars: int) -> Set[Tuple[int, ...]]:
    """Closed incidence sets of the integer condition rows on nvars unknowns.

    A set is closed when it holds every condition that vanishes on the
    kernel of its rows; this returns the closure of every subset of rows
    whose kernel is not zero.  The independent subsets are walked
    depth-first, adding only indices above the last one added, as every
    subset has the closure of its maximal independent subsets and every
    prefix of an independent set is independent.  The state is a matrix E kept by columns, E[k][j] being row
    k applied to the j-th vector of a kernel basis of the rows chosen so
    far.  Adding row i with pivot column p (its first non-zero entry) is one
    integer column step col_j <- E[i][p]*col_j - E[i][j]*col_p; col_p is
    dropped and each column divided by its gcd, so a column with E[i][j] = 0
    is left as it is.  The closure is the set of zero rows of E; the walk
    stops at one column, since a further row would leave no kernel.
    """
    m = len(rows)
    start = []
    for j in range(nvars):
        col = [row[j] for row in rows]
        g = math.gcd(*col)
        start.append([x // g for x in col] if g > 1 else col)
    closures: Set[Tuple[int, ...]] = set()
    stack = [(start, 0)]  # (columns of E, lowest row index that may be added)
    while stack:
        cols, first = stack.pop()
        live = list(map(any, zip(*cols)))
        closures.add(tuple(k for k in range(m) if not live[k]))
        if len(cols) == 1:
            continue
        for i in range(first, m):
            if not live[i]:
                continue
            p = next(j for j, col in enumerate(cols) if col[i])
            col_p = cols[p]
            pivot = col_p[i]
            step = []
            for j, col in enumerate(cols):
                if j == p:
                    continue
                f = col[i]
                if f:
                    col = [pivot * x - f * y for x, y in zip(col, col_p)]
                    g = math.gcd(*col)
                    if g > 1:
                        col = [x // g for x in col]
                step.append(col)
            stack.append((step, i + 1))
    return closures


def rank2_semistability(
    split_degrees: Tuple[int, int],
    flags: Sequence[Tuple[object, object]] = (),
    weights: Sequence[Tuple[object, object]] = (),
    points: Optional[Sequence[object]] = None,
) -> Rank2Report:
    """Exhaustive slope test for a weighted rank-2 split bundle on the line.

    The bundle is O(a1) + O(a2).  At each marked point a flag line in the
    fiber is given by a nonzero coordinate pair, with weight pair
    (on-flag, off-flag), both in [0,1).  A line subbundle of degree a is a
    coefficient vector of a polynomial pair (p, q) with deg p <= a1-a,
    deg q <= a2-a; forcing incidence with the flag at x_i is one linear
    condition d_i*p(x_i) - c_i*q(x_i) = 0, kept as a row of Python ints
    (times D^(a1-a), the points cleared once to x_i = u_i/D).

    Candidates run over degrees {a1} and {a2, a2-1, ..., a2-m} (m = number of
    marked points) and every closed set of incidences whose conditions leave
    a non-zero solution.  This is exhaustive because the weighted degree of
    any deeper or unsaturated candidate is strictly beaten by a listed one:
    each unit of degree lost can buy back strictly less than one unit of
    weight when all weights lie in [0,1).

    The degrees form a ladder, walked top-down.  Down to a2 no row is zero
    (its first entries are d_i*D^(dim_p-1) and -c_i*D^(dim_p-1)), and the
    rows of degree a - k hold D^k times those of degree a as columns.  So
    once one linalgq.rank check finds all m rows of a degree independent,
    so are those of every lower degree, which builds no rows and lists every
    subset of fewer than nvars incidences from one table of all 2^m subsets
    S, sorted once by (-gain, S): one presorted run of keys per degree.
    Above that, each degree's rows, dependent by one rank check (or as
    m > nvars), go to _incidence_walk.

    Weighted degrees are int numerators over the one denominator w of the
    2m cleared weights on_i/w, off_i/w: a candidate of degree a holding the
    incidences S has num = a*w + sum(off_i) + sum_{i in S}(on_i - off_i),
    the bundle total_num = (a1 + a2)*w + sum(on_i + off_i).  Verdicts
    compare 2*num with total_num, and candidates sort on (-num, -a, S).
    Each candidate is built from its (num, a, S) key alone: one
    Fraction(num, w) and one verdict per distinct num, shared by the
    candidates that have it; no ReductionDatum is built.

    At most RANK2_MAX_FLAGS flags and a gap |a1 - a2| of at most
    RANK2_MAX_GAP are accepted; beyond either ShapeError is raised before
    any work, since the candidate list grows like 2^m and the incidence
    rows grow with the gap.  split_degrees, flags and weights that are not
    pairs, split degrees that are not integers, flag, weight or point
    entries that are not rationals, and weight or point lists of another
    length than flags, raise ShapeError too.
    """
    if not linalgq.has_shape(flags, None, 2):
        raise ShapeError("each flag must be a coordinate pair")
    m = len(flags)
    if m > RANK2_MAX_FLAGS:
        raise ShapeError(
            f"rank-2 enumeration takes at most {RANK2_MAX_FLAGS} flags, got {m}"
        )
    if not linalgq.has_shape(split_degrees, 2):
        raise ShapeError("split_degrees must be a pair (a1, a2)")
    a1, a2 = (linalgq.integer(a, f"split_degrees[{i}]") for i, a in enumerate(split_degrees))
    if abs(a1 - a2) > RANK2_MAX_GAP:
        raise ShapeError(
            f"rank-2 enumeration takes a split-degree gap of at most "
            f"{RANK2_MAX_GAP}, got {abs(a1 - a2)}"
        )
    if not linalgq.has_shape(weights, m, 2):
        raise ShapeError("one weight pair per flag is required")
    flag_dirs = [
        tuple(linalgq.integer_form(linalgq.rationals(flag, f"flags[{i}]"))[1])
        for i, flag in enumerate(flags)
    ]
    if (0, 0) in flag_dirs:
        raise ShapeError("flag direction must be a nonzero coordinate pair")
    wpairs = [linalgq.rationals(pair, f"weights[{i}]") for i, pair in enumerate(weights)]
    if not all(0 <= v < 1 for pair in wpairs for v in pair):
        raise NormalizationError("weights must lie in [0, 1)")
    if points is not None and not linalgq.has_shape(points, m):
        raise ShapeError("one marked point per flag is required")
    dx, xs = linalgq.integer_form(linalgq.rationals(points or range(m), "points"))
    if len(set(xs)) != m:
        raise DivisorError("marked points must be pairwise distinct")

    if a1 < a2:
        a1, a2 = a2, a1
        flag_dirs = [(d, c) for c, d in flag_dirs]

    w, cleared = linalgq.integer_form(v for pair in wpairs for v in pair)
    gains = [on - off for on, off in zip(cleared[::2], cleared[1::2])]
    off_sum = sum(cleared[1::2])
    total_num = (a1 + a2) * w + sum(cleared)

    degrees = sorted({a1} | {a2 - k for k in range(m + 1)}, reverse=True)
    keys = []  # (-numerator, -degree, incidences): the report's order
    table = None  # (-gain, S) for every subset S, sorted, once the rows are free
    for a in degrees:
        dim_p = a1 - a + 1
        dim_q = max(a2 - a + 1, 0)
        nvars = dim_p + dim_q
        base = a * w + off_sum
        if table is None:
            rows = []
            for (c, d), x in zip(flag_dirs, xs):
                powers = [x**k * dx ** (dim_p - 1 - k) for k in range(dim_p)]
                rows.append([d * t for t in powers] + [-c * t for t in powers[:dim_q]])
            if m > nvars or linalgq.rank(rows) < m:
                closures = _incidence_walk(rows, nvars)
            else:
                table = [(0, ())]
                for i, g in enumerate(gains):
                    table += [(t - g, s + (i,)) for t, s in table]
                table.sort()
        if table is None:
            keys += [(-base - sum([gains[i] for i in s]), -a, s) for s in closures]
        else:  # one presorted run, which keys.sort merges
            keys += [(t - base, -a, s) for t, s in table if len(s) < nvars]
    keys.sort()

    candidates = []
    last = None
    for neg_num, neg_a, actual in keys:
        if neg_num != last:  # keys sort on -num: one Fraction and verdict per num
            last = neg_num
            wd, v = Fraction(-neg_num, w), verdict(-2 * neg_num, total_num)
        candidates.append(Rank2Candidate(-neg_a, actual, wd, v))
    witness = candidates[0]
    return Rank2Report(
        verdict=witness.verdict,
        witness=witness,
        total_weighted_degree=Fraction(total_num, w),
        total_slope=Fraction(total_num, 2 * w),
        candidates=tuple(candidates),
    )
