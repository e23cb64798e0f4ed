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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
    pair,
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
    """Jump table, Levi root set, radical grading and facet class of theta."""
    if len(theta.coeffs) != rs.rank:
        raise ShapeError(
            f"theta has {len(theta.coeffs)} coordinates, system rank is {rs.rank}"
        )
    jumps: Dict[Root, int] = {}
    levi: List[Root] = []
    plus: Dict[Root, int] = {}
    for r in rs.roots:
        value = pair(rs, theta, r)
        m = math.ceil(-value)
        jumps[r] = m
        if value.denominator == 1:
            levi.append(r)
            plus[r] = m + 1
        else:
            plus[r] = m
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
        if k in torus_acc:
            torus_acc[k] = [a + b for a, b in zip(torus_acc[k], coords)]
        else:
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


def loop_zero(rs: RootSystem) -> LoopElement:
    return loop_element(rs)


def loop_add(x: LoopElement, y: LoopElement) -> LoopElement:
    _same_system(x.system, y.system)
    torus: Dict[int, List[Fraction]] = {}
    for k, coords in x.torus_terms + y.torus_terms:
        if k in torus:
            torus[k] = [a + b for a, b in zip(torus[k], coords)]
        else:
            torus[k] = list(coords)
    roots: Dict[Tuple[Root, int], Fraction] = {}
    for r, k, c in x.root_terms + y.root_terms:
        roots[(r, k)] = roots.get((r, k), Fraction(0)) + c
    return loop_element(x.system, torus, roots)


def loop_scale(x: LoopElement, c) -> LoopElement:
    c = Fraction(c)
    return loop_element(
        x.system,
        {k: [c * a for a in coords] for k, coords in x.torus_terms},
        {(r, k): c * v for r, k, v in x.root_terms},
    )


def loop_sub(x: LoopElement, y: LoopElement) -> LoopElement:
    return loop_add(x, loop_scale(y, -1))


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
        diag = cocharacter_to_diagonal(rs, RationalCocharacter(tuple(coords)))
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
        if len(m) != n or any(len(row) != n for row in m):
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
    and z is set to 1; torus coordinates pass through unchanged.  Only the
    type-A realization is available for the flat target.
    """
    rs = x.system
    if rs.family != "A":
        raise UnsupportedRealizationError("flat evaluation needs the type-A realization")
    if levi_project(x, d) != x:
        raise FiltrationError("element has a term outside the lifted Levi slice")
    n = rs.rank + 1
    out = linalgq.zeros(n)
    for _, coords in x.torus_terms:
        diag = cocharacter_to_diagonal(rs, RationalCocharacter(tuple(coords)))
        for i, t in enumerate(diag):
            out[i][i] += t
    for r, _, c in x.root_terms:
        p, q = root_to_entry(rs, r)
        out[p][q] += c
    return out


# ---------------------------------------------------------------------------
# Weighted degrees and slope stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionDatum:
    sub_degree: int
    sub_rank: int
    total_degree: int
    total_rank: int
    weight_pairings: Tuple[Fraction, ...] = ()

    @staticmethod
    def of(sub_degree, sub_rank, total_degree, total_rank, weight_pairings=()):
        return ReductionDatum(
            int(sub_degree),
            int(sub_rank),
            int(total_degree),
            int(total_rank),
            tuple(Fraction(w) for w in weight_pairings),
        )


VERDICT_STABLE = "stable-pass"
VERDICT_BOUNDARY = "semistable-boundary"
VERDICT_FAIL = "fail"


def parahoric_degree(rd: ReductionDatum) -> Fraction:
    """Weighted degree: ordinary degree plus the marked-point pairings."""
    return Fraction(rd.sub_degree) + sum(rd.weight_pairings, Fraction(0))


def slope_test(rd: ReductionDatum, total: Optional[ReductionDatum] = None) -> str:
    """Compare the weighted slope of a reduction against the full object.

    With only one datum the ambient object is taken to carry no weight
    contributions (its weighted degree is rd.total_degree).  Passing a
    second datum for the full object supplies its own pairings; that datum's
    sub_* fields describe the full object itself.
    """
    if total is not None:
        if rd.total_rank != total.sub_rank or rd.total_degree != total.sub_degree:
            raise InvalidReductionError(
                "total datum disagrees with the reduction's ambient fields"
            )
        total_rank = total.sub_rank
        total_deg = parahoric_degree(total)
    else:
        total_rank = rd.total_rank
        total_deg = Fraction(rd.total_degree)
    if not 0 < rd.sub_rank < total_rank:
        raise InvalidReductionError(
            f"sub_rank must lie strictly between 0 and {total_rank}, got {rd.sub_rank}"
        )
    sub_slope = parahoric_degree(rd) / rd.sub_rank
    total_slope = total_deg / total_rank
    if sub_slope < total_slope:
        return VERDICT_STABLE
    if sub_slope == total_slope:
        return VERDICT_BOUNDARY
    return VERDICT_FAIL


@dataclass(frozen=True)
class Rank2Candidate:
    degree: int
    incidences: Tuple[int, ...]
    reduction: ReductionDatum
    weighted_degree: Fraction
    verdict: str


@dataclass(frozen=True)
class Rank2Report:
    verdict: str
    witness: Rank2Candidate
    total_weighted_degree: Fraction
    total_slope: Fraction
    candidates: Tuple[Rank2Candidate, ...] = field(repr=False)


# Every rank-2 report lists one candidate per closed incidence set, and their
# number grows like 2^m in the flag count m: at m = 12 there are over 40k
# candidates and the JSON report runs to several megabytes.  Past this many
# flags rank2_semistability refuses the input (ShapeError) before any work.
RANK2_MAX_FLAGS = 10

# Each incidence row has one entry d*x^k per k up to the split-degree gap
# a1 - a2, so the integer elimination grows faster than linearly in the gap:
# RANK2_MAX_FLAGS flags at points 0..9 take about 2 s at gap 32 and 52 s at
# gap 400.  Past this gap rank2_semistability refuses the input (ShapeError).
RANK2_MAX_GAP = 32


def _incidence_closures(rows: List[List[int]], nvars: int) -> Set[Tuple[int, ...]]:
    """Closed incidence sets of the integer condition rows on nvars unknowns.

    A set is closed when it holds every condition that vanishes on the
    kernel of its rows.  This returns the closure of every subset of rows
    whose kernel is not zero, walking the independent subsets depth-first
    and adding only indices above the last one added: every subset has the
    closure of its maximal independent subsets, and every prefix of an
    independent set is independent.

    The state is a matrix E kept by columns, E[k][j] being row k applied to
    the j-th vector of a kernel basis of the rows chosen so far.  Adding row
    i with pivot column p (its first non-zero entry) is one integer column
    step col_j <- E[i][p]*col_j - E[i][j]*col_p; col_p is dropped and each
    column divided by its gcd, so a column with E[i][j] = 0 is left as it
    is.  The closure is the set of zero rows of E; the walk stops at one
    column, since a further row would leave no kernel.
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
        live = [any(col[k] for col in cols) for k in range(m)]
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
    condition d_i*p(x_i) - c_i*q(x_i) = 0, kept as a row of Python ints.

    Candidates run over degrees {a1} and {a2, a2-1, ..., a2-m} (m = number of
    marked points) and every closed set of incidences whose conditions leave
    a non-zero solution; _incidence_closures finds these sets by integer
    column elimination over the independent condition sets.  This is
    exhaustive because the weighted degree of any deeper or unsaturated
    candidate is strictly beaten by a listed one: each unit of degree lost
    can buy back strictly less than one unit of weight when all weights lie
    in [0,1).

    At most RANK2_MAX_FLAGS flags and a gap |a1 - a2| of at most
    RANK2_MAX_GAP are accepted; beyond either ShapeError is raised before
    any work, since the candidate list grows like 2^m and the incidence
    rows grow with the gap.
    """
    m = len(flags)
    if m > RANK2_MAX_FLAGS:
        raise ShapeError(
            f"rank-2 enumeration takes at most {RANK2_MAX_FLAGS} flags, got {m}"
        )
    a1, a2 = int(split_degrees[0]), int(split_degrees[1])
    if abs(a1 - a2) > RANK2_MAX_GAP:
        raise ShapeError(
            f"rank-2 enumeration takes a split-degree gap of at most "
            f"{RANK2_MAX_GAP}, got {abs(a1 - a2)}"
        )
    if len(weights) != m:
        raise ShapeError("one weight pair per flag is required")
    flag_dirs = []
    for c, dcoord in flags:
        c, dcoord = Fraction(c), Fraction(dcoord)
        if c == 0 and dcoord == 0:
            raise ShapeError("flag direction must be a nonzero coordinate pair")
        flag_dirs.append((c, dcoord))
    wpairs = []
    for wf, wo in weights:
        wf, wo = Fraction(wf), Fraction(wo)
        if not (0 <= wf < 1 and 0 <= wo < 1):
            raise NormalizationError("weights must lie in [0, 1)")
        wpairs.append((wf, wo))
    if points is None:
        xs = [Fraction(i) for i in range(m)]
    else:
        xs = [Fraction(x) for x in points]
    if len(xs) != m:
        raise ShapeError("one marked point per flag is required")
    if len(set(xs)) != m:
        raise DivisorError("marked points must be pairwise distinct")

    if a1 < a2:
        a1, a2 = a2, a1
        flag_dirs = [(d, c) for c, d in flag_dirs]

    total_degree = a1 + a2
    total_wd = Fraction(total_degree) + sum((wf + wo for wf, wo in wpairs), Fraction(0))
    total_slope = total_wd / 2

    degrees = sorted({a1} | {a2 - k for k in range(m + 1)}, reverse=True)
    found: List[Rank2Candidate] = []
    for a in degrees:
        dim_p = a1 - a + 1
        dim_q = max(a2 - a + 1, 0)
        rows = [
            linalgq.integer_row(
                [d * x**k for k in range(dim_p)] + [-c * x**k for k in range(dim_q)]
            )
            for (c, d), x in zip(flag_dirs, xs)
        ]
        for actual in _incidence_closures(rows, dim_p + dim_q):
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
            found.append(Rank2Candidate(a, actual, rd, wd, verdict))

    candidates = tuple(
        sorted(found, key=lambda c: (-c.weighted_degree, -c.degree, c.incidences))
    )
    witness = candidates[0]
    return Rank2Report(
        verdict=witness.verdict,
        witness=witness,
        total_weighted_degree=total_wd,
        total_slope=total_slope,
        candidates=candidates,
    )
