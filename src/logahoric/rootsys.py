"""Irreducible root systems of types A-D and G2 over exact rationals.

Roots are stored as integer coordinate vectors in the simple-root basis and
cocharacters as rational vectors in the simple-coroot basis, so every pairing
routes through the Cartan matrix and no Euclidean normalization is ever
chosen.  The Cartan convention here is

    cartan[i][j] = <alpha_i^vee, alpha_j>,

which makes the pairing of a cocharacter theta = sum c_i alpha_i^vee with a
root r = sum a_j alpha_j equal to  sum_ij c_i * cartan[i][j] * a_j, and the
simple reflection on root coordinates  s_i(a) = a - (cartan[i] . a) e_i.

Matrix realizations (the fundamental representation) are provided for type A
only; the other families participate in the abstract filtration
combinatorics but have no Lax-side realization here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import linalgq
from .errors import ShapeError, UnsupportedRealizationError, UnsupportedTypeError

Root = Tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "G")


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    roots: Tuple[Root, ...]
    simple_roots: Tuple[Root, ...]
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    invariant_degrees: Tuple[int, ...]


@dataclass(frozen=True)
class RationalCocharacter:
    """A rational cocharacter, coordinates in the simple-coroot basis, read
    by linalgq.rationals however it is built: text or a non-sequence where
    the coordinates belong, or a coordinate that linalgq.rational refuses
    (named theta[i]), raises ShapeError."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if not linalgq.has_shape(self.coeffs, None):
            raise ShapeError("theta must be a sequence of coroot coordinates")
        object.__setattr__(self, "coeffs", tuple(linalgq.rationals(self.coeffs, "theta")))

    @staticmethod
    def of(values: Sequence) -> "RationalCocharacter":
        return RationalCocharacter(values)


@dataclass(frozen=True)
class GroupTag:
    """Selects the matrix realization: type-A family plus an SL/GL form flag."""

    family: str
    rank: int
    form: str  # "SL" or "GL"

    def __post_init__(self):
        if self.form not in ("SL", "GL"):
            raise UnsupportedTypeError(f"unknown form {self.form!r}; use SL or GL")
        object.__setattr__(self, "rank", linalgq.integer(self.rank, "rank", UnsupportedTypeError))
        if self.rank < 0:
            raise UnsupportedTypeError(f"rank must be at least 0, got {self.rank}")

    @property
    def matrix_size(self) -> int:
        if self.family != "A":
            raise UnsupportedRealizationError(
                f"matrix realization exists for family A only, not {self.family}"
            )
        return self.rank + 1


def _cartan(family: str, rank: int) -> List[List[int]]:
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
    if family == "A":
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
    elif family in ("B", "C"):
        for i in range(rank - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        # B: last simple root short; C: last simple root long.
        if family == "B":
            c[rank - 2][rank - 1] = -1
            c[rank - 1][rank - 2] = -2
        else:
            c[rank - 2][rank - 1] = -2
            c[rank - 1][rank - 2] = -1
    elif family == "D":
        for i in range(rank - 3):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 3][rank - 2] = c[rank - 2][rank - 3] = -1
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    elif family == "G":
        c[0][1] = -3
        c[1][0] = -1
    return c


def _degrees(family: str, rank: int) -> Tuple[int, ...]:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return (2, 6)  # G2


def _validate_type(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise UnsupportedTypeError(f"unknown family {family!r}; supported: {FAMILIES}")
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}[family]
    if rank < minimum:
        raise UnsupportedTypeError(f"family {family} needs rank >= {minimum}, got {rank}")
    if family == "G" and rank != 2:
        raise UnsupportedTypeError(f"family G exists at rank 2 only, got {rank}")


def build_root_system(family: str, rank: int) -> RootSystem:
    """Enumerate the full root system of a valid irreducible (family, rank).

    Roots are generated as the closure of the simple roots under all simple
    reflections and listed in (height, lexicographic) order so that reports
    are byte-for-byte reproducible.  The closure stops once it passes the
    2 * sum(d_i - 1) roots the invariant degrees d_i fix, and any other
    count raises RuntimeError: the tables, not the input, are then wrong.
    """
    rank = linalgq.integer(rank, "rank", UnsupportedTypeError)
    _validate_type(family, rank)
    cartan = _cartan(family, rank)
    degrees = _degrees(family, rank)
    count = 2 * sum(d - 1 for d in degrees)  # |roots|, twice the positive ones
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    def reflect(a: Root, i: int) -> Root:
        coef = sum(cartan[i][j] * a[j] for j in range(rank))
        out = list(a)
        out[i] -= coef
        return tuple(out)

    seen = set(simples)
    frontier = list(simples)
    while frontier and len(seen) <= count:
        nxt = []
        for a in frontier:
            for i in range(rank):
                b = reflect(a, i)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    if len(seen) != count:
        raise RuntimeError(f"{family}{rank} closure has {len(seen)} roots, not {count}")

    roots = sorted(seen, key=lambda a: (sum(a), a))
    return RootSystem(
        family=family,
        rank=rank,
        roots=tuple(roots),
        simple_roots=tuple(simples),
        cartan_matrix=tuple(tuple(row) for row in cartan),
        invariant_degrees=degrees,
    )


def pair(rs: RootSystem, theta: RationalCocharacter, root: Sequence[int]) -> Fraction:
    """The canonical pairing r(theta) = <theta, r>, exact rational."""
    if len(theta.coeffs) != rs.rank or len(root) != rs.rank:
        raise ShapeError(
            f"rank mismatch: system rank {rs.rank}, theta {len(theta.coeffs)}, root {len(root)}"
        )
    total = Fraction(0)
    for i, c in enumerate(theta.coeffs):
        if c:
            total += c * sum(rs.cartan_matrix[i][j] * root[j] for j in range(rs.rank))
    return total


def negate(root: Root) -> Root:
    return tuple(-a for a in root)


# ---------------------------------------------------------------------------
# Type-A matrix realization
# ---------------------------------------------------------------------------


def root_to_entry(rs: RootSystem, root: Sequence[int]) -> Tuple[int, int]:
    """Map a type-A root to the matrix position (p, q) of its root space E_pq:
    the differences (a_0, a_1 - a_0, ..., -a_last) of its coordinates are
    e_p - e_q, and any other vector raises ShapeError."""
    if rs.family != "A":
        raise UnsupportedRealizationError("root_to_entry is a type-A operation")
    v = [a - b for a, b in zip((*root, 0), (0, *root))]
    if sorted(v) != [-1] + [0] * (rs.rank - 1) + [1]:
        raise ShapeError(f"{tuple(root)} is not a root of A_{rs.rank}")
    return v.index(1), v.index(-1)


def entry_to_root(rs: RootSystem, p: int, q: int) -> Root:
    """Inverse of root_to_entry: the root whose root space is E_pq."""
    if rs.family != "A":
        raise UnsupportedRealizationError("entry_to_root is a type-A operation")
    if min(p, q) < 0 or max(p, q) > rs.rank:
        raise ShapeError(f"({p}, {q}) is not a matrix position of A_{rs.rank}")
    if p == q:
        raise ShapeError("diagonal positions are torus directions, not roots")
    coords = [0] * rs.rank
    lo, hi, sign = (p, q, 1) if p < q else (q, p, -1)
    for i in range(lo, hi):
        coords[i] = sign
    return tuple(coords)


def cocharacter_to_diagonal(theta: RationalCocharacter) -> List[Fraction]:
    """Diagonal entries (t_0..t_n) of theta in the fundamental representation.

    theta is read as a cocharacter of A_n, n its coordinate count.  Simple
    coroots map to E_ii - E_{i+1,i+1}; the result is traceless and satisfies
    t_p - t_q = pair(theta, root of E_pq) for every off-diagonal position.
    """
    t = [Fraction(0)] * (len(theta.coeffs) + 1)
    for i, c in enumerate(theta.coeffs):
        t[i] += c
        t[i + 1] -= c
    return t
