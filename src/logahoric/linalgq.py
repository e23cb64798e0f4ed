"""Exact matrix helpers over the rationals and over commutative Q-algebras.

Matrices are plain lists of lists.  Most callers work with Fraction entries;
the characteristic-polynomial routine also runs with polynomial entries
(coefficient lists from polyq) and with symbolic Poisson polynomials, so it
is written against a tiny RingOps protocol instead of concrete types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence

from . import polyq

Matrix = List[List[Fraction]]


@dataclass(frozen=True)
class RingOps:
    """The handful of operations Faddeev-LeVerrier needs from a ring."""

    zero: object
    one: object
    add: Callable
    mul: Callable
    neg: Callable
    div_int: Callable  # exact division by a positive Python int


FRACTION_RING = RingOps(
    zero=Fraction(0),
    one=Fraction(1),
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    neg=lambda a: -a,
    div_int=lambda a, k: a / k,
)

POLY_RING = RingOps(
    zero=[],
    one=[Fraction(1)],
    add=polyq.add,
    mul=polyq.mul,
    neg=polyq.neg,
    div_int=lambda p, k: polyq.scale(p, Fraction(1, k)),
)


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat(rows: Sequence[Sequence]) -> Matrix:
    # Fractions are immutable: share them rather than rebuild them.
    return [[c if type(c) is Fraction else Fraction(c) for c in row] for row in rows]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait:
                row_b = b[t]
                row_o = out[i]
                for j in range(m):
                    row_o[j] += ait * row_b[j]
    return out


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def copy(a):
    return [list(row) for row in a]


def _eliminate(m, cols: int) -> List[int]:
    """Gauss-Jordan reduction of m, in place, over its first cols columns.

    Rows are swapped, scaled and combined whole, so columns past cols (an
    augmented identity, say) follow along.  Returns the pivot columns in order.
    """
    rows = len(m)
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(a) -> int:
    """Row rank by fraction-exact Gaussian elimination."""
    return len(_eliminate(mat(a), len(a[0]) if a else 0))


def nullspace(a) -> List[List[Fraction]]:
    """Basis of the right kernel, as a list of vectors."""
    cols = len(a[0]) if a else 0
    m = mat(a)
    pivots = _eliminate(m, cols)
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def inverse(a) -> Matrix:
    n = len(a)
    m = [row + idr for row, idr in zip(mat(a), identity(n))]
    if len(_eliminate(m, n)) < n:
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in m]


def char_coeffs(m, ops: RingOps = FRACTION_RING) -> list:
    """Coefficients [c_0, ..., c_n] of det(lambda*I - M), ascending in lambda.

    Faddeev-LeVerrier recursion; only ring operations plus exact division by
    integers are used, so it runs unchanged over Fractions, polynomial
    coefficient lists, and symbolic polynomials.
    """
    n = len(m)
    zero, one = ops.zero, ops.one

    def ring_mat_mul(a, b):
        out = [[zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for t in range(n):
                ait = a[i][t]
                for j in range(n):
                    out[i][j] = ops.add(out[i][j], ops.mul(ait, b[t][j]))
        return out

    def ring_trace(a):
        acc = zero
        for i in range(n):
            acc = ops.add(acc, a[i][i])
        return acc

    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    aux = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mn = ring_mat_mul(m, aux)
        ck = ops.neg(ops.div_int(ring_trace(mn), k))
        coeffs[n - k] = ck
        aux = [
            [ops.add(mn[i][j], ck) if i == j else mn[i][j] for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def invariant_values(m, ops: RingOps = FRACTION_RING) -> list:
    """Elementary-symmetric invariants e_1..e_n of M: e_i = (-1)^i c_{n-i}."""
    n = len(m)
    cs = char_coeffs(m, ops)
    out = []
    for i in range(1, n + 1):
        c = cs[n - i]
        out.append(ops.neg(c) if i % 2 else c)
    return out


def det(m, ops: RingOps = FRACTION_RING):
    cs = char_coeffs(m, ops)
    c0 = cs[0]
    return ops.neg(c0) if len(m) % 2 else c0
