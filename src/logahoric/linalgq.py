"""Exact matrix helpers over the rationals.

Matrices are plain lists of lists.  Most callers work with Fraction entries;
the characteristic-polynomial routine is written with `+`, `*` and
multiplication by a Fraction only, so it also runs on matrices of symbolic
Poisson polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[Fraction]]


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


def integer_row(row) -> List[int]:
    """The rational row times the lcm of its denominators, as Python ints."""
    row = [x if type(x) is Fraction else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rank(a) -> int:
    """Row rank by fraction-free (Bareiss) forward elimination in ints.

    Each row is scaled by the lcm of its denominators, which leaves the rank
    alone; zero rows are dropped.  Each step pivots on the first column with
    a non-zero entry, removes the pivot row, and replaces every other row by
    (p*row - f*pivot_row) // prev, dropping the pivot column; the division is
    exact because every entry is a minor of the cleared matrix.
    """
    rows = [row for row in map(integer_row, a) if any(row)]
    r = 0
    prev = 1
    while rows:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p = top[0]
        r += 1
        rest = []
        for row in rows:
            f = row[0]
            new = [(p * x - f * y) // prev for x, y in zip(row[1:], top[1:])]
            if any(new):
                rest.append(new)
        rows = rest
        prev = p
    return r


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


def char_coeffs(m) -> list:
    """Coefficients [c_0, ..., c_n] of det(lambda*I - M), ascending in lambda.

    Faddeev-LeVerrier recursion from mn = M: c_{n-k} = -tr(mn)/k, then
    mn = M (mn + c_{n-k} I).  Only `+`, `*` and multiplication by a Fraction
    are applied to the entries, and no ring zero or one is needed (c_n is
    Fraction(1)), so the same body runs over Fractions and over symbolic
    Poisson polynomials.
    """
    n = len(m)
    coeffs = [Fraction(1)] * (n + 1)
    mn = m
    for k in range(1, n + 1):
        diag = [mn[i][i] for i in range(n)]
        c = coeffs[n - k] = sum(diag[1:], diag[0]) * Fraction(-1, k)
        if k == n:
            break
        aux = [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(mn)]
        mn = [
            [sum((r[t] * aux[t][j] for t in range(1, n)), r[0] * aux[0][j]) for j in range(n)]
            for r in m
        ]
    return coeffs


def invariant_values(m) -> list:
    """Elementary-symmetric invariants e_1..e_n of M: e_i = (-1)^i c_{n-i}."""
    n = len(m)
    cs = char_coeffs(m)
    return [-cs[n - i] if i % 2 else cs[n - i] for i in range(1, n + 1)]


def det(m):
    c0 = char_coeffs(m)[0]
    return -c0 if len(m) % 2 else c0
