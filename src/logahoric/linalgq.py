"""Exact matrix helpers over the rationals.

Matrices are plain lists of lists of numbers only: ints and Fractions.
Most callers work with Fraction entries; the characteristic-polynomial
routine is Berkowitz's division-free one, run on int matrices (rational
ones are cleared to ints first), ints in and ints out: `char_coeffs`, `det`
and `invariant_values` are ints for an int matrix, else Fractions.

There is one elimination routine, the fraction-free _echelon in ints:
`rank` counts its pivots and `nullspace` back-substitutes through its rows.
`inverse` runs no elimination; it comes from `char_coeffs` by
Cayley-Hamilton.  `integer_form` is the package's one step that clears
rationals to integers over a common denominator.  `rational` is the one
number reader: `rationals`, `integer`, the library's entry points and the
CLI read user numbers through it, and it refuses bools and floats.
"""

from __future__ import annotations

import math
from collections import abc
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import List, Sequence, Tuple

from .errors import ShapeError

Matrix = List[List[Fraction]]


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def has_shape(value, length: int | None, width: int | None = None) -> bool:
    """Whether value is a sequence of length items (any number for None)
    and, given a width, each item a sequence of width entries: the check
    the library's entry points make on user data before any work.  A str,
    bytes or bytearray is text, not a sequence, at any depth."""
    if not isinstance(value, abc.Sequence) or isinstance(value, (str, bytes, bytearray)):
        return False
    if length is not None and len(value) != length:
        return False
    return width is None or all(has_shape(v, width) for v in value)


def rational(value, where: str, error=ShapeError):
    """value as a rational, the package's one number reader: an int or a
    Fraction as it is, a string as Fraction(str) reads it; anything else
    (bools and floats too) raises error("where: ...")."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, str):
        # The common form "[-]digits[/digits]" is read here in ints, with the
        # \d digits (str.isdecimal) Fraction(str) reads; every other string
        # (spaces, '+', '_', decimals, exponents) goes to Fraction itself.
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if digits.isdecimal() and (den.isdecimal() or not slash):
                return Fraction(int(num), int(den or 1))
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise error(f"{where}: {value!r} is not a rational 'p/q' string")
    if isinstance(value, bool):
        raise error(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise error(f"{where}: floating point is not accepted; write rationals as 'p/q' strings")
    raise error(f"{where}: expected a rational string, got {type(value).__name__}")


def integer(value, where: str, error=ShapeError) -> int:
    """value as an int: an int, or a rational that `rational` reads with
    denominator 1 (Fraction(4, 2), "3"); any other value raises error."""
    if value is None:
        raise error(f"{where}: missing required integer")
    if not isinstance(value, (int, float, str, Fraction)):
        raise error(f"{where}: expected an integer, got {type(value).__name__}")
    q = rational(value, where, error)
    if q.denominator != 1:
        raise error(f"{where}: expected an integer, got {q}")
    return q.numerator


def rationals(values, what: str, error=ShapeError) -> list:
    """values as a list of what `rational` reads, entry i named what[i]; the
    name is built only for an entry that `rational` refuses."""
    out = list(values)
    for i, v in enumerate(out):
        if type(v) is not int and type(v) is not Fraction:
            try:
                out[i] = rational(v, what, error)
            except error:
                rational(v, f"{what}[{i}]", error)  # refuses it again, by name
    return out


def mat(rows: Sequence[Sequence]) -> Matrix:
    # Fractions are immutable: share them rather than rebuild them.
    return [[c if type(c) is Fraction else Fraction(c) for c in row] for row in rows]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    """a*b; an operand with no rows gives a product with no rows or columns."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
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


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def copy(a):
    return [list(row) for row in a]


def integer_form(values) -> Tuple[int, List[int]]:
    """(den, ints) with values[i] == ints[i] / den, den the lcm of the
    denominators (1 for no values).  Each value's numerator and denominator
    are read once, by as_integer_ratio; a value that is not an int or a
    Fraction is converted to a Fraction first."""
    ratios = [(x if type(x) is int or type(x) is Fraction else Fraction(x)).as_integer_ratio()
              for x in values]
    den = math.lcm(*(d for _, d in ratios))
    return den, [p * (den // d) for p, d in ratios]


def _echelon(a) -> List[List[int]]:
    """The pivot rows of a fraction-free (Bareiss) forward elimination of a.

    Rows are cleared by integer_form and zero rows dropped.  Each step
    pivots on the first column with a non-zero entry, removes the pivot row,
    and replaces every other row by (p*row - f*pivot_row) // prev over the
    columns right of the pivot, dropping zero rows; the division is exact
    because every entry is a minor of the cleared matrix.  Each pivot row
    keeps only its entries from its pivot column on, so it is as long as
    the columns it spans, and the rows span the row space of a.
    """
    rows = [row for _, row in map(integer_form, a) if any(row)]
    tops = []
    prev = 1
    while rows:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p = top[0]
        tops.append(top)
        rest = []
        for row in rows:
            f = row[0]
            new = [(p * x - f * y) // prev for x, y in zip(row[1:], top[1:])]
            if any(new):
                rest.append(new)
        rows = rest
        prev = p
    return tops


def rank(a) -> int:
    """Row rank: the number of pivot rows of _echelon."""
    return len(_echelon(a))


def nullspace(a) -> List[List[Fraction]]:
    """Basis of the right kernel: for each non-pivot column f, the kernel
    vector with 1 at f and 0 at the other non-pivot columns, found by
    back-substitution through the rows of _echelon.  It is unique, so this
    is the basis read off the reduced echelon form."""
    cols = len(a[0]) if a else 0
    tops = _echelon(a)
    pivots = {cols - len(top) for top in tops}
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for top in reversed(tops):
            c = cols - len(top)
            v[c] = -sum((x * y for x, y in zip(top[1:], v[c + 1:])), Fraction(0)) / top[0]
        basis.append(v)
    return basis


def char_coeffs(m) -> list:
    """Coefficients [c_0, ..., c_n] of det(lambda*I - M), ascending in lambda,
    for a matrix of numbers only: ints for an int matrix, else Fractions.

    Berkowitz's division-free recursion, from the last diagonal entry up: for
    a trailing block [[a, r], [s, B]], its coefficients, highest first, are
    the lower-triangular Toeplitz matrix with first column
    (1, -a, -r s, -r B s, -r B^2 s, ...) times those of B, all in ints.  A
    matrix with an entry that is not an int is first cleared by integer_form
    to the int matrix d*M, and c_k(M) = c_k(d*M) / d^(n-k); an entry that is
    not a number raises TypeError there.
    """
    n = len(m)
    if set(map(type, chain.from_iterable(m))) <= {int}:
        return _berkowitz(m)[::-1] + [1]
    d, flat = integer_form(x for row in m for x in row)
    low = _berkowitz([flat[i * n:(i + 1) * n] for i in range(n)])
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(reversed(low))] + [Fraction(1)]


def _berkowitz(m) -> list:
    """c_(n-1), ..., c_0 of det(lambda*I - M), for an int matrix M, by the
    recursion of char_coeffs."""
    n = len(m)
    low: list = []  # c_(k-1), ..., c_0 of the current trailing block of size k
    for i in range(n - 1, -1, -1):
        row, col, block = m[i][i + 1:], [r[i] for r in m[i + 1:]], [r[i + 1:] for r in m[i + 1:]]
        us = [m[i][i]]  # a, r s, r B s, ..., r B^(k-1) s
        for k in range(len(low)):
            if k:
                col = [sum(map(mul, r, col)) for r in block]
            us.append(sum(map(mul, row, col)))
        acc = [u + sum(map(mul, reversed(us[:k]), low)) for k, u in enumerate(us)]
        low = [c - a for c, a in zip(low, acc)] + [-acc[-1]]
    return low


def invariant_values(m) -> list:
    """Elementary-symmetric invariants e_1..e_n of M: e_i = (-1)^i c_{n-i}."""
    n = len(m)
    cs = char_coeffs(m)
    return [-cs[n - i] if i % 2 else cs[n - i] for i in range(1, n + 1)]


def det(m):
    c0 = char_coeffs(m)[0]
    return -c0 if len(m) % 2 else c0


def inverse(a) -> Matrix:
    """A^-1 by Cayley-Hamilton on the int matrix B = d*A of integer_form,
    from the char_coeffs c_0..c_n of B:

        A^-1 = d*B^-1 = -d*(B^(n-1) + c_(n-1) B^(n-2) + ... + c_1 I) / c_0,

    with the bracket summed by Horner's rule in ints and one Fraction made
    per entry.  Raises ArithmeticError iff c_0 = (-1)^n det B is zero.
    """
    n = len(a)
    d, flat = integer_form(x for row in a for x in row)
    b = [flat[i * n:(i + 1) * n] for i in range(n)]
    low = _berkowitz(b)  # c_(n-1), ..., c_0
    if n and not low[-1]:
        raise ArithmeticError("matrix is singular")
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in low[:-1]:
        out = [[sum(map(mul, row, col)) for col in zip(*out)] for row in b]
        for i in range(n):
            out[i][i] += c
    return [[Fraction(-d * x, low[-1]) for x in row] for row in out]
