"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a coefficient list [c0, c1, ..., cd] with Fraction entries
and no trailing zeros; the zero polynomial is the empty list.  Everything
here is plain dense arithmetic: the degrees appearing in this package stay
small (a few dozen), so no sparse or modular tricks are needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Coeffs = List[Fraction]


def poly(coeffs: Iterable) -> Coeffs:
    """Build a normalized coefficient list from any iterable of rationals."""
    out = [Fraction(c) for c in coeffs]
    return trim(out)


def trim(coeffs: Coeffs) -> Coeffs:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(p: Sequence[Fraction]) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def is_zero(p: Sequence[Fraction]) -> bool:
    return len(p) == 0


def constant(c) -> Coeffs:
    c = Fraction(c)
    return [c] if c else []


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Sequence[Fraction]) -> Coeffs:
    return [-c for c in p]


def sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    return add(p, neg(q))


def mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p: Sequence[Fraction], c) -> Coeffs:
    c = Fraction(c)
    if not c:
        return []
    return [a * c for a in p]


def evaluate(p: Sequence[Fraction], x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Sequence[Fraction]) -> Coeffs:
    return trim([c * i for i, c in enumerate(p)][1:])


def divmod_(p: Sequence[Fraction], q: Sequence[Fraction]) -> Tuple[Coeffs, Coeffs]:
    """Euclidean division p = quot*q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q):
        c = rem[-1] / lead
        k = len(rem) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        trim(rem)
    return trim(quot), trim(rem)


def monic(p: Sequence[Fraction]) -> Coeffs:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    a, b = list(p), list(q)
    while b:
        _, r = divmod_(a, b)
        a, b = b, r
    return monic(a)


def is_squarefree(p: Sequence[Fraction]) -> bool:
    if degree(p) <= 0:
        # Constants carry no repeated roots; treat them as squarefree.
        return True
    return degree(gcd(p, derivative(p))) == 0


def resultant(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Resultant via the subresultant-free Euclidean recursion over Q."""
    a, b = list(p), list(q)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = degree(a), degree(b)
        if db == 0:
            return res * b[0] ** da
        _, r = divmod_(a, b)
        if not r:
            return Fraction(0)
        dr = degree(r)
        res *= Fraction(-1) ** (da * db) * b[-1] ** (da - dr)
        a, b = b, r


def discriminant(p: Sequence[Fraction]) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p)."""
    d = degree(p)
    if d < 1:
        raise ArithmeticError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    sign = Fraction(-1) ** (d * (d - 1) // 2)
    return sign * resultant(p, derivative(p)) / p[-1]


def from_roots(roots: Iterable) -> Coeffs:
    out: Coeffs = [Fraction(1)]
    for r in roots:
        out = mul(out, [-Fraction(r), Fraction(1)])
    return out


def to_string(p: Sequence[Fraction], var: str = "z") -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts)
