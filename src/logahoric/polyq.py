"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a coefficient list [c0, c1, ..., cd] with Fraction entries
and no trailing zeros; the zero polynomial is the empty list.  Arithmetic is
dense.  Spectral discriminants reach degree 100 and more with coefficients
of a few hundred bits, so two routines work in integers: `interpolate`
takes forward differences over one common denominator, and `is_squarefree`
first tries a certificate modulo the prime 2^61 - 1, keeping the Euclidean
`gcd` over Q as its exact fallback.
"""

from __future__ import annotations

import math
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


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


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
    """Monic gcd by the Euclidean algorithm over Q (the zero polynomial for
    two zero inputs).  Each remainder is made monic before the next division,
    which keeps coefficient growth in check without changing the result."""
    a, b = list(p), list(q)
    while b:
        _, r = divmod_(a, b)
        a, b = b, monic(r)
    return monic(a)


# A fixed Mersenne prime for the squarefree certificate.
MODULUS = 2**61 - 1


def _gcd_degree_mod(a: List[int], b: List[int]) -> int:
    """Degree of gcd(a, b) over GF(MODULUS); a and b are reduced, trimmed
    coefficient lists, a non-zero."""
    while b:
        inv = pow(b[-1], -1, MODULUS)
        db = len(b) - 1
        while len(a) >= len(b):
            c = a[-1] * inv % MODULUS
            k = len(a) - 1 - db
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % MODULUS
            a.pop()
            trim(a)
        a, b = b, a
    return len(a) - 1


def is_squarefree(p: Sequence[Fraction]) -> bool:
    """Whether p has no repeated factor over Q; constants count as squarefree.

    Certificate first: clear p to integers and reduce modulo the prime
    MODULUS.  When the prime does not divide the leading coefficient and the
    reduction is coprime to its derivative, p is squarefree, exactly: a
    square factor q^2 of p over Z (Gauss's lemma) would reduce to a square
    factor of the same degree.  Every other case, a failed certificate
    included, is decided by the Euclidean gcd over Q.
    """
    if degree(p) <= 0:
        return True
    den = math.lcm(*(c.denominator for c in p))
    red = [c.numerator * (den // c.denominator) % MODULUS for c in p]
    if red[-1]:
        dred = trim([i * c % MODULUS for i, c in enumerate(red)][1:])
        if _gcd_degree_mod(red, dred) == 0:
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


def interpolate(ys: Sequence) -> Coeffs:
    """The polynomial of degree < len(ys) taking the value ys[t] at t = 0, 1, ...

    Newton's forward-difference form on the integer nodes, in ints: with D a
    common denominator of the values and N = len(ys) - 1, the differences
    d_k of D*ys give N! D p(t) = sum_k d_k (N!/k!) t(t-1)...(t-k+1), which is
    expanded by Horner's rule in the falling factorials and divided by N! D
    once at the end.
    """
    ys = [Fraction(y) for y in ys]
    if not ys:
        return []
    den = math.lcm(*(y.denominator for y in ys))
    diffs = [y.numerator * (den // y.denominator) for y in ys]
    # diffs[k] becomes the k-th forward difference at t = 0.
    for k in range(1, len(diffs)):
        for t in range(len(diffs) - 1, k - 1, -1):
            diffs[t] -= diffs[t - 1]
    top = len(diffs) - 1
    # Horner: H_N = d_N, H_k = (t - k) H_{k+1} + (N!/k!) d_k, H_0 = N! D p.
    acc = [diffs[top]]
    weight = 1
    for k in range(top - 1, -1, -1):
        weight *= k + 1  # N!/k!
        shifted = [0] + acc
        for i, c in enumerate(acc):
            shifted[i] -= k * c
        shifted[0] += diffs[k] * weight
        acc = shifted
    total = weight * den
    return trim([Fraction(c, total) for c in acc])
