"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a coefficient list [c0, c1, ..., cd] with Fraction entries
and no trailing zeros; the zero polynomial is the empty list.  Arithmetic is
dense.  The spectral route takes the discriminant of many characteristic
polynomials and interpolates a discriminant of degree 100 and more with
coefficients of a few hundred bits, so its three routines work in integers:
`discriminant` of an int list is the int Hankel determinant of Newton power
sums (linalgq.det), `interpolate` (which serves that discriminant only)
takes int values over one denominator and gives int coefficients over one,
and `is_squarefree` runs one integer gcd-degree routine on those ints,
modulo 2^61 - 1 as a certificate and over Q as fallback.  Every other int
polynomial is read from one value at 2^beta by `digits`, beta from
`kronecker_beta` and `weight_norms` bounding the lagrange_weights in it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import List, Sequence, Tuple

from . import linalgq

Coeffs = List[Fraction]


def trim(coeffs: Coeffs) -> Coeffs:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(p: Sequence[Fraction]) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def evaluate(p: Sequence[Fraction], x) -> Fraction:
    x = linalgq.rational(x, "x")
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Sequence[Fraction]) -> Coeffs:
    return trim([c * i for i, c in enumerate(p)][1:])


def lagrange_weights(xs: Sequence, t) -> list:
    """[w_0(t), ..., w_{s-1}(t)] with w_j(t) = prod_{k != j}(t - x_k), so
    that A(t) = sum_j w_j(t) X_j: the products of the factors t - x_k before
    and after k = j, with no division, so at t = x_j only w_j is non-zero."""
    diffs = [t - x for x in xs]
    before = accumulate(diffs[:-1], mul, initial=1)
    after = list(accumulate(reversed(diffs[1:]), mul, initial=1))
    return [b * a for b, a in zip(before, reversed(after))]


def weight_norms(xs: Sequence[int]) -> List[int]:
    """[W_0, ..., W_{s-1}], W_j = prod_(k != j)(1 + |x_k|), the
    lagrange_weights of the -1 - |x_k| at t = 0: a bound on the 1-norm (the
    sum of absolute coefficients) of w_j = prod_(k != j)(t - x_k), as the
    1-norm of a product is at most the product of the 1-norms."""
    return lagrange_weights([-1 - abs(x) for x in xs], 0)


def kronecker_beta(bound: int) -> int:
    """The least beta at which `digits` reads back, trimmed, every int
    polynomial with coefficients at most bound >= 1 in size from its value
    at 2^beta (Kronecker substitution; Harvey, J. Symbolic Comput. 44,
    2009): each is one balanced digit, as |c| <= bound < 2^(beta-1), and
    2^(beta-2) <= bound makes no smaller beta do."""
    return bound.bit_length() + 1


def digits(v: int, beta: int) -> List[int]:
    """The balanced base-2^beta digits of the int v, beta >= 2 (else
    ValueError), lowest first, up to the last non-zero one: v = sum_i d_i
    2^(beta i), -2^(beta-1) <= d_i < 2^(beta-1), and [] for v = 0."""
    if beta < 2:
        raise ValueError(f"digits needs beta >= 2, got {beta}")
    half = 1 << beta - 1
    mask = (1 << beta) - 1
    out = []
    while v:
        v += half
        out.append((v & mask) - half)
        v >>= beta
    return out


# A fixed Mersenne prime for the squarefree certificate.
MODULUS = 2**61 - 1


def _gcd_degree(a: List[int], b: List[int], modulus: int = 0) -> int:
    """Degree of gcd(a, b) over GF(modulus), or over Q for modulus 0, of
    trimmed int lists, a non-zero (reduced, given a modulus).  A primitive
    pseudo-remainder sequence (Collins 1967; Brown 1971): each remainder is
    taken in ints by steps a <- lc(b)*a - lc(a)*z^k*b, then normalised by
    reduction modulo the prime or, over Q, by division by its content; by
    Gauss's lemma neither changes the gcd's degree."""
    while b:
        lead, db = b[-1], len(b) - 1
        while len(a) > db:
            c, k = a[-1], len(a) - 1 - db
            a = trim([lead * x for x in a[:k]] + [lead * x - c * y for x, y in zip(a[k:-1], b)])
        if modulus:
            a = [x % modulus for x in a]
        else:
            g = math.gcd(*a)
            if g > 1:
                a = [x // g for x in a]
        a, b = b, trim(a)
    return len(a) - 1


def is_squarefree(p: Sequence) -> bool:
    """Whether p has no repeated factor over Q; constants count as squarefree.

    p is an int list a, or cleared to one.  Certificate first: when the prime
    MODULUS does not divide lc(a) and the reduction of a is coprime to its
    derivative, p is squarefree, exactly: a square factor q^2 of a over Z
    (Gauss's lemma) would reduce to one of the same degree.  Every other
    case is decided by the degree of gcd(a, a') over Q.
    """
    if degree(p) <= 0:
        return True
    a = p if set(map(type, p)) <= {int} else linalgq.integer_form(p)[1]
    da = derivative(a)
    red = [c % MODULUS for c in a]
    if red[-1] and _gcd_degree(red, trim([c % MODULUS for c in da]), MODULUS) == 0:
        return True
    return _gcd_degree(a, da) == 0


def discriminant(a: Sequence[int]) -> int:
    """disc(a) = lc^(2d-2) prod_(i<j) (r_i - r_j)^2, an int for an int list
    a = a_0 + ... + a_d z^d: Q(y) = a_d^(d-1) a(y/a_d) is monic in ints with
    the roots a_d r_i, and disc(a) is disc(Q), the int determinant of the
    Hankel matrix (s_(i+j)) of the Newton power sums s_k of its roots
    (Hermite; linalgq.det), divided exactly by a_d^((d-1)(d-2)).  A rational
    list P/den, cleared by integer_form, gives the Fraction disc(P)/den^(2d-2).
    """
    d = degree(a)
    if d < 1:
        raise ArithmeticError("discriminant needs degree >= 1")
    if set(map(type, a)) - {int}:
        den, ints = linalgq.integer_form(a)
        return Fraction(discriminant(ints), den ** (2 * d - 2))
    lead = a[d]
    b = [c * lead ** (d - 1 - k) for k, c in enumerate(a[:d])]  # Q = y^d + sum b[k] y^k
    # Newton: s_k = -(sum_(i = 1..min(k-1, d)) b[d-i] s_(k-i) + [k <= d] k b[d-k])
    sums = [d]
    for k in range(1, 2 * d - 1):
        r = min(k - 1, d)  # terms in the sum
        acc = sum(map(mul, b[d - r:], sums[k - r:]))
        sums.append(-acc - k * b[d - k] if k <= d else -acc)
    return linalgq.det([sums[i:i + d] for i in range(d)]) // lead ** ((d - 1) * (d - 2))


def interpolate(ys: Sequence[int], den: int) -> Tuple[List[int], int]:
    """(cs, N! den), the trimmed int coefficients cs of N! den p, for the
    polynomial p of degree < len(ys) taking the value ys[t]/den at t = 0,
    1, ... for int values ys: Newton's forward-difference form, in ints.
    With N = len(ys) - 1, the differences d_k of ys give N! den p(t) =
    sum_k d_k (N!/k!) t(t-1)...(t-k+1), expanded by Horner's rule."""
    if not ys:
        return [], den
    diffs, row = [], list(ys)  # diffs[k]: the k-th forward difference at t = 0
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    top = len(diffs) - 1
    # Horner: H_N = d_N, H_k = (t - k) H_{k+1} + (N!/k!) d_k, H_0 = N! den p.
    acc = [diffs[top]]
    weight = 1
    for k in range(top - 1, -1, -1):
        weight *= k + 1  # N!/k!
        acc = ([diffs[k] * weight - k * acc[0]]
               + [b - k * c for b, c in zip(acc, acc[1:])] + [acc[-1]])
    return trim(acc), weight * den
