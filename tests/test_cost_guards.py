"""Cost guards: tests that fail when a path does more work, not only when
it gives another value.

Each guard counts work and times nothing: which matrices get ranked, which
gcd-degree routine runs, how large the integers inside an elimination get.
A change that keeps every value but takes the slow route fails here.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from logahoric import higgs, linalgq, parahoric, poisson, polyq
from support import (
    reference_hitchin_hamiltonians,
    reference_incidence_closures,
    reference_rank,
    rnd_field,
)


def test_class_rank_takes_no_fallback_on_a_block_with_a_cyclic_unit_vector(monkeypatch):
    """X = [[0, 1, 0], [1, 0, 0], [-1, -1, 2]] is regular: e_1 is cyclic,
    but none of the all-ones-minus-e_k vectors nor the all-ones vector is.
    _class_rank must find e_1 and rank only 3 x 3 Krylov matrices, never the
    9 x 9 bivector block of the fallback."""
    real_rank, ranked = linalgq.rank, []

    def rank(a):
        ranked.append((len(a), len(a[0])))
        return real_rank(a)

    monkeypatch.setattr(linalgq, "rank", rank)
    x = [[0, 1, 0], [1, 0, 0], [-1, -1, 2]]
    assert poisson._class_rank(x) == 6
    assert ranked == [(3, 3)]
    assert poisson.bivector_rank_at(poisson.MomentValue(sites=(linalgq.mat(x),))) == 6
    assert set(ranked) == {(3, 3)}


# The spectral shapes of the hitchin-spectral benchmark: (n, s) for SL fields.
BENCH_SPECTRAL_SHAPES = [(2, s) for s in range(3, 8)] + [(3, s) for s in range(3, 7)] + [(4, 3)]


def test_is_squarefree_decides_generic_discriminants_by_the_certificate(monkeypatch):
    """On seeded generic SL fields at the benchmark's spectral shapes the
    discriminant is squarefree, and is_squarefree proves it modulo the prime
    alone: _gcd_degree never runs over Q (modulus 0)."""
    real_gcd_degree, moduli = polyq._gcd_degree, []

    def gcd_degree(a, b, modulus=0):
        moduli.append(modulus)
        return real_gcd_degree(a, b, modulus)

    monkeypatch.setattr(polyq, "_gcd_degree", gcd_degree)
    rng = random.Random(2024)
    for n, s in BENCH_SPECTRAL_SHAPES:
        for _ in range(2):
            assert higgs.spectral_curve(rnd_field(rng, n, s)).is_squarefree
    assert moduli and set(moduli) == {polyq.MODULUS}


def test_incidence_walk_starts_from_primitive_columns(monkeypatch):
    """Five condition rows on three unknowns, K = 10^6 times rows with
    entries in 0..3, take the walk.  Divided by their content K, the
    starting columns have entries of at most 3, and every column the walk
    steps to stays small; a walk started from columns multiplied by their
    content would step through entries near K^4.  So no integer the walk
    hands to gcd may exceed the largest input entry, 3K."""
    k = 10**6
    small = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [2, 1, 3], [1, 2, 1]]
    rows = [[k * x for x in row] for row in small]
    seen = []

    def gcd(*xs):
        seen.extend(xs)
        return math.gcd(*xs)

    monkeypatch.setattr(parahoric, "math", SimpleNamespace(gcd=gcd))
    assert parahoric._incidence_walk(rows, 3) == reference_incidence_closures(small, 3)
    assert seen and max(map(abs, seen)) <= 3 * k


def test_incidence_walk_divides_each_step_by_its_content(monkeypatch):
    """Six condition rows on four unknowns, dependent, take the walk.  Each
    column step is divided by its gcd, so no integer handed to gcd exceeds
    2,904 here; a step that multiplied by the gcd instead keeps every value
    but reaches 1,574,640.  The bound sits between the two."""
    rows = [
        [3, -2, -3, 0], [-3, 3, 0, 0], [1, 3, 3, -3],
        [2, 0, -1, 2], [3, -2, 1, -3], [-1, -3, -3, -3],
    ]
    seen = []

    def gcd(*xs):
        seen.extend(xs)
        return math.gcd(*xs)

    monkeypatch.setattr(parahoric, "math", SimpleNamespace(gcd=gcd))
    assert parahoric._incidence_walk(rows, 4) == reference_incidence_closures(rows, 4)
    assert seen and max(map(abs, seen)) <= 10**4


def _spy_on_incidence_rows(monkeypatch):
    """Record (routine, rows) for every call of _incidence_walk and
    linalgq.rank, the routines the rank-2 incidence rows of a degree go to
    once built; returns the list."""
    seen = []

    def spy(name, real):
        def call(rows, *args):
            seen.append((name, rows))
            return real(rows, *args)

        return call

    monkeypatch.setattr(parahoric, "_incidence_walk", spy("walk", parahoric._incidence_walk))
    monkeypatch.setattr(linalgq, "rank", spy("rank", linalgq.rank))
    return seen


def _rank2_degrees(a1, a2, m):
    """The degrees of the rank-2 ladder, top-down, each with its unknown
    count: the length of its incidence rows (a1 >= a2)."""
    degrees = sorted({a1, *range(a2 - m, a2 + 1)}, reverse=True)
    return {a1 - a + 1 + max(a2 - a + 1, 0): a for a in degrees}


def test_incidence_rows_carry_one_power_of_the_point_denominator(monkeypatch):
    """At points x_i = u_i/D the rank-2 rows are cleared once: the entry of
    x_i^k in a row of degree a is u_i^k D^(dim_p - 1 - k) times a flag
    coordinate, dim_p = a1 - a + 1, so no entry exceeds
    max(|u_i|, D)^(dim_p - 1) max(|c_i|, |d_i|).  A row built with
    D^(dim_p - 1 + k) gives the same closures from entries up to
    D^(2 dim_p - 2).  Every full set of rows the enumerator builds is
    checked, whichever routine it goes to."""
    seen = _spy_on_incidence_rows(monkeypatch)
    rng = random.Random(5)
    for _ in range(12):
        m, gap, a2 = rng.randint(2, 5), rng.randint(1, 4), rng.randint(-2, 2)
        a1 = a2 + gap
        flags = [rng.choice([(1, 0), (rng.randint(-3, 3), rng.randint(1, 3))]) for _ in range(m)]
        points = rng.sample([Fraction(k, p) for p in (2, 3, 5, 7) for k in range(1, p)], m)
        weights = [(Fraction(1, 3), 0)] * m
        dx, us = linalgq.integer_form(points)
        seen.clear()
        parahoric.rank2_semistability((a1, a2), flags, weights, points)
        degree_of = _rank2_degrees(a1, a2, m)
        full = [rows for _, rows in seen if len(rows) == m]
        assert full
        for rows in full:
            a = degree_of[len(rows[0])]
            for (c, d), u, row in zip(flags, us, rows):
                bound = max(abs(u), dx) ** (a1 - a) * max(abs(c), abs(d))
                assert max(map(abs, row)) <= bound, (a, row)


def test_rank2_ladder_ranks_each_degree_once_until_its_rows_are_free(monkeypatch):
    """rank2_semistability walks its degrees top-down and ranks the rows of
    a degree at most once, until one rank check finds all m rows of a degree
    independent.  Every lower degree's rows then hold D^k times those rows
    as columns, so they are independent too: none is built, and nothing is
    ranked.  The first free degree is found here by sympy's rank, over
    m = 1..10, gaps 0..32 (at most 8 for seven or more flags, where rows
    that stay dependent take the walk), swapped split degrees, and flags
    mixing (1, 0), (0, 1) and generic directions.

    Flags (1, i + 1) at points 0..m-1 meet only the polynomials
    (x + 1)p(x) - q(x): the rows of degree a2 - k have rank
    min(m, gap + k + 2) on gap + 2k + 2 unknowns, so for m <= gap + 3 the
    first degree with m unknowns or more is free, and one rank check
    serves the whole report."""
    seen = _spy_on_incidence_rows(monkeypatch)
    rng = random.Random(48)
    cases = []
    for _ in range(40):
        m = rng.randint(1, 10)
        gap = rng.randint(0, 32 if m < 7 else 8)
        a2 = rng.randint(-2, 2)
        generic = [(c, d) for c in (1, 2, 3) for d in (-2, -1, 1, 3)]
        flags = [rng.choice([(1, 0), (0, 1), rng.choice(generic)]) for _ in range(m)]
        points = rng.sample([Fraction(k, p) for p in (1, 2, 3) for k in range(-7, 8)], m)
        if len(set(points)) == m:
            cases.append(((a2 + gap, a2), flags, points, False))
    for gap in range(33):
        for m in (1, min(gap + 3, 10)):
            cases.append(((gap, 0), [(1, i + 1) for i in range(m)], None, True))
    for split, flags, points, one_check in cases:
        m = len(flags)
        seen.clear()
        if m % 2:  # given as (a2, a1): the enumerator swaps them and each flag back
            given = split[::-1], [f[::-1] for f in flags]
        else:
            given = split, flags
        parahoric.rank2_semistability(*given, [(0, 0)] * m, points)
        a1, a2 = split
        degree_of = _rank2_degrees(a1, a2, m)
        dx, us = linalgq.integer_form(points or range(m))
        free = None
        for nvars, a in sorted(degree_of.items()):
            dim_p = a1 - a + 1
            rows = [
                [d * u**k * dx ** (dim_p - 1 - k) for k in range(dim_p)]
                + [-c * u**k * dx ** (dim_p - 1 - k) for k in range(nvars - dim_p)]
                for (c, d), u in zip(flags, us)
            ]
            if all(map(any, rows)) and reference_rank(rows, nvars) == m:
                free = a
                break
        built = [degree_of[len(rows[0])] for _, rows in seen]
        ranked = [degree_of[len(rows[0])] for name, rows in seen if name == "rank"]
        assert len(ranked) == len(set(ranked)), (split, flags)
        expected = [a for a in degree_of.values() if free is None or a >= free]
        assert sorted(set(built), reverse=True) == expected, (split, flags)
        if free is not None:
            assert free in ranked, (split, flags)
        if one_check:
            assert len(ranked) == 1, (split, m)


def test_involution_runs_one_kernel_pass_per_hamiltonian(monkeypatch):
    """verify_involution brackets each Hamiltonian with all earlier ones in
    one pass of the kernel: K - 1 passes for K Hamiltonians, none for K <= 1,
    whether the family commutes or not; bracket runs one pass."""
    real_kernel, passes = poisson._bracket_packed, []

    def kernel(*args):
        passes.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(poisson, "_bracket_packed", kernel)
    alg, hams = poisson.hitchin_coefficient_hamiltonians([0, 1, 2, 3], 2)
    x = alg.generator
    for family in (hams, [x(0, 0, 0), x(0, 0, 1), x(1, 1, 0), x(0, 1, 0)]):
        for k in range(len(family) + 1):
            passes.clear()
            poisson.verify_involution(family[:k], alg)
            assert len(passes) == max(k - 1, 0)
    passes.clear()
    assert not poisson.bracket(x(0, 0, 1), x(0, 1, 0), alg).is_zero
    assert len(passes) == 1


def test_involution_keys_grow_with_degree_not_with_the_algebra(monkeypatch):
    """A monomial key is a product of generator primes, so for a Gaudin
    family at the cap n*s = 80 every key of every kernel pass has at most
    (2D - 1) times the bits of the largest prime, D the largest degree: 39
    bits here, against up to 1,599 with a bit field per generator."""
    real_kernel, sizes = poisson._bracket_packed, []

    def kernel(*args):
        acc = real_kernel(*args)
        sizes.extend(map(int.bit_length, acc))
        return acc

    monkeypatch.setattr(poisson, "_bracket_packed", kernel)
    alg, hams = higgs.gaudin_hamiltonians(rnd_field(random.Random(5), 10, 8))
    assert alg.matrix_size * alg.site_count == higgs.GAUDIN_INVOLUTION_MAX_SIZE
    assert poisson.verify_involution(hams, alg).all_commute
    degree = max(sum(e for _, e in mono) for ham in hams for mono, _ in ham.terms)
    bound = (2 * degree - 1) * poisson._primes(alg.gen_count)[-1].bit_length()
    assert sizes and max(sizes) <= bound


def test_hitchin_hamiltonians_take_no_symbolic_ring_arithmetic(monkeypatch):
    """hitchin_coefficient_hamiltonians writes each Hamiltonian down term by
    term: with char_coeffs, invariant_values and PoissonPolynomial's +, -
    and * made to fail, it still builds, at the largest accepted shapes,
    the family of the sampling route (symbolic minor sums and per-monomial
    interpolation), which is computed before the spies go in."""
    cases = [
        (n, [Fraction(k, 3) for k in range(-s, s, 2)], form)
        for n, s in sorted(poisson.HITCHIN_INVOLUTION_MAX_POINTS.items())
        for form in ("SL", "GL")
    ]
    want = [reference_hitchin_hamiltonians(points, n, form) for n, points, form in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic ring arithmetic building Hitchin Hamiltonians")

    monkeypatch.setattr(linalgq, "char_coeffs", refuse)
    monkeypatch.setattr(linalgq, "invariant_values", refuse)
    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(poisson.PoissonPolynomial, name, refuse)
    got = [poisson.hitchin_coefficient_hamiltonians(points, n, form) for n, points, form in cases]
    assert got == want


def test_hitchin_hamiltonians_read_one_packed_value_per_site_tuple(monkeypatch):
    """hitchin_coefficient_hamiltonians interpolates nothing: the
    z-coefficients of each weight product prod_r w_(j_r) are the digits of
    its one value at 2^beta, so polyq.digits runs once per site tuple of
    every degree i, sum_i s^i times, and polyq.interpolate never runs."""
    real, reads, interpolated = polyq.digits, [], []

    def digits(v, beta):
        reads.append(v)
        return real(v, beta)

    monkeypatch.setattr(polyq, "digits", digits)
    monkeypatch.setattr(polyq, "interpolate", lambda *args: interpolated.append(args))
    for n, s in [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4)]:
        for form, first in (("SL", 2), ("GL", 1)):
            reads.clear()
            poisson.hitchin_coefficient_hamiltonians(list(range(s)), n, form)
            assert len(reads) == sum(s**i for i in range(first, n + 1))
    assert not interpolated


def test_spectral_and_hitchin_run_berkowitz_once(monkeypatch):
    """Outside polyq.discriminant, linalgq.char_coeffs runs exactly once per
    spectral_curve call and once per hitchin_map call: on the Lax matrix
    packed at 2^beta, whose characteristic coefficients hold every c_k(z)
    as digits.  spectral_curve takes one polyq.discriminant per
    interpolation node, N + 1 of them for the degree bound
    N = n(n-1) deg A.  Berkowitz on n deg A + 1 samples, or on all N + 1
    nodes, gives the same curve at a higher cost.  char_coeffs calls made
    inside discriminant (its Hankel determinant) are not counted."""
    real_char, real_disc = linalgq.char_coeffs, polyq.discriminant
    runs, discs, depth = [], [], []

    def char_coeffs(m):
        if not depth:
            runs.append(m)
        return real_char(m)

    def discriminant(a):
        discs.append(a)
        depth.append(1)
        try:
            return real_disc(a)
        finally:
            depth.pop()

    monkeypatch.setattr(linalgq, "char_coeffs", char_coeffs)
    monkeypatch.setattr(polyq, "discriminant", discriminant)
    rng = random.Random(42)
    for n in range(1, 5):
        for s in range(1, 7):
            for form in ("SL", "GL"):
                for sum_zero in (True, False):
                    f = rnd_field(rng, n, s, form, sum_zero=sum_zero)
                    runs.clear()
                    higgs.hitchin_map(f)
                    assert len(runs) == 1
                    deg = higgs._degree_bound(f)
                    if n * (n - 1) * deg > higgs.SPECTRAL_MAX_DEGREE:
                        continue
                    runs.clear()
                    discs.clear()
                    higgs.spectral_curve(f)
                    assert len(runs) == 1
                    assert len(discs) == n * (n - 1) * deg + 1


def test_field_is_cleared_to_ints_once(monkeypatch):
    """A field clears its points and residues to ints once, and
    build_field, spectral_curve, hitchin_map, _residue_invariants,
    gaudin_values and gaudin_hamiltonians all read that form:
    linalgq.integer_form sees the residue entries, and the points, once in
    all."""
    real, seen = linalgq.integer_form, []

    def integer_form(values):
        values = list(values)
        seen.append(values)
        return real(values)

    monkeypatch.setattr(linalgq, "integer_form", integer_form)
    rng = random.Random(8)
    for n, s, form in [(2, 4, "SL"), (3, 3, "GL"), (1, 2, "GL")]:
        seen.clear()
        f = rnd_field(rng, n, s, form)
        assert f.regular_at_infinity
        higgs.spectral_curve(f)
        higgs.hitchin_map(f)
        higgs._residue_invariants(f)
        higgs.gaudin_values(f)
        higgs.gaudin_hamiltonians(f)
        entries = [x for res in f.residues for row in res for x in row]
        assert seen.count(entries) == 1
        assert seen.count(list(f.points)) == 1
        # a field made without build_field clears itself on first use
        direct = higgs.LogHiggsField(f.points, f.residues, f.group, None)
        assert direct.cleared == f.cleared
        assert direct.regular_at_infinity


def test_diagram_check_reads_each_residue_once(monkeypatch):
    """quotient_diagram_check evaluates no Lagrange weight: as
    A(x_j) = w_j(x_j) X_j, its residue route runs linalgq.char_coeffs on the
    s cleared int residues R_j, and its moment route on the s moment sites,
    and on nothing else."""
    real, seen = linalgq.char_coeffs, []

    def char_coeffs(m):
        seen.append([list(row) for row in m])
        return real(m)

    def refuse(*args):
        raise AssertionError("quotient_diagram_check evaluated a Lagrange weight")

    rng = random.Random(45)
    fields = [rnd_field(rng, n, s, form, sum_zero=sum_zero)
              for n, s, form, sum_zero in [(2, 1, "SL", True), (2, 3, "GL", False),
                                           (3, 4, "SL", True), (4, 2, "GL", True)]]
    monkeypatch.setattr(linalgq, "char_coeffs", char_coeffs)
    monkeypatch.setattr(polyq, "lagrange_weights", refuse)
    for f in fields:
        n = f.matrix_size
        seen.clear()
        assert higgs.quotient_diagram_check(f).all_equal
        cleared = [[list(r[p:p + n]) for p in range(0, n * n, n)] for r in f.cleared[3]]
        assert seen == cleared + list(poisson.moment_map(f).sites)
        assert all(type(x) is int for m in seen[:f.site_count] for row in m for x in row)
