"""Cost guards: tests that fail when a path does more work, not only when
it gives another value.

Each guard counts work and times nothing: which matrices get ranked, which
gcd-degree routine runs, how large the integers inside an elimination get.
A change that keeps every value but takes the slow route fails here.
"""

import math
import random
from types import SimpleNamespace

from logahoric import higgs, linalgq, parahoric, poisson, polyq
from support import reference_incidence_closures, rnd_field


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
    assert parahoric._incidence_closures(rows, 3) == reference_incidence_closures(small, 3)
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
    assert parahoric._incidence_closures(rows, 4) == reference_incidence_closures(rows, 4)
    assert seen and max(map(abs, seen)) <= 10**4
