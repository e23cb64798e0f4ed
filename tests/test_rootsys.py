import random
from fractions import Fraction

import pytest

from logahoric import linalgq
from logahoric.errors import ShapeError, UnsupportedRealizationError, UnsupportedTypeError
from logahoric.rootsys import (
    GroupTag,
    RationalCocharacter,
    basis_matrix,
    build_root_system,
    cocharacter_to_diagonal,
    entry_to_root,
    negate,
    pair,
    root_to_entry,
    trace_form,
)


ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("G", 2): 12,
}


def test_root_counts():
    for (family, rank), count in ROOT_COUNTS.items():
        rs = build_root_system(family, rank)
        assert len(rs.roots) == count, (family, rank)
        # roots come in +/- pairs
        as_set = set(rs.roots)
        assert all(negate(r) in as_set for r in rs.roots)


def test_invariant_degrees():
    assert build_root_system("A", 3).invariant_degrees == (2, 3, 4)
    assert build_root_system("B", 3).invariant_degrees == (2, 4, 6)
    assert build_root_system("C", 2).invariant_degrees == (2, 4)
    assert build_root_system("D", 4).invariant_degrees == (2, 4, 6, 4)
    assert build_root_system("G", 2).invariant_degrees == (2, 6)


def test_cartan_matrix_conventions():
    b2 = build_root_system("B", 2)
    # short root row has the -2 entry: C[i][j] = <alpha_i^vee, alpha_j>
    assert b2.cartan_matrix[0][1] == -1
    assert b2.cartan_matrix[1][0] == -2
    c2 = build_root_system("C", 2)
    assert c2.cartan_matrix[0][1] == -2
    assert c2.cartan_matrix[1][0] == -1
    g2 = build_root_system("G", 2)
    assert g2.cartan_matrix == ((2, -3), (-1, 2))
    a2 = build_root_system("A", 2)
    assert a2.cartan_matrix == ((2, -1), (-1, 2))


def test_rank_minima_rejected():
    with pytest.raises(UnsupportedTypeError):
        build_root_system("B", 1)
    with pytest.raises(UnsupportedTypeError):
        build_root_system("D", 2)
    with pytest.raises(UnsupportedTypeError):
        build_root_system("G", 3)
    with pytest.raises(UnsupportedTypeError):
        build_root_system("E", 6)


def test_pairing_is_linear_in_theta():
    rng = random.Random(21)
    for family, rank in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(family, rank)
        for _ in range(20):
            a = RationalCocharacter.of(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
            )
            b = RationalCocharacter.of(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
            )
            total = RationalCocharacter.of([x + y for x, y in zip(a.coeffs, b.coeffs)])
            r = rng.choice(rs.roots)
            assert pair(rs, total, r) == pair(rs, a, r) + pair(rs, b, r)


def test_pairing_against_cartan_rows():
    # pairing of a simple coroot with a simple root is the Cartan entry
    for family, rank in (("A", 3), ("B", 3), ("C", 3), ("G", 2)):
        rs = build_root_system(family, rank)
        for i in range(rank):
            coroot = RationalCocharacter.of(
                [Fraction(1) if k == i else Fraction(0) for k in range(rank)]
            )
            for j, simple in enumerate(rs.simple_roots):
                assert pair(rs, coroot, simple) == rs.cartan_matrix[i][j]


def test_pair_shape_error():
    rs = build_root_system("A", 2)
    theta = RationalCocharacter.of([Fraction(1)])
    with pytest.raises(ShapeError):
        pair(rs, theta, rs.roots[0])


def test_type_a_entry_round_trip():
    for rank in (1, 2, 3):
        rs = build_root_system("A", rank)
        n = rank + 1
        seen = set()
        for r in rs.roots:
            p, q = root_to_entry(rs, r)
            assert p != q and 0 <= p < n and 0 <= q < n
            assert entry_to_root(rs, p, q) == r
            seen.add((p, q))
        assert len(seen) == n * n - n


def test_entry_map_rejects_non_type_a():
    rs = build_root_system("B", 2)
    with pytest.raises(UnsupportedRealizationError):
        root_to_entry(rs, rs.roots[0])
    with pytest.raises(UnsupportedRealizationError):
        cocharacter_to_diagonal(rs, RationalCocharacter.of([0, 0]))


def test_cocharacter_diagonal_matches_pairings():
    """t_p - t_q must equal the root pairing for the root at (p, q)."""
    rng = random.Random(22)
    for rank in (1, 2, 3):
        rs = build_root_system("A", rank)
        n = rank + 1
        for _ in range(15):
            theta = RationalCocharacter.of(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)]
            )
            t = cocharacter_to_diagonal(rs, theta)
            assert sum(t, Fraction(0)) == 0
            for p in range(n):
                for q in range(n):
                    if p != q:
                        r = entry_to_root(rs, p, q)
                        assert t[p] - t[q] == pair(rs, theta, r)


def test_group_tag():
    tag = GroupTag("A", 2, "SL")
    assert tag.matrix_size == 3
    assert GroupTag("A", 1, "GL").matrix_size == 2
    with pytest.raises(UnsupportedTypeError):
        GroupTag("A", 2, "Sp")
    with pytest.raises(UnsupportedRealizationError):
        GroupTag("B", 2, "SL").matrix_size


def test_trace_form():
    e = basis_matrix(2, 0, 1)
    f = basis_matrix(2, 1, 0)
    assert trace_form(e, f) == 1
    assert trace_form(e, e) == 0
    h = linalgq.mat_sub(basis_matrix(2, 0, 0), basis_matrix(2, 1, 1))
    assert trace_form(h, h) == 2
    with pytest.raises(ShapeError):
        trace_form(e, basis_matrix(3, 0, 1))
