import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logahoric import linalgq, parahoric
from logahoric.errors import (
    DivisorError,
    FiltrationError,
    InvalidReductionError,
    NormalizationError,
    ShapeError,
    TraceError,
    UnsupportedRealizationError,
)
from logahoric.parahoric import (
    MEMBER_NONE,
    MEMBER_PARAHORIC,
    MEMBER_PERP,
    MEMBER_PLUS,
    FACET_HYPERSPECIAL,
    FACET_IWAHORI,
    FACET_PROPER,
    RANK2_MAX_FLAGS,
    RANK2_MAX_GAP,
    VERDICT_BOUNDARY,
    VERDICT_FAIL,
    VERDICT_STABLE,
    ParahoricDatum,
    ReductionDatum,
    analyze_weight,
    laurent_to_loop,
    levi_evaluate,
    levi_project,
    loop_bracket,
    loop_element,
    loop_to_laurent,
    membership,
    parahoric_degree,
    rank2_semistability,
    slope_test,
)
from logahoric.rootsys import RationalCocharacter, build_root_system, negate, pair
from support import (
    loop_add,
    loop_sub,
    loop_zero,
    mat_eq,
    rank2_reduction,
    reference_incidence_closures,
    reference_rank,
    reference_rank2,
    reference_weight_datum,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
ALPHA = (1,)
NEG_ALPHA = (-1,)


def wt(rs, *coeffs) -> ParahoricDatum:
    return analyze_weight(rs, RationalCocharacter.of([Fraction(c) for c in coeffs]))


def rnd_theta(rng, rank):
    return RationalCocharacter.of(
        [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rank)]
    )


# -- analyze_weight ---------------------------------------------------------


def test_zero_weight_is_hyperspecial():
    d = wt(A1, 0)
    assert d.jumps == {ALPHA: 0, NEG_ALPHA: 0}
    assert set(d.levi_roots) == {ALPHA, NEG_ALPHA}
    assert d.facet_class == FACET_HYPERSPECIAL


def test_quarter_weight_is_iwahori():
    d = wt(A1, Fraction(1, 4))
    assert d.jumps[ALPHA] == 0
    assert d.jumps[NEG_ALPHA] == 1
    assert d.levi_roots == ()
    assert d.facet_class == FACET_IWAHORI
    assert d.plus_grading[ALPHA] == 0
    assert d.plus_grading[NEG_ALPHA] == 1


def test_half_weight_is_hyperspecial_with_shift():
    d = wt(A1, Fraction(1, 2))
    assert d.jumps[ALPHA] == -1
    assert d.jumps[NEG_ALPHA] == 1
    assert set(d.levi_roots) == {ALPHA, NEG_ALPHA}
    assert d.facet_class == FACET_HYPERSPECIAL
    # Levi channels step up by one inside the radical
    assert d.plus_grading[ALPHA] == 0
    assert d.plus_grading[NEG_ALPHA] == 2


def test_proper_parahoric_facet():
    # A2 weight integral on one root pair only
    d = wt(A2, Fraction(1, 2), 0)
    levi = set(d.levi_roots)
    assert levi and levi != set(A2.roots)
    assert d.facet_class == FACET_PROPER


def test_jump_sum_dichotomy_random():
    """m_r + m_{-r} is 0 on Levi roots and 1 elsewhere, over three families."""
    rng = random.Random(501)
    for family, rank in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(family, rank)
        for _ in range(60):
            theta = rnd_theta(rng, rank)
            d = analyze_weight(rs, theta)
            for r in rs.roots:
                total = d.jumps[r] + d.jumps[negate(r)]
                if pair(rs, theta, r).denominator == 1:
                    assert r in set(d.levi_roots)
                    assert total == 0
                else:
                    assert r not in set(d.levi_roots)
                    assert total == 1


PAIRING_SYSTEMS = [
    build_root_system(f, r)
    for f, r in (("A", 4), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G", 2))
]
THETA_COORDS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def weights_on_walls(draw):
    """(rs, theta, on): theta with coordinates of denominator up to 12,
    negative ones included, moved onto the facet walls r(theta) = k of up
    to two drawn roots r (the list on), k an integer in -3..3.  Each wall
    is the linear condition c . v = k on the coordinates c, v_i the Cartan
    row i applied to r; it is reduced against the walls before it and
    solved for one pivot coordinate, the last wall first."""
    rs = draw(st.sampled_from(PAIRING_SYSTEMS))
    coeffs = draw(st.lists(THETA_COORDS, min_size=rs.rank, max_size=rs.rank))
    walls, on = [], []  # (pivot, v, k), v zero at the pivots before it
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.sampled_from(rs.roots))
        v = [Fraction(sum(map(mul, crow, r))) for crow in rs.cartan_matrix]
        k = Fraction(draw(st.integers(-3, 3)))
        for i, w, kw in walls:
            f = v[i] / w[i]
            v = [x - f * y for x, y in zip(v, w)]
            k -= f * kw
        pivots = [i for i, x in enumerate(v) if x]
        if pivots:  # else r(theta) is fixed by the walls before it
            walls.append((draw(st.sampled_from(pivots)), v, k))
            on.append(r)
    for i, v, k in reversed(walls):
        coeffs[i] = (k - sum(c * x for j, (c, x) in enumerate(zip(coeffs, v)) if j != i)) / v[i]
    return rs, RationalCocharacter.of(coeffs), on


@given(weights_on_walls())
def test_analyze_weight_matches_scalar_pairing(case):
    """analyze_weight's integer route (theta cleared once, one divmod per
    root) gives the jumps, Levi roots, radical grading and facet class of
    the scalar rootsys.pair reference, on A4, B2, B4, C3, D4, D5 and G2,
    for theta off and on facet walls."""
    rs, theta, on = case
    d = analyze_weight(rs, theta)
    jumps, levi, plus, facet = reference_weight_datum(rs, theta)
    assert list(d.jumps.items()) == list(jumps.items())
    assert d.levi_roots == levi
    assert list(d.plus_grading.items()) == list(plus.items())
    assert d.facet_class == facet
    assert all(type(m) is int for m in (*d.jumps.values(), *d.plus_grading.values()))
    assert set(on) <= set(d.levi_roots)


# -- membership -------------------------------------------------------------


def test_membership_examples():
    d = wt(A1, Fraction(1, 4))
    e0 = loop_element(A1, roots={(ALPHA, 0): 1})
    # at the Iwahori point every admissible root channel already sits in the
    # radical, the torus alone survives to the Levi
    assert membership(e0, d) == MEMBER_PLUS
    f0 = loop_element(A1, roots={(NEG_ALPHA, 0): 1})
    assert membership(f0, d) == MEMBER_PERP
    f1 = loop_element(A1, roots={(NEG_ALPHA, 1): 1})
    assert membership(f1, d) == MEMBER_PLUS
    t1 = loop_element(A1, torus={1: [Fraction(1)]})
    assert membership(t1, d) == MEMBER_PLUS
    t0 = loop_element(A1, torus={0: [Fraction(1)]})
    assert membership(t0, d) == MEMBER_PARAHORIC
    deep = loop_element(A1, roots={(NEG_ALPHA, -1): 1})
    assert membership(deep, d) == MEMBER_NONE
    assert membership(loop_element(A1, torus={-1: [1]}), d) == MEMBER_NONE
    assert membership(loop_zero(A1), d) == MEMBER_PLUS


def test_membership_bottom_exponent_is_admissible():
    """A channel term at its jump exponent always belongs to the parahoric."""
    rng = random.Random(77)
    for _ in range(40):
        d = analyze_weight(A1, rnd_theta(rng, 1))
        r = rng.choice(A1.roots)
        x = loop_element(A1, roots={(r, d.jumps[r]): 1})
        assert membership(x, d) in (MEMBER_PLUS, MEMBER_PARAHORIC)


# -- levi projection / evaluation -------------------------------------------


def test_levi_project_constant_torus():
    d = wt(A1, 0)
    x = loop_element(A1, torus={0: [3], 1: [1]})
    proj = levi_project(x, d)
    assert proj == loop_element(A1, torus={0: [3]})


def test_levi_project_iwahori_torus_only():
    d = wt(A1, Fraction(1, 4))
    x = loop_element(A1, roots={(ALPHA, 0): 1, (ALPHA, 1): 1, (NEG_ALPHA, 1): 1})
    assert levi_project(x, d).is_zero


def test_levi_project_keeps_shifted_channels():
    d = wt(A1, Fraction(1, 2))
    x = loop_element(
        A1,
        torus={0: [Fraction(3, 2)]},
        roots={(ALPHA, -1): 1, (NEG_ALPHA, 1): 1},
    )
    assert levi_project(x, d) == x
    # adding a radical term changes nothing in the projection
    y = loop_element(A1, roots={(ALPHA, 0): 5})
    assert levi_project(loop_add(x, y), d) == x


def test_levi_project_rejects_outsiders():
    d = wt(A1, Fraction(1, 4))
    outside = loop_element(A1, roots={(NEG_ALPHA, 0): 1})
    with pytest.raises(FiltrationError):
        levi_project(outside, d)


def test_levi_evaluate_examples():
    d0 = wt(A1, 0)
    h = loop_element(A1, torus={0: [1]})
    assert levi_evaluate(h, d0) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]

    d = wt(A1, Fraction(1, 2))
    x = loop_element(
        A1, torus={0: [3]}, roots={(ALPHA, -1): 1, (NEG_ALPHA, 1): 1}
    )
    assert levi_evaluate(x, d) == [[Fraction(3), Fraction(1)], [Fraction(1), Fraction(-3)]]
    assert levi_evaluate(loop_zero(A1), d) == linalgq.zeros(2)


def test_levi_evaluate_rejects_radical_terms():
    d = wt(A1, Fraction(1, 2))
    x = loop_element(A1, roots={(ALPHA, 0): 1})  # admissible but above the slice
    with pytest.raises(FiltrationError):
        levi_evaluate(x, d)


def test_levi_decomposition_random():
    """x minus its Levi projection always lands in the radical."""
    rng = random.Random(303)
    for _ in range(60):
        rs = rng.choice((A1, A2))
        d = analyze_weight(rs, rnd_theta(rng, rs.rank))
        roots = {}
        for r in rs.roots:
            for bump in range(rng.randint(0, 2)):
                roots[(r, d.jumps[r] + bump)] = rng.randint(-3, 3)
        torus = {k: [rng.randint(-2, 2) for _ in range(rs.rank)] for k in range(2)}
        x = loop_element(rs, torus, roots)
        assert membership(x, d) in (MEMBER_PLUS, MEMBER_PARAHORIC)
        rest = loop_sub(x, levi_project(x, d))
        assert membership(rest, d) == MEMBER_PLUS


def test_levi_evaluate_is_bracket_homomorphism():
    rng = random.Random(304)
    for _ in range(40):
        rs = rng.choice((A1, A2))
        d = analyze_weight(rs, rnd_theta(rng, rs.rank))
        levi = list(d.levi_roots)

        def rnd_levi_element():
            roots = {}
            for r in levi:
                if rng.random() < 0.6:
                    roots[(r, d.jumps[r])] = Fraction(rng.randint(-3, 3))
            torus = {0: [rng.randint(-2, 2) for _ in range(rs.rank)]}
            return loop_element(rs, torus, roots)

        x, y = rnd_levi_element(), rnd_levi_element()
        lhs = levi_evaluate(levi_project(loop_bracket(x, y), d), d)
        rhs = linalgq.commutator(levi_evaluate(x, d), levi_evaluate(y, d))
        assert mat_eq(lhs, rhs)


def test_bracket_ideal_property():
    """Brackets keep the parahoric; against the radical they deepen into it."""
    rng = random.Random(305)
    for _ in range(50):
        rs = rng.choice((A1, A2))
        d = analyze_weight(rs, rnd_theta(rng, rs.rank))

        def rnd_member(plus: bool):
            roots = {}
            for r in rs.roots:
                if rng.random() < 0.5:
                    base = d.plus_grading[r] if plus else d.jumps[r]
                    roots[(r, base + rng.randint(0, 1))] = rng.randint(-2, 2)
            torus = {}
            base = 1 if plus else 0
            torus[base + rng.randint(0, 1)] = [
                rng.randint(-2, 2) for _ in range(rs.rank)
            ]
            return loop_element(rs, torus, roots)

        x = rnd_member(plus=False)
        y = rnd_member(plus=False)
        yplus = rnd_member(plus=True)
        assert membership(loop_bracket(x, y), d) in (MEMBER_PLUS, MEMBER_PARAHORIC)
        assert membership(loop_bracket(x, yplus), d) == MEMBER_PLUS


def test_laurent_round_trip():
    rng = random.Random(306)
    for _ in range(30):
        rs = rng.choice((A1, A2))
        roots = {}
        for r in rs.roots:
            if rng.random() < 0.5:
                roots[(r, rng.randint(-2, 2))] = rng.randint(-3, 3)
        torus = {rng.randint(-1, 1): [rng.randint(-2, 2) for _ in range(rs.rank)]}
        x = loop_element(rs, torus, roots)
        assert laurent_to_loop(rs, loop_to_laurent(x)) == x


def test_laurent_to_loop_rejects_trace():
    m = {0: [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]}
    with pytest.raises(TraceError):
        laurent_to_loop(A1, m)


B2 = build_root_system("B", 2)

LOOP_REFUSALS = {
    "torus-length": (lambda: loop_element(A1, torus={0: [1, 2]}), ShapeError, "length 1"),
    "non-root": (lambda: loop_element(A1, roots={((2,), 0): 1}), ShapeError, "not a root of A1"),
    "mixed-systems": (
        lambda: loop_bracket(loop_zero(A1), loop_zero(A2)),
        ShapeError,
        "mixed root systems: A1 vs A2",
    ),
    "to-laurent-B2": (lambda: loop_to_laurent(loop_zero(B2)), UnsupportedRealizationError, "type A"),
    "to-loop-B2": (lambda: laurent_to_loop(B2, {}), UnsupportedRealizationError, "type A"),
    "levi-evaluate-B2": (
        lambda: levi_evaluate(loop_zero(B2), wt(B2, 0, 0)),
        UnsupportedRealizationError,
        "type-A",
    ),
    "laurent-size": (
        lambda: laurent_to_loop(A1, {3: linalgq.zeros(3)}),
        ShapeError,
        "coefficient at z\\^3 must be 2x2",
    ),
}


@pytest.mark.parametrize("case", list(LOOP_REFUSALS))
def test_loop_layer_refusals(case):
    call, error, message = LOOP_REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


# -- degrees and slopes ------------------------------------------------------


def test_parahoric_degree_examples():
    assert parahoric_degree(ReductionDatum(-1, 1, 0, 2, [Fraction(1, 2)])) == Fraction(-1, 2)
    assert parahoric_degree(ReductionDatum(0, 1, 0, 2)) == 0
    assert parahoric_degree(
        ReductionDatum(2, 1, 0, 2, [Fraction(1, 3), Fraction(-1, 4)])
    ) == Fraction(25, 12)


def test_slope_test_examples():
    assert slope_test(ReductionDatum(0, 1, 0, 2)) == VERDICT_BOUNDARY
    assert (
        slope_test(ReductionDatum(0, 1, 0, 2, [Fraction(1, 4)])) == VERDICT_FAIL
    )
    assert slope_test(ReductionDatum(-1, 1, 0, 2)) == VERDICT_STABLE


def test_slope_test_with_total_datum():
    sub = ReductionDatum(0, 1, 0, 2, [Fraction(1, 4)], [Fraction(1, 4), Fraction(0)])
    assert slope_test(sub) == VERDICT_FAIL


def test_slope_test_rank_bounds():
    with pytest.raises(InvalidReductionError):
        slope_test(ReductionDatum(0, 2, 0, 2))
    with pytest.raises(InvalidReductionError):
        slope_test(ReductionDatum(0, 0, 0, 2))


@pytest.mark.parametrize("bad", [Fraction(3, 2), "1/2", "x", 1.5, None, 2.0, True])
def test_reduction_degrees_and_ranks_must_be_integers(bad):
    """A degree or rank that is not an integer is refused, not truncated
    (3/2 once became sub_degree 1), read from a float or a bool, or left
    to raise a bare ValueError."""
    for i, name in enumerate(["sub_degree", "sub_rank", "total_degree", "total_rank"]):
        args = [0, 1, 0, 2]
        args[i] = bad
        with pytest.raises(InvalidReductionError, match=f"^{name}: "):
            ReductionDatum(*args)
    assert ReductionDatum(Fraction(4, 2), "1", 0, 2).sub_degree == 2


def test_reduction_datum_checks_its_fields_when_built():
    """The constructor is the one way in: a direct ReductionDatum with a
    degree of 3/2 is refused, where it once reached slope_test and read
    as a failing reduction, and accepted values are kept as ints and
    Fractions."""
    with pytest.raises(InvalidReductionError, match="sub_degree: expected an integer"):
        slope_test(ReductionDatum(Fraction(3, 2), 1, 0, 2))
    rd = ReductionDatum(Fraction(4, 2), "1", 0, 2, ["1/4"], [Fraction(1, 4), 0])
    assert [type(v) for v in (rd.sub_degree, rd.sub_rank)] == [int, int]
    assert rd.weight_pairings == (Fraction(1, 4),)
    assert rd.total_pairings == (Fraction(1, 4), Fraction(0))
    assert slope_test(rd) == VERDICT_FAIL


@pytest.mark.parametrize("bad", [Fraction(5, 2), "1/2", "x", 0.5, None, 2.0, True])
def test_rank2_split_degrees_must_be_integers(bad):
    """A split degree that is not an integer, or is a float or a bool, is a
    ShapeError naming it: (5/2, 0) once ran as the gap-2 bundle (2, 0)."""
    for i, split in enumerate([(bad, 0), (0, bad)]):
        with pytest.raises(ShapeError, match=rf"^split_degrees\[{i}\]: "):
            rank2_semistability(split, [(1, 0)], [(Fraction(1, 2), 0)])
    assert rank2_semistability((Fraction(4, 2), 0)) == rank2_semistability((2, 0))


# -- rank-2 enumeration ------------------------------------------------------


def test_rank2_trivial_bundle_boundary():
    report = rank2_semistability((0, 0))
    assert report.verdict == VERDICT_BOUNDARY
    assert report.witness.degree == 0
    assert report.total_slope == 0


def test_rank2_weighted_fail_with_witness():
    report = rank2_semistability(
        (0, 0),
        flags=[(1, 0)],
        weights=[(Fraction(1, 4), 0)],
        points=[0],
    )
    assert report.verdict == VERDICT_FAIL
    assert report.total_slope == Fraction(1, 8)
    assert report.witness.weighted_degree == Fraction(1, 4)
    assert report.witness.incidences == (0,)


def test_rank2_unbalanced_split_fails():
    report = rank2_semistability((0, -1))
    assert report.verdict == VERDICT_FAIL
    assert report.witness.degree == 0
    assert report.witness.weighted_degree == 0


def test_rank2_generic_weights_can_stabilize():
    # equal weights on both flag positions cannot break the balance
    report = rank2_semistability(
        (0, 0),
        flags=[(1, 0), (0, 1)],
        weights=[(Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3))],
        points=[0, 1],
    )
    assert report.verdict == VERDICT_BOUNDARY


def test_rank2_validation_errors():
    with pytest.raises(NormalizationError):
        rank2_semistability((0, 0), flags=[(1, 0)], weights=[(Fraction(5, 4), 0)], points=[0])
    with pytest.raises(ShapeError):
        rank2_semistability((0, 0), flags=[(0, 0)], weights=[(0, 0)], points=[0])
    with pytest.raises(DivisorError):
        rank2_semistability(
            (0, 0),
            flags=[(1, 0), (1, 1)],
            weights=[(0, 0), (0, 0)],
            points=[1, 1],
        )


def test_rank2_candidates_agree_with_slope_test():
    """Every enumerated candidate independently reproduces its verdict."""
    rng = random.Random(909)
    for _ in range(10):
        a1 = rng.randint(-1, 1)
        a2 = a1 - rng.randint(0, 2)
        s = rng.randint(0, 3)
        flags = []
        weights = []
        for _ in range(s):
            c, dcoef = rng.randint(0, 2), rng.randint(0, 2)
            if c == 0 and dcoef == 0:
                c = 1
            flags.append((c, dcoef))
            weights.append(
                (Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4))
            )
        report = rank2_semistability((a1, a2), flags, weights, points=list(range(s)))
        for cand in report.candidates:
            rd = rank2_reduction(cand, (a1, a2), weights)
            assert slope_test(rd) == cand.verdict
        best = max(c.weighted_degree for c in report.candidates)
        assert report.witness.weighted_degree == best


def _rank2_flags(rng, m):
    """m flag directions mixing generic pairs, pairs with a zero coordinate,
    exact repeats and proportional copies of earlier flags."""
    flags = []
    for _ in range(m):
        kind = rng.randrange(5)
        if kind == 0:
            flag = (0, rng.randint(1, 3))
        elif kind == 1:
            flag = (Fraction(rng.randint(1, 3), rng.randint(1, 2)), 0)
        elif kind == 2 and flags:
            flag = rng.choice(flags)
        elif kind == 3 and flags:
            c, d = rng.choice(flags)
            k = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            flag = (c * k, d * k)
        else:
            flag = (
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(1, 4), rng.randint(1, 3)),
            )
        flags.append(flag)
    return flags


def test_rank2_matches_reference_oracle():
    """Every candidate, the witness and the totals equal the all-subsets
    enumerator's, over m = 0..8 flags, gaps 0..3, both orders of the split
    degrees, default and rational points."""
    rng = random.Random(4242)
    cases = 0
    for m in range(9):
        for gap in range(4):
            if m >= 7 and gap != m - 7:
                continue  # one gap each at m = 7, 8: the oracle is slow there
            a2 = rng.randint(-2, 1)
            degrees = (a2 + gap, a2)
            if (m + gap) % 2:
                degrees = degrees[::-1]
            flags = _rank2_flags(rng, m)
            weights = [
                (Fraction(rng.randint(0, 5), 6), Fraction(rng.randint(0, 7), 8))
                for _ in range(m)
            ]
            if gap % 2:
                points = None
            else:
                points = [
                    Fraction(x, rng.randint(1, 3)) for x in rng.sample(range(-9, 10), m)
                ]
                if len(set(points)) != m:
                    points = None
            report = rank2_semistability(degrees, flags, weights, points)
            candidates, witness, total_wd, total_slope = reference_rank2(
                degrees, flags, weights, points
            )
            assert report.candidates == candidates  # every field
            assert report.witness == witness
            assert report.verdict == witness.verdict
            assert report.total_weighted_degree == total_wd
            assert report.total_slope == total_slope
            cases += 1
    assert cases == 30


def _assert_rank2_matches_reference(degrees, flags, weights, points=None):
    report = rank2_semistability(degrees, flags, weights, points)
    candidates, witness, total_wd, total_slope = reference_rank2(
        degrees, flags, weights, points
    )
    assert report.candidates == candidates
    assert report.witness == witness
    assert report.verdict == witness.verdict
    assert report.total_weighted_degree == total_wd
    assert report.total_slope == total_slope
    return report


def test_rank2_weights_on_the_walls_of_the_unit_interval():
    """A weight of exactly 0, on or off the flag, is accepted and matches
    the oracle; a weight of exactly 1, on or off the flag, is refused with
    NormalizationError."""
    flags = [(1, 0), (1, 1), (0, 1)]
    for weights in (
        [(0, Fraction(1, 2)), (Fraction(2, 3), 0), (0, 0)],
        [(0, Fraction(99, 100))] * 3,
        [(Fraction(99, 100), 0)] * 3,
    ):
        for degrees in ((0, 0), (1, 0), (0, 2)):
            _assert_rank2_matches_reference(degrees, flags, weights)
    for bad in ((1, 0), (0, 1), (1, 1), (Fraction(1), Fraction(1, 2))):
        with pytest.raises(NormalizationError, match=r"\[0, 1\)"):
            rank2_semistability((0, 0), flags, [(0, 0), bad, (0, 0)])


def test_rank2_edge_weights_match_reference_oracle():
    """Weight shapes the seeded oracle test never draws: all weights zero
    (one common denominator w = 1), on-flag equal to off-flag at every point
    (no incidence changes the weighted degree), and large coprime
    denominators (w = 97 * 101 * 103 * 107)."""
    rng = random.Random(515)
    big = [(Fraction(96, 97), Fraction(100, 101)), (Fraction(1, 103), Fraction(106, 107))]
    for m in range(6):
        for degrees in ((0, 0), (2, 1), (-1, 1)):
            flags = _rank2_flags(rng, m)
            points = [Fraction(x, rng.randint(1, 3)) for x in rng.sample(range(-9, 10), m)]
            if len(set(points)) != m:
                points = None
            _assert_rank2_matches_reference(degrees, flags, [(0, 0)] * m, points)
            same = [(w, w) for w in (Fraction(rng.randint(0, 6), 7) for _ in range(m))]
            report = _assert_rank2_matches_reference(degrees, flags, same, points)
            assert len({c.weighted_degree - c.degree for c in report.candidates}) == 1
            _assert_rank2_matches_reference(degrees, flags, [big[i % 2] for i in range(m)], points)


def test_rank2_weighted_degree_ties_match_reference_oracle():
    """Every flag gains 1/2, so a degree-a candidate with two more incidences
    ties with a degree-(a + 1) one: the report orders ties by degree, then
    by incidence set, as the oracle does."""
    flags = [(1, 1), (1, -1), (2, 1), (1, 3)]
    for degrees in ((0, 0), (1, 0), (0, 2)):
        report = _assert_rank2_matches_reference(degrees, flags, [(Fraction(1, 2), 0)] * 4)
        pairs = list(zip(report.candidates, report.candidates[1:]))
        ties = [(x, y) for x, y in pairs if x.weighted_degree == y.weighted_degree]
        assert all(x.weighted_degree is y.weighted_degree for x, y in ties)  # one Fraction each
        assert any(x.degree > y.degree for x, y in ties)
        assert any(x.degree == y.degree and x.incidences < y.incidences for x, y in ties)


def _free_rows(rng, k, nvars):
    """k linearly independent int rows of length nvars (k <= nvars)."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(k)]
        if reference_rank(rows, nvars) == k:
            return rows


def _incidence_row_sets(rng):
    """Seeded (rows, nvars): free rows (fewer than or as many as the
    unknowns, zero rows mixed in), then repeated or proportional rows, or
    more rows than unknowns."""
    for _ in range(5):
        nvars = rng.randint(2, 5)
        yield _free_rows(rng, rng.randint(0, nvars - 1), nvars), nvars
        yield _free_rows(rng, nvars, nvars), nvars
        rows = _free_rows(rng, rng.randint(1, nvars), nvars)
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * nvars)
        yield rows, nvars
        rows = _free_rows(rng, rng.randint(1, nvars), nvars)
        rows += [list(rng.choice(rows)), [rng.choice((-2, 3)) * x for x in rng.choice(rows)]]
        rows.insert(rng.randint(0, len(rows)), [0] * nvars)
        rng.shuffle(rows)
        yield rows, nvars
        rows = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(nvars + rng.randint(1, 2))]
        yield rows, nvars


def test_incidence_closures_match_brute_force():
    """_incidence_walk agrees with the brute-force oracle on free rows, with
    and without zero rows, and on dependent ones."""
    for rows, nvars in _incidence_row_sets(random.Random(1515)):
        assert parahoric._incidence_walk(rows, nvars) == reference_incidence_closures(rows, nvars)


def test_rank2_flag_cap():
    assert 0 < RANK2_MAX_FLAGS <= 10
    m = RANK2_MAX_FLAGS + 1
    # The weights are missing too: the cap is checked before anything else.
    with pytest.raises(ShapeError, match=f"at most {RANK2_MAX_FLAGS} flags"):
        rank2_semistability((0, 0), flags=[(1, 1)] * m)
    report = rank2_semistability(
        (1, 0),
        flags=[(1, i + 1) for i in range(RANK2_MAX_FLAGS)],
        weights=[(Fraction(1, 2), 0)] * RANK2_MAX_FLAGS,
    )
    assert report.witness.weighted_degree == max(
        c.weighted_degree for c in report.candidates
    )


def test_rank2_gap_cap():
    assert 2 <= RANK2_MAX_GAP <= 64
    for split in ((RANK2_MAX_GAP + 1, 0), (-3, RANK2_MAX_GAP - 2), (10**6, 0)):
        # The weights are missing too: the gap is checked before them.
        with pytest.raises(ShapeError, match=f"gap of at most {RANK2_MAX_GAP}"):
            rank2_semistability(split, flags=[(1, 1)] * 3)
    for split in ((RANK2_MAX_GAP, 0), (0, RANK2_MAX_GAP)):
        report = rank2_semistability(
            split, flags=[(1, 1), (2, 1)], weights=[(Fraction(1, 2), 0)] * 2
        )
        assert report.candidates


# Run under python -O, where a bare assert would be stripped.
OPTIMIZED_RANK2_CAP = """
import sys
from logahoric import parahoric
from logahoric.errors import ShapeError
if __debug__:
    sys.exit(4)
m = parahoric.RANK2_MAX_FLAGS + 1
try:
    parahoric.rank2_semistability((0, 0), [(1, 1)] * m, [(0, 0)] * m)
except ShapeError:
    sys.exit(0)
sys.exit(3)
"""


OPTIMIZED_RANK2_GAP_CAP = """
import sys
from logahoric import parahoric
from logahoric.errors import ShapeError
if __debug__:
    sys.exit(4)
try:
    parahoric.rank2_semistability((parahoric.RANK2_MAX_GAP + 1, 0), [(1, 1)], [(0, 0)])
except ShapeError:
    sys.exit(0)
sys.exit(3)
"""


def test_rank2_gap_cap_survives_optimize():
    src = os.path.dirname(os.path.dirname(parahoric.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RANK2_GAP_CAP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_rank2_flag_cap_survives_optimize():
    # A child process, because -O would strip this test's own asserts too.
    src = os.path.dirname(os.path.dirname(parahoric.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RANK2_CAP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_rank2_ladder_edges_match_reference_oracle():
    """The edges of the degree ladder, where rank2_semistability stops
    building rows once one rank check finds all of a degree's rows
    independent, match the all-subsets oracle: the rows are free first at a
    degree with exactly as many unknowns as flags (a2, of gap + 2 unknowns);
    rows of a1 are zero for flags (c, 0), and the rows of a2 are dependent
    before a lower degree frees them; the gap is 0; the split degrees come
    swapped; every flag is (1, 0), so no degree is free until a2 - m + 1;
    and m = 9."""
    def weights(m):
        return [(Fraction(i % 3, 3), Fraction(i % 2, 4)) for i in range(m)]

    cases = [
        ((2, 0), [(1, 1), (2, -1), (1, 3), (-1, 2)], None),
        ((1, 0), [(1, i + 1) for i in range(3)], None),
        ((3, 0), [(2, 0), (1, 1), (-1, 0), (1, 2), (3, -1)], [0, Fraction(1, 2), 2, -1, 3]),
        ((1, 1), [(1, 2), (-1, 1), (2, 3), (0, 1), (1, 0)], None),
        ((0, 3), [(0, 1), (1, 1), (2, -1), (0, 2)], [Fraction(1, 3), 1, -2, 4]),
        ((2, 0), [(1, 0)] * 4, None),
        ((2, 0), [(1, 0), (0, 1), (1, 1), (2, -1), (1, 3), (-3, 1), (1, 0), (2, 1), (0, 1)],
         None),
    ]
    for degrees, flags, points in cases:
        _assert_rank2_matches_reference(degrees, flags, weights(len(flags)), points)


# Two processes under different hash seeds: no report may depend on the
# iteration order of a set or dict of tuples.  One small config per command.
HASH_SEED_GENERIC_FIELD = {
    "group": {"family": "A", "rank": 2, "form": "SL"},
    "points": [{"x": "0"}, {"x": "1/2"}, {"x": "-1"}, {"x": "2"}],
    "residues": [
        [["1", "2", "0"], ["-1", "0", "1/3"], ["0", "3", "-1"]],
        [["0", "1", "-1"], ["2", "1/2", "0"], ["1", "0", "-1/2"]],
        [["-2", "0", "1"], ["0", "1", "-1"], ["1/2", "1", "1"]],
        [["1", "-3", "0"], ["-1", "-3/2", "2/3"], ["-3/2", "-4", "1/2"]],
    ],
}
# Weighted points (an Iwahori weight, a Levi block {0, 1}, and theta = 0)
# with residues in their parahoric stalks.
HASH_SEED_WEIGHTED_FIELD = {
    "group": {"family": "A", "rank": 2, "form": "SL"},
    "points": [{"x": "0", "theta": ["1/3", "1/3"]}, {"x": "1", "theta": ["1/3", "2/3"]},
               {"x": "-1/2", "theta": ["0", "0"]}],
    "residues": [
        [["1", "2", "-1"], ["0", "0", "1/3"], ["0", "0", "-1"]],
        [["0", "1", "-1"], ["2", "1/2", "0"], ["0", "0", "-1/2"]],
        [["-1", "-3", "2"], ["-2", "-1/2", "-1/3"], ["0", "0", "3/2"]],
    ],
}
HASH_SEED_CONFIGS = {
    "parahoric-analyze": HASH_SEED_WEIGHTED_FIELD,
    "gaudin": HASH_SEED_GENERIC_FIELD,
    "hitchin": HASH_SEED_GENERIC_FIELD,
    "spectral": HASH_SEED_GENERIC_FIELD,
    "moment": HASH_SEED_WEIGHTED_FIELD,
    "involution": HASH_SEED_GENERIC_FIELD,
    "diagram-check": HASH_SEED_WEIGHTED_FIELD,
    "stability": {
        "options": {
            "rank2": {
                "split_degrees": [-1, 1],
                "flags": [["1", "0"], ["0", "1"], ["2", "-1"], ["1", "3"], ["1", "0"],
                          ["3", "2"], ["-1", "1"]],
                "weights": [["1/2", "1/3"], ["0", "1/4"], ["2/3", "0"], ["1/5", "1/5"],
                            ["3/4", "1/2"], ["0", "0"], ["1/6", "5/6"]],
                "points": ["0", "1/2", "-1", "2", "1/3", "-5/2", "7"],
            }
        },
    },
    "leaf": HASH_SEED_WEIGHTED_FIELD,
}


@pytest.mark.parametrize("command", HASH_SEED_CONFIGS)
def test_report_does_not_depend_on_the_hash_seed(tmp_path, command):
    src = os.path.dirname(os.path.dirname(parahoric.__file__))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": command, **HASH_SEED_CONFIGS[command]}))
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"report-{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "logahoric", command, "--config", cfg, "--out", out],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8")
        assert text.count('"timing_seconds": ') == 1
        reports.append(re.sub(r'\n  "timing_seconds": [^\n]*', "", text))
    if command == "stability":
        assert len(json.loads(reports[0])["results"]["rank2"]["candidates"]) > 100
    assert reports[0] == reports[1]
