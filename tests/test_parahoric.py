import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from logahoric import linalgq, parahoric
from logahoric.errors import (
    DivisorError,
    FiltrationError,
    InvalidReductionError,
    NormalizationError,
    ShapeError,
    TraceError,
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
    loop_add,
    loop_bracket,
    loop_element,
    loop_sub,
    loop_to_laurent,
    loop_zero,
    membership,
    parahoric_degree,
    rank2_semistability,
    slope_test,
)
from logahoric.rootsys import RationalCocharacter, build_root_system, negate, pair
from support import reference_rank2

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
        assert linalgq.mat_eq(lhs, rhs)


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


# -- degrees and slopes ------------------------------------------------------


def test_parahoric_degree_examples():
    assert parahoric_degree(ReductionDatum.of(-1, 1, 0, 2, [Fraction(1, 2)])) == Fraction(-1, 2)
    assert parahoric_degree(ReductionDatum.of(0, 1, 0, 2)) == 0
    assert parahoric_degree(
        ReductionDatum.of(2, 1, 0, 2, [Fraction(1, 3), Fraction(-1, 4)])
    ) == Fraction(25, 12)


def test_slope_test_examples():
    assert slope_test(ReductionDatum.of(0, 1, 0, 2)) == VERDICT_BOUNDARY
    assert (
        slope_test(ReductionDatum.of(0, 1, 0, 2, [Fraction(1, 4)])) == VERDICT_FAIL
    )
    assert slope_test(ReductionDatum.of(-1, 1, 0, 2)) == VERDICT_STABLE


def test_slope_test_with_total_datum():
    sub = ReductionDatum.of(0, 1, 0, 2, [Fraction(1, 4)])
    total = ReductionDatum.of(0, 2, 0, 2, [Fraction(1, 4), Fraction(0)])
    assert slope_test(sub, total) == VERDICT_FAIL
    mismatched = ReductionDatum.of(1, 2, 1, 2)
    with pytest.raises(InvalidReductionError):
        slope_test(sub, mismatched)


def test_slope_test_rank_bounds():
    with pytest.raises(InvalidReductionError):
        slope_test(ReductionDatum.of(0, 2, 0, 2))
    with pytest.raises(InvalidReductionError):
        slope_test(ReductionDatum.of(0, 0, 0, 2))


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
        total = ReductionDatum.of(
            a1 + a2, 2, a1 + a2, 2, [w for pair_ in weights for w in pair_]
        )
        for cand in report.candidates:
            assert slope_test(cand.reduction, total) == cand.verdict
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
            assert report.candidates == candidates  # every field, reduction too
            assert report.witness == witness
            assert report.verdict == witness.verdict
            assert report.total_weighted_degree == total_wd
            assert report.total_slope == total_slope
            cases += 1
    assert cases == 30


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
