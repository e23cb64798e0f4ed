"""The library's entry points refuse malformed shapes with domain errors.

`build_field`, `MomentValue`, `coadjoint_act`, `rank2_semistability` and
`analyze_weight` take user data as nested sequences.  Each test draws a valid input built
from valid numbers, checks that it is accepted, then makes one structural
change at a drawn sequence node of one argument: the node replaced by a
number (a scalar where a sequence belongs), its last item dropped, or its
last item repeated (wrong lengths and ragged rows).  Every length in these
inputs is tied to another, so each change must be refused, and the refusal
must be a LogahoricError subclass, not a bare TypeError, ValueError or
IndexError from inside the computation.  Text where a sequence belongs is
refused, and so is a value that is not a rational where a number belongs,
there, in `ReductionDatum`, `hitchin_coefficient_hamiltonians`, the
loop-algebra and Poisson-polynomial constructors and `polyq.evaluate`, and
in a residue matrix of a CLI config; a MomentValue holds no float, so
`coadjoint_act` returns none.
"""

import copy
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logahoric import cli, linalgq, polyq
from logahoric.errors import (
    ConfigError,
    InvalidReductionError,
    LogahoricError,
    ShapeError,
    UnsupportedTypeError,
)
from logahoric.higgs import build_field, field_from_read
from logahoric.parahoric import (
    ReductionDatum,
    analyze_weight,
    laurent_to_loop,
    loop_element,
    rank2_semistability,
)
from logahoric.poisson import (
    LiePoissonAlgebra,
    MomentValue,
    PoissonPolynomial,
    coadjoint_act,
    hitchin_coefficient_hamiltonians,
    moment_map,
)
from logahoric.rootsys import GroupTag, RationalCocharacter, build_root_system

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
UNIT = st.builds(Fraction, st.integers(0, 2), st.just(3))  # in [0, 1)
SYSTEMS = {r: build_root_system("A", r) for r in range(1, 4)}


def sequence_paths(tree, path=()):
    """The index paths of every list node of a nested-list tree."""
    if isinstance(tree, list):
        yield path
        for i, item in enumerate(tree):
            yield from sequence_paths(item, path + (i,))


@st.composite
def malformed(draw, args: dict) -> dict:
    """A copy of args, a dict of nested lists, with one structural change
    at one list node of one argument."""
    name = draw(st.sampled_from(sorted(args)))
    path = draw(st.sampled_from(list(sequence_paths(args[name]))))
    out = copy.deepcopy(args)
    parent, key = out, name
    for i in path:
        parent, key = parent[key], i
    node = parent[key]
    hows = ["scalar", "grow"] + (["drop"] if node else [])
    how = draw(st.sampled_from(hows))
    if how == "scalar":
        parent[key] = draw(RATIONALS)
    elif how == "drop":
        node.pop()
    else:
        node.append(copy.deepcopy(node[-1]) if node else draw(RATIONALS))
    return out


def matrix(n):
    return st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def field_args(draw) -> tuple:
    n = draw(st.integers(1, 3))
    s = draw(st.integers(1, 4))
    points = draw(st.lists(st.integers(-5, 5), min_size=s, max_size=s, unique=True))
    args = {
        "points": [Fraction(x) for x in points],
        "residues": draw(st.lists(matrix(n), min_size=s, max_size=s)),
        "theta_data": [None] * s,
    }
    return args, GroupTag("A", n - 1, "GL")


@st.composite
def moment_args(draw) -> dict:
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    sites = [draw(matrix(n)) for n in sizes]
    return {"sites": sites, "data": [None] * len(sites)}


@st.composite
def rank2_args(draw) -> dict:
    m = draw(st.integers(1, 3))
    flag = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(list)
    return {
        "split_degrees": [draw(st.integers(-2, 2)), draw(st.integers(-2, 2))],
        "flags": draw(st.lists(flag, min_size=m, max_size=m)),
        "weights": draw(st.lists(st.lists(UNIT, min_size=2, max_size=2), min_size=m, max_size=m)),
        "points": draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m, unique=True)),
    }


def refused(call):
    with pytest.raises(LogahoricError):
        call()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_build_field_refuses_malformed_shapes(data):
    args, group = data.draw(field_args())
    build_field(group=group, **args)
    bad = data.draw(malformed(args))
    refused(lambda: build_field(group=group, **bad))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_moment_value_refuses_malformed_shapes(data):
    args = data.draw(moment_args())
    MomentValue(**args)
    bad = data.draw(malformed(args))
    refused(lambda: MomentValue(**bad))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_coadjoint_act_refuses_malformed_shapes(data):
    m = MomentValue(**data.draw(moment_args()))
    args = {"gs": [linalgq.identity(len(site)) for site in m.sites]}
    coadjoint_act(args["gs"], m)
    bad = data.draw(malformed(args))
    refused(lambda: coadjoint_act(bad["gs"], m))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_rank2_semistability_refuses_malformed_shapes(data):
    args = data.draw(rank2_args())
    rank2_semistability(**args)
    bad = data.draw(malformed(args))
    refused(lambda: rank2_semistability(**bad))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_analyze_weight_refuses_malformed_shapes(rank, data):
    rs = SYSTEMS[rank]
    args = {"coeffs": data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank))}
    analyze_weight(rs, RationalCocharacter(tuple(args["coeffs"])))
    bad = data.draw(malformed(args))
    refused(lambda: analyze_weight(rs, RationalCocharacter(bad["coeffs"])))


def test_the_shapes_that_crashed_are_shape_errors():
    """The calls that raised bare exceptions before their entry points
    checked shapes, each now refused up front."""
    sl2 = GroupTag("A", 1, "SL")
    for call, match in [
        (lambda: rank2_semistability((1, 0), [(1, 2, 3)], [(0, 0)]), "coordinate pair"),
        (lambda: rank2_semistability((1, 0), [(1,)], [(0, 0)]), "coordinate pair"),
        (lambda: rank2_semistability((1, 0), [(1, 0)], [(0, 0, 0)]), "weight pair"),
        (lambda: rank2_semistability((1,), [(1, 0)], [(0, 0)]), "split_degrees"),
        (lambda: build_field([0, 1], [5, 6], sl2), "residue 0 must be 2x2"),
        (lambda: MomentValue(sites=(5,)), "site 0 is not square"),
    ]:
        with pytest.raises(LogahoricError, match=match) as err:
            call()
        assert err.value.kind == "shape"


def test_field_from_read_refuses_a_residue_of_the_wrong_length():
    """field_from_read takes numbers already read, but a residue of other
    than n*n entries is a ShapeError naming it, so no residue's entries are
    regrouped into another's (3 + 5 entries are not two 2x2 residues) and a
    short last residue is not an IndexError later."""
    sl2, pair = GroupTag("A", 1, "SL"), (0, 1)
    for residues, j in [([[pair] * 3, [pair] * 5], 0), ([[pair] * 4, [pair] * 3], 1)]:
        with pytest.raises(ShapeError, match=f"residue {j} must be 2x2"):
            field_from_read([0, 1], residues, sl2)


def test_text_is_not_a_sequence():
    """A str, bytes or bytearray where a sequence belongs is refused with
    ShapeError, not read as a sequence of characters or byte values."""
    gl1 = GroupTag("A", 0, "GL")
    for call in [
        lambda: build_field("12", [[[0]], [[0]]], gl1),
        lambda: build_field(b"12", [[[0]], [[0]]], gl1),
        lambda: build_field(bytearray(b"12"), [[[0]], [[0]]], gl1),
        lambda: build_field([0], [[[0]]], gl1, theta_data="a"),
        lambda: rank2_semistability("10", ["11"], ["00"]),
        lambda: rank2_semistability((1, 0), ["11"], [(0, 0)]),
        lambda: rank2_semistability((1, 0), [(1, 1)], [b"00"]),
        lambda: MomentValue(sites=("a",)),
        lambda: hitchin_coefficient_hamiltonians("12", 2),
        lambda: hitchin_coefficient_hamiltonians(b"12", 2),
        lambda: hitchin_coefficient_hamiltonians(5, 2),
    ]:
        with pytest.raises(ShapeError):
            call()


@pytest.mark.parametrize("bad", ["x", "1/0", None, [1], 0.5, True])
def test_rank2_semistability_names_an_entry_that_is_not_a_rational(bad):
    """A flag coordinate, weight or point that linalgq.rational refuses (a
    float and a bool among them) is a ShapeError naming the entry, not a
    bare ValueError or TypeError."""
    args = {"split_degrees": (1, 0), "flags": [(1, 0), (1, 1)],
            "weights": [(0, 0), (Fraction(1, 2), 0)], "points": [0, 1]}
    rank2_semistability(**args)
    for name, where, at in [
        ("flags", (1, 0), r"flags\[1\]\[0\]"),
        ("weights", (0, 1), r"weights\[0\]\[1\]"),
        ("points", (1,), r"points\[1\]"),
    ]:
        bad_args = copy.deepcopy(args)
        node = bad_args[name]
        for i in where[:-1]:
            node[i] = list(node[i])
            node = node[i]
        node[where[-1]] = bad
        with pytest.raises(ShapeError, match=at + ": .*rational"):
            rank2_semistability(**bad_args)


@pytest.mark.parametrize("bad", ["x", "1/0", None, [1], 0.5, True])
def test_every_entry_point_names_a_number_that_is_not_a_rational(bad):
    """A point, residue entry, theta coordinate, pairing, group-element or
    site entry, loop-algebra coefficient, Poisson constant or scale, or
    evaluation point that linalgq.rational refuses (a float and a bool among
    them) is refused with a domain error naming the entry, at every entry
    point that reads numbers, not with a bare ValueError or TypeError there
    or later, in moment_map, and not read as a float's binary value or a
    bool's int."""
    gl2 = GroupTag("A", 1, "GL")
    zero = [[0, 0], [0, 0]]
    sites = MomentValue(sites=(zero, zero))
    alg = LiePoissonAlgebra(2, 1)
    for call, error, at in [
        (lambda: build_field([0, bad], [zero, zero], gl2), ShapeError, r"points\[1\]"),
        (lambda: build_field([0, 1], [zero, [[0, 0], [bad, 0]]], gl2), ShapeError,
         r"residues\[1\]\[1\]\[0\]"),
        (lambda: build_field([0, 1], [zero, zero], gl2, [None, RationalCocharacter((bad,))]),
         ShapeError, r"theta_data\[1\]\[0\]"),
        (lambda: analyze_weight(SYSTEMS[2], RationalCocharacter((0, bad))), ShapeError,
         r"theta\[1\]"),
        (lambda: ReductionDatum(1, 1, 2, 2, (0, bad)), InvalidReductionError,
         r"weight_pairings\[1\]"),
        (lambda: ReductionDatum(1, 1, 2, 2, (), (bad,)), InvalidReductionError,
         r"total_pairings\[0\]"),
        (lambda: hitchin_coefficient_hamiltonians([0, bad], 2), ShapeError, r"points\[1\]"),
        (lambda: coadjoint_act([[[1, 0], [0, 1]], [[1, 0], [bad, 1]]], sites), ShapeError,
         r"gs\[1\]\[1\]\[0\]"),
        (lambda: MomentValue(sites=(zero, [[0, 0], [bad, 0]])), ShapeError,
         r"sites\[1\]\[1\]\[0\]"),
        (lambda: RationalCocharacter.of([0, bad]), ShapeError, r"theta\[1\]"),
        (lambda: loop_element(SYSTEMS[2], {0: [0, bad]}), ShapeError, r"torus\[0\]\[1\]"),
        (lambda: loop_element(SYSTEMS[1], roots={((1,), 0): bad}), ShapeError,
         re.escape("roots[((1,), 0)]")),
        (lambda: laurent_to_loop(SYSTEMS[1], {0: [[bad, 0], [0, 0]]}), ShapeError,
         r"coeffs\[0\]\[0\]\[0\]"),
        (lambda: laurent_to_loop(SYSTEMS[1], {0: [[0, 0], [bad, 0]]}), ShapeError,
         r"coeffs\[0\]\[1\]\[0\]"),
        (lambda: PoissonPolynomial.constant(alg, bad), ShapeError, "^c"),
        (lambda: alg.generator(0, 1, 0).scaled(bad), ShapeError, "^c"),
        (lambda: polyq.evaluate([1, 2], bad), ShapeError, "^x"),
    ]:
        with pytest.raises(error, match=at + ": .*rational"):
            call()


@pytest.mark.parametrize("bad", ["x", "1/0", "-", "3/", "+1/-2", None, [1], 0.5, True, "9" * 5000])
def test_cli_names_a_residue_entry_that_is_not_a_rational(bad):
    """The CLI reads residue entries into int pairs (linalgq.ratio); an
    entry that linalgq.rational refuses is a ConfigError naming it,
    residues[j][p][q], with rational's own words, wherever it sits."""
    raw = {"group": {"family": "A", "rank": 1, "form": "GL"}, "points": [{"x": "0"}, {"x": "1"}],
           "residues": [[["1/2", "0"], ["-3", "7/9"]], [["0", "2"], ["0", "0"]]]}
    assert cli.ParsedConfig(raw).field().cleared[2:] == (18, ((9, 0, -54, 14), (0, 36, 0, 0)))
    for j, p, q in [(0, 0, 0), (0, 1, 1), (1, 0, 1)]:
        bad_raw = copy.deepcopy(raw)
        bad_raw["residues"][j][p][q] = bad
        where = f"residues[{j}][{p}][{q}]"
        with pytest.raises(ConfigError) as refused:
            linalgq.rational(bad, where, ConfigError)
        with pytest.raises(ConfigError) as caught:
            cli.ParsedConfig(bad_raw)
        assert str(caught.value) == str(refused.value) and str(caught.value).startswith(where)


@st.composite
def field_numbers(draw):
    """(n, form, points, residues, thetas) of a field: n = 1..4, s = 1..5,
    SL (trace-free residues) or GL, and either no theta or a theta or None
    at each point."""
    n = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5))
    form = "GL" if n == 1 else draw(st.sampled_from(["SL", "GL"]))
    points = draw(st.lists(RATIONALS, min_size=s, max_size=s, unique=True))
    residues = []
    for _ in range(s):
        m = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(n)]
        if form == "SL":
            m[-1][-1] -= sum(m[i][i] for i in range(n))
        residues.append(m)
    theta = st.none() | st.lists(RATIONALS, min_size=n - 1, max_size=n - 1)
    thetas = draw(st.lists(theta, min_size=s, max_size=s)) if draw(st.booleans()) else [None] * s
    return n, form, points, residues, thetas


@given(field_numbers())
def test_cli_field_equals_the_library_field_of_the_same_numbers(case):
    """A field is one datum whoever builds it: the CLI's field of a config
    equals build_field's field of the same numbers, and its Fraction views
    give those numbers back."""
    n, form, points, residues, thetas = case
    raw = {
        "group": {"family": "A", "rank": n - 1, "form": form},
        "points": [{"x": str(x)} if th is None else {"x": str(x), "theta": list(map(str, th))}
                   for x, th in zip(points, thetas)],
        "residues": [[[str(v) for v in row] for row in m] for m in residues],
    }
    theta_data = None if thetas == [None] * len(thetas) else [
        None if th is None else RationalCocharacter(tuple(th)) for th in thetas]
    field = cli.ParsedConfig(raw).field()
    assert field == build_field(points, residues, GroupTag("A", n - 1, form), theta_data)
    assert field.points == tuple(points) and list(field.residues) == residues


@pytest.mark.parametrize("bad", [2.0, True, "x", Fraction(3, 2), None, "1/0", [1], 0.5])
def test_integer_fields_name_a_value_that_is_not_an_integer(bad):
    """The matrix size n of hitchin_coefficient_hamiltonians, the rank of
    a GroupTag or of build_root_system and the sizes of a LiePoissonAlgebra
    are read by linalgq.integer: a float, a bool or a non-integer is a
    domain error naming the field, where n = 2.0 once ended in a bare
    TypeError, a rank of True was read as 1, and LiePoissonAlgebra(True, 2)
    built 1x1 sites."""
    for call, error, at in [
        (lambda: hitchin_coefficient_hamiltonians([0, 1], bad), ShapeError, "n"),
        (lambda: GroupTag("A", bad, "SL"), UnsupportedTypeError, "rank"),
        (lambda: build_root_system("A", bad), UnsupportedTypeError, "rank"),
        (lambda: LiePoissonAlgebra(bad, 2), ShapeError, "matrix_size"),
        (lambda: LiePoissonAlgebra(2, bad), ShapeError, "site_count"),
    ]:
        with pytest.raises(error, match=f"^{at}: "):
            call()
    tag = GroupTag("A", Fraction(4, 2), "SL")
    assert type(tag.rank) is int and tag == GroupTag("A", "2", "SL")
    assert tag.matrix_size == 3
    assert build_root_system("A", Fraction(2)) == SYSTEMS[2]
    alg = LiePoissonAlgebra(Fraction(4, 2), "3")
    assert (type(alg.matrix_size), type(alg.site_count)) == (int, int)
    assert alg == LiePoissonAlgebra(2, 3) and alg.generator(2, 1, 1).terms == ((((11, 1),), 1),)


ENTRIES = st.one_of(st.integers(-3, 3), RATIONALS, RATIONALS.map(str), st.floats(-3, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_coadjoint_act_never_returns_a_float(data):
    """MomentValue reads its site entries, so a float among them is refused
    when the value is made (coadjoint_act once conjugated it into floats),
    and coadjoint_act by a unitriangular group element returns ints and
    Fractions only, whatever mix of ints, Fractions and "p/q" text the
    sites and the group elements hold."""
    n = data.draw(st.integers(1, 3))
    sites = data.draw(st.lists(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                        min_size=n, max_size=n), min_size=1, max_size=2))
    if any(type(v) is float for site in sites for row in site for v in row):
        with pytest.raises(ShapeError, match=r"^sites\[\d\]\[\d\]\[\d\]: floating point"):
            MomentValue(sites=sites)
        return
    rational = ENTRIES.filter(lambda v: type(v) is not float)
    gs = [[[1 if p == q else data.draw(rational) if p < q else 0 for q in range(n)]
           for p in range(n)] for _ in sites]
    out = coadjoint_act(gs, MomentValue(sites=sites))
    assert {type(v) for site in out.sites for row in site for v in row} <= {int, Fraction}


def test_rational_strings_are_read_as_rationals():
    """Entries that Fraction reads, such as "1/2", are read as the rationals
    they name, at every place a number may be one: a weight given as text
    then acts in moment_map as the same weight given as a Fraction."""
    gl2 = GroupTag("A", 1, "GL")
    residues = [[[1, 2], [0, 3]], [[-1, -2], [0, -3]]]
    half = Fraction(1, 2)
    as_text = build_field(["0", "1/2"], residues, gl2, [RationalCocharacter(("1/2",)), None])
    exact = build_field([0, half], residues, gl2, [RationalCocharacter((half,)), None])
    assert as_text == exact
    assert moment_map(as_text) == moment_map(exact)
    hams = hitchin_coefficient_hamiltonians
    assert hams(["0", "1/2"], 2) == hams([0, half], 2)
    a1 = SYSTEMS[1]
    assert analyze_weight(a1, RationalCocharacter(("1/2",))) == analyze_weight(
        a1, RationalCocharacter((half,)))
    assert RationalCocharacter.of(["1/2"]) == RationalCocharacter((half,))
    assert loop_element(a1, {0: ["1/2"]}, {((1,), 1): "-1/2"}) == loop_element(
        a1, {0: [half]}, {((1,), 1): -half})
    assert laurent_to_loop(a1, {0: [["1/2", "1/3"], [0, "-1/2"]]}) == laurent_to_loop(
        a1, {0: [[half, Fraction(1, 3)], [0, -half]]})
    alg = LiePoissonAlgebra(1, 1)
    x = alg.generator(0, 0, 0)
    assert PoissonPolynomial.constant(alg, "1/2") == PoissonPolynomial.constant(alg, half)
    assert x.scaled("1/2") == x.scaled(half)
    assert polyq.evaluate([1, 2], "1/2") == 2
    assert MomentValue(sites=([["1/2"]],)) == MomentValue(sites=([[half]],))
    assert linalgq.det([["1/2", 0], [0, 4]]) == 2
