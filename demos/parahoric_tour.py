"""A walking tour of the parahoric layer.

Run after installing the package:

    python3 demos/parahoric_tour.py

Everything below is exact rational arithmetic; no output line depends on
floating point.
"""

from fractions import Fraction

from logahoric.parahoric import (
    ReductionDatum,
    analyze_weight,
    levi_evaluate,
    levi_project,
    loop_element,
    membership,
    parahoric_degree,
    slope_test,
)
from logahoric.rootsys import RationalCocharacter, build_root_system


def show_weight(rs, label, coords):
    theta = RationalCocharacter.of([Fraction(c) for c in coords])
    d = analyze_weight(rs, theta)
    print(f"  theta = {label}")
    print(f"    facet: {d.facet_class}")
    for r in sorted(d.jumps):
        tag = "levi" if r in set(d.levi_roots) else "    "
        print(
            f"    channel {r}: jump {d.jumps[r]:>2}, "
            f"radical from {d.plus_grading[r]:>2}  {tag}"
        )
    return d


def main():
    a1 = build_root_system("A", 1)

    print("== jump integers on A1 ==")
    show_weight(a1, "0", [0])
    iwahori = show_weight(a1, "1/4 alpha-check", [Fraction(1, 4)])
    half = show_weight(a1, "1/2 alpha-check", [Fraction(1, 2)])

    print()
    print("== membership at the Iwahori point ==")
    alpha, neg = (1,), (-1,)
    samples = [
        ("z^0 * e", loop_element(a1, roots={(alpha, 0): 1})),
        ("z^0 * f", loop_element(a1, roots={(neg, 0): 1})),
        ("z^1 * f", loop_element(a1, roots={(neg, 1): 1})),
        ("z^-1 * f", loop_element(a1, roots={(neg, -1): 1})),
        ("z^0 * h", loop_element(a1, torus={0: [1]})),
    ]
    for label, x in samples:
        print(f"  {label:>8} -> {membership(x, iwahori)}")

    print()
    print("== Levi projection at theta = 1/2 alpha-check ==")
    # the Levi slice sits at shifted exponents here: z^-1 in the alpha
    # channel, z^+1 opposite
    x = loop_element(
        a1,
        torus={0: [Fraction(1)]},
        roots={(alpha, -1): 1, (neg, 1): 1, (alpha, 0): 7},
    )
    proj = levi_project(x, half)
    print(f"  projecting drops the radical term: {proj != x}")
    value = levi_evaluate(proj, half)
    print(f"  evaluated in 2x2 matrices: {[[str(v) for v in row] for row in value]}")

    print()
    print("== parahoric degrees and slopes ==")
    rd = ReductionDatum(0, 1, 0, 2, [Fraction(1, 4)], [Fraction(1, 4), Fraction(0)])
    print(f"  sub datum parhdeg = {parahoric_degree(rd)}")
    print(f"  ambient parhdeg  = {rd.total_degree + sum(rd.total_pairings)}")
    print(f"  slope test verdict: {slope_test(rd)}")


if __name__ == "__main__":
    main()
