"""The classical three-site Gaudin chain, done symbolically.

Sites at z = 0, 1, 2 carry the sl2 residues e, f and -e-f.  The script
extracts the quadratic Hamiltonians two ways (as exact numbers, and as
polynomials in matrix-entry coordinates), then brackets every pair of the
polynomial forms to confirm they commute identically, not just at this
particular point of the phase space.
"""

from logahoric.higgs import build_field, gaudin_hamiltonians, gaudin_values, hitchin_map
from logahoric.poisson import bracket, site_casimir, verify_involution
from logahoric.rootsys import GroupTag

E = [[0, 1], [0, 0]]
F = [[0, 0], [1, 0]]


def main():
    field = build_field(
        [0, 1, 2],
        [E, F, [[0, -1], [-1, 0]]],
        GroupTag("A", 1, "SL"),
    )

    values = gaudin_values(field)
    print("numeric Hamiltonians at the three sites:")
    for x, value in zip(field.points, values):
        print(f"  H({x}) = {value}")
    print(f"  sum = {sum(values)}")

    print()
    print("symbolic Hamiltonians (entry coordinates, site-major):")
    alg, hams = gaudin_hamiltonians(field)
    for j, ham in enumerate(hams):
        print(f"  H_{j} = {ham.to_string()}")

    report = verify_involution(hams, alg)
    print()
    print(f"pairwise brackets checked: {report.pair_count}")
    print(f"all commute exactly: {report.all_commute}")

    cas = site_casimir(alg, 0)
    probe = bracket(cas, hams[1], alg)
    print(f"site-0 Casimir brackets to zero against H_1: {probe.is_zero}")

    image = hitchin_map(field)
    print()
    print("for the record, the degree-2 invariant section of this field:")
    print(f"  coefficients (ascending in z): {[str(c) for c in image.sections[0]]}")


if __name__ == "__main__":
    main()
