"""Coresidues, the level-group action, and the two-route invariant check.

A field with poles at 0 and 1 carries an Iwahori weight at each point, so
each residue must be upper triangular and its coresidue is the diagonal
part.  Conjugating by diagonal level-group elements moves the field but
not the leaf data, and the invariant values computed on the polynomial
side agree with the ones computed from the coresidues.
"""

from fractions import Fraction

from logahoric.higgs import build_field, quotient_diagram_check
from logahoric.poisson import bivector_rank_at, coadjoint_act, leaf_invariants, moment_map
from logahoric.rootsys import GroupTag, RationalCocharacter


def main():
    iwahori = RationalCocharacter.of([Fraction(1, 4)])

    field = build_field(
        [0, 1],
        [[[1, 1], [0, -1]], [[-1, -1], [0, 1]]],
        GroupTag("A", 1, "SL"),
        theta_data=[iwahori, iwahori],
    )

    def fmt(m):
        return [[str(v) for v in row] for row in m]

    print("residues:")
    for x, res in zip(field.points, field.residues):
        print(f"  at z={x}: {fmt(res)}")

    mv = moment_map(field)
    print()
    print("coresidues (Levi block parts):")
    for x, site in zip(field.points, mv.sites):
        print(f"  at z={x}: {fmt(site)}")

    print()
    leaf = leaf_invariants(mv)
    shown = [[str(v) for v in site] for site in leaf.site_invariants]
    print(f"site invariants (trace, det): {shown}")
    # the Iwahori Levi is a torus: its dual carries the zero bivector, so
    # the leaves here are points
    print(f"bivector rank at this point: {leaf.bivector_rank}")

    # ... and accordingly the only level moves available are diagonal, and
    # they fix diagonal coresidues outright
    gs = [
        [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
        [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)]],
    ]
    moved = coadjoint_act(gs, mv)
    print()
    print("after a (necessarily diagonal) level-group move:")
    print(f"  sites unchanged: {moved.sites == mv.sites}")
    print(f"  leaf data unchanged: {leaf_invariants(moved) == leaf}")

    # drop the weights and the full group acts; now the point really moves
    # while its leaf coordinates stay put
    from logahoric.poisson import MomentValue

    free = MomentValue(sites=(mv.sites[0],))
    u = [[Fraction(1), Fraction(5)], [Fraction(0), Fraction(1)]]
    pushed = coadjoint_act([u], free)
    print()
    print("same first coresidue viewed without weight constraints:")
    print(f"  unipotent push: {fmt(pushed.sites[0])}")
    print(f"  moved: {pushed.sites != free.sites}")
    print(f"  leaf invariants equal: {leaf_invariants(pushed) == leaf_invariants(free)}")
    print(
        f"  rank jumps to {bivector_rank_at(free)} once the torus constraint is gone"
    )

    report = quotient_diagram_check(field)
    print()
    print("two-route invariant comparison over the divisor:")
    for row in report.rows:
        print(
            f"  point {row.point}, degree {row.degree}: "
            f"polynomial side {row.residue_route}, "
            f"coresidue side {row.moment_route}, equal: {row.equal}"
        )
    print(f"diagram commutes: {report.all_equal}")


if __name__ == "__main__":
    main()
